"""``python -m deltaucb``: the same command line as the ``deltaucb`` script."""

from .harness import console_main

if __name__ == "__main__":
    console_main()
