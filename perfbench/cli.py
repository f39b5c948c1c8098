"""Run the deltaucb CLI from the checkout's sources: ``python3 perfbench/cli.py <args>``.

Where the benchmark runs, the ``deltaucb`` console script is not installed
and ``python -m deltaucb.harness`` returns without doing anything, so this
calls the entry point the console script names, with ``src`` on the path.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltaucb.harness import console_main  # noqa: E402

if __name__ == "__main__":
    sys.argv[0] = "deltaucb"
    console_main()
