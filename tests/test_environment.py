import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaucb import environment, harness
from deltaucb.core import AuctionConfig, exploration_budget
from deltaucb.environment import (
    ClickRealization,
    draw_realization,
    dump_realization,
    load_realization,
    realized_click,
)
from deltaucb.mechanism import run as run_named, run_multi_slot, run_single_slot

from conftest import as_matrices, make_profiles, make_realization

DATA = Path(__file__).parent / "data"

# (golden file, config arguments, click rates): small pinned draws of both layers
GOLDEN_REALIZATIONS = (
    ("golden_realization_single.txt", dict(num_agents=3, horizon=64, seed=31), [0.2, 0.5, 0.9]),
    (
        "golden_realization_multi.txt",
        dict(num_agents=4, horizon=64, num_slots=3, prominences=(1.0, 0.7, 0.4), seed=32),
        [0.3, 0.6, 0.8, 0.1],
    ),
)


PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _config(num_agents, horizon, num_slots=1, prominences=None, seed=0, delta=0.5):
    return AuctionConfig(
        num_agents=num_agents,
        horizon=horizon,
        delta=delta,
        num_slots=num_slots,
        prominences=prominences,
        seed=seed,
    )


def test_degenerate_click_rates():
    config = _config(2, 500)
    realization = draw_realization(config, make_profiles([0.0, 1.0]))
    assert not realization.clicks(1, 1, 0, 500).any()
    assert realization.clicks(2, 1, 0, 500).all()


def test_row_mean_matches_rate():
    # law of large numbers at 3 sigma = 3 * 0.5 / sqrt(T), well inside 0.01
    config = _config(1, 10**5, seed=7)
    realization = draw_realization(config, make_profiles([0.5]))
    assert abs(realization.clicks(1, 1, 0, 10**5).mean() - 0.5) < 0.01


def test_layered_click_rate_is_product():
    config = _config(2, 10**5, num_slots=2, prominences=(1.0, 0.5), seed=11)
    realization = draw_realization(config, make_profiles([0.4, 0.4]))
    assert abs(realization.clicks(1, 2, 0, 10**5).mean() - 0.2) < 0.01


def test_realized_click_single_slot_passthrough():
    realization = make_realization([[1, 0, 1]])
    assert realized_click(realization, 1, 1, 1) == 1
    assert realized_click(realization, 1, 1, 2) == 0


def test_realized_click_requires_observation():
    realization = make_realization([[1, 1]], observations=[[1, 1], [0, 1]])
    assert realized_click(realization, 1, 2, 1) == 0
    assert realized_click(realization, 1, 2, 2) == 1


def test_observation_layer_is_shared_across_agents():
    # whoever occupies a slot sees the same observation outcome (counterfactual consistency);
    # slot 1 always observes (prominence 1.0), so it shows an agent's intrinsic row, and an
    # agent that always clicks (agent 4, ctr 1.0) shows a slot's observation row
    config = _config(4, 200, num_slots=2, prominences=(1.0, 0.6), seed=3)
    realization = draw_realization(config, make_profiles([0.3, 0.6, 0.9, 1.0]))
    for agent in (1, 2, 3):
        intrinsic = realization.clicks(agent, 1, 0, 200)
        for slot in (1, 2):
            observation = realization.clicks(4, slot, 0, 200)
            for t in (1, 50, 200):
                expected = int(intrinsic[t - 1] & observation[t - 1])
                assert realized_click(realization, agent, slot, t) == expected


def test_same_seed_gives_identical_matrices():
    config = _config(3, 400, seed=99)
    profiles = make_profiles([0.2, 0.5, 0.8])
    first = draw_realization(config, profiles)
    second = draw_realization(config, profiles)
    for agent in (1, 2, 3):
        assert first.clicks(agent, 1, 0, 400).tobytes() == second.clicks(agent, 1, 0, 400).tobytes()


def test_adding_agent_preserves_existing_rows():
    # per-row substreams: a bigger population never perturbs earlier rows
    small = draw_realization(_config(2, 300, seed=17), make_profiles([0.3, 0.6]))
    big = draw_realization(_config(3, 300, seed=17), make_profiles([0.3, 0.6, 0.9]))
    for agent in (1, 2):
        assert np.array_equal(small.clicks(agent, 1, 0, 300), big.clicks(agent, 1, 0, 300))


def _assert_same_clicks(first, second):
    for agent in range(1, first.num_agents + 1):
        for slot in range(1, first.num_slots + 1):
            window = (agent, slot, 0, first.horizon)
            assert first.clicks(*window).tobytes() == second.clicks(*window).tobytes()


def test_dump_load_roundtrip(tmp_path):
    config = _config(3, 50, num_slots=2, prominences=(1.0, 0.7), seed=23)
    realization = draw_realization(config, make_profiles([0.1, 0.5, 0.9]))
    path, again = tmp_path / "realization.txt", tmp_path / "again.txt"
    dump_realization(realization, path)
    loaded = load_realization(path)
    assert loaded.seed == realization.seed
    assert loaded.num_slots == realization.num_slots
    _assert_same_clicks(loaded, realization)
    # both layers, every row: the loaded realization dumps the same text
    dump_realization(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    header = path.read_text().splitlines()[0]
    assert header == "3 50 2 23"


def test_dump_load_roundtrip_single_slot(tmp_path):
    realization = draw_realization(_config(2, 30, seed=4), make_profiles([0.2, 0.8]))
    path, again = tmp_path / "single.txt", tmp_path / "again.txt"
    dump_realization(realization, path)
    loaded = load_realization(path)
    # the header and two intrinsic rows, no observation layer
    assert len(path.read_text().splitlines()) == 3
    _assert_same_clicks(loaded, realization)
    dump_realization(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "text, match",
    [
        *(
            pytest.param(f"2 4 1 0\n0110\n{row}\n", "row 2", id=row)
            for row in ["01x1", "0121", "01 1", "01-1"]
        ),
        pytest.param("2 4 0 0\n0110\n0101\n", "M must", id="M=0"),
        pytest.param("0 4 1 0\n", "K must", id="K=0"),
        pytest.param("2 -1 1 0\n\n\n", "T must", id="T=-1"),
        pytest.param("2 4 1 -5\n0110\n0101\n", "seed must", id="seed=-5"),
        pytest.param(f"2 4 1 {2**64}\n0110\n0101\n", "seed must", id="seed=2**64"),
        pytest.param("2 4 1 0\n0110\n0101\n0011\n", "more than the header", id="extra-row"),
        pytest.param(
            "2 4 2 0\n0110\n0101\n1111\n1010\n0011\n", "more than the header", id="extra-row-M=2"
        ),
    ],
)
def test_load_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_realization(path)


def test_load_accepts_trailing_blank_lines(tmp_path):
    path = tmp_path / "trailing.txt"
    path.write_text("2 4 1 0\n0110\n0101\n\n")
    assert load_realization(path).clicks(2, 1, 0, 4).tolist() == [0, 1, 0, 1]


@pytest.mark.parametrize(
    "intrinsic, observations, match",
    [
        pytest.param([[1, 1]], [[0, 1]], "observations: need at least 2 rows", id="M=1"),
        pytest.param([[1, 1]], np.zeros((0, 2)), "observations: need at least 2 rows", id="M=0"),
        pytest.param([[1, 1]], [[0, 1, 1], [1, 1, 0]], "observations: rows have length 3", id="T"),
        pytest.param([[1, 1]], [[0, 1], [1, 1, 0]], "observations: not a matrix", id="ragged"),
        pytest.param([[1, 1], [1]], None, "intrinsic_clicks: not a matrix", id="ragged-K"),
        pytest.param([1, 1], None, "intrinsic_clicks: must be a 2-D", id="1-D"),
        pytest.param([[1, 1]], [0, 1], "observations: must be a 2-D", id="1-D-M"),
        pytest.param([[[1, 1]]], None, "intrinsic_clicks: must be a 2-D", id="3-D"),
        pytest.param([[]], None, "intrinsic_clicks: need K, T >= 1", id="T=0"),
        pytest.param(np.zeros((0, 5)), None, "intrinsic_clicks: need K, T >= 1", id="K=0"),
    ],
)
def test_from_matrices_rejects_what_a_dump_cannot_round_trip(intrinsic, observations, match):
    with pytest.raises(ValueError, match=match):
        ClickRealization.from_matrices(0, intrinsic, observations)


def test_out_of_range_indices_error():
    realization = make_realization([[1, 0]])
    with pytest.raises(IndexError):
        realized_click(realization, 2, 1, 1)
    with pytest.raises(IndexError):
        realized_click(realization, 1, 2, 1)
    with pytest.raises(IndexError):
        realized_click(realization, 1, 1, 3)


@pytest.mark.parametrize("chunk", [environment._CHUNK, 5])
@pytest.mark.parametrize("name, config_args, ctrs", GOLDEN_REALIZATIONS)
def test_dump_matches_golden(tmp_path, monkeypatch, chunk, name, config_args, ctrs):
    monkeypatch.setattr(environment, "_CHUNK", chunk)
    realization = draw_realization(_config(**config_args), make_profiles(ctrs))
    path = tmp_path / name
    dump_realization(realization, path)
    assert path.read_bytes() == (DATA / name).read_bytes()


def _dense_row(seed, layer, row, rate, horizon):
    """A row drawn whole, as realizations were drawn before rows were read by window."""
    return (environment._row_rng(seed, layer, row).random(horizon) < rate).astype(np.uint8)


@st.composite
def drawn_instances(draw, max_horizon=3000):
    num_agents = draw(st.integers(1, 6))
    num_slots = draw(st.integers(1, num_agents))
    lower = draw(st.lists(st.floats(0.05, 1.0), min_size=num_slots - 1, max_size=num_slots - 1))
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    ctrs = draw(st.lists(rate, min_size=num_agents, max_size=num_agents))
    config = _config(
        num_agents,
        draw(st.integers(1, max_horizon)),
        num_slots=num_slots,
        prominences=(1.0, *sorted(lower, reverse=True)),
        seed=draw(st.integers(0, 2**64 - 1)),
        delta=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
    )
    valuations = draw(st.lists(st.floats(0.0, 1.0), min_size=num_agents, max_size=num_agents))
    return config, make_profiles(ctrs, valuations)


@PROPERTY
@given(instance=drawn_instances(), pieces=st.integers(1, 40))
def test_streamed_windows_match_dense_draw(tmp_path_factory, instance, pieces):
    # the chunk is set so that a whole row spans `pieces` chunks, the last one partial
    config, profiles = instance
    horizon, seed = config.horizon, config.seed
    explore_until = min(exploration_budget(config), horizon)
    bounds = sorted({0, explore_until, horizon - 1, horizon})
    windows = [(a, b) for a in bounds for b in bounds if a <= b]
    intrinsic = [_dense_row(seed, 0, p.id, p.ctr, horizon) for p in profiles]
    observations = [
        _dense_row(seed, 1, m, g, horizon) for m, g in enumerate(config.prominences, start=1)
    ]
    layers = intrinsic + (observations if config.num_slots > 1 else [])
    path = tmp_path_factory.mktemp("dump") / "realization.txt"
    with mock.patch.object(environment, "_CHUNK", -(-horizon // pieces)):
        realization = draw_realization(config, profiles)
        matrix_built = ClickRealization.from_matrices(
            seed, intrinsic, observations if config.num_slots > 1 else None
        )
        for agent in range(1, config.num_agents + 1):
            for slot in range(1, config.num_slots + 1):
                for a, b in windows:
                    expected = intrinsic[agent - 1][a:b]
                    if config.num_slots > 1:
                        expected = expected & observations[slot - 1][a:b]
                    count = int(expected.sum())
                    assert realization.click_count(agent, slot, a, b) == count
                    assert realization.clicks(agent, slot, a, b).tobytes() == expected.tobytes()
                    # the same rows as given matrices, read in the same pieces
                    assert matrix_built.click_count(agent, slot, a, b) == count
        # every row of both layers, whole, written a chunk at a time
        dump_realization(realization, path)
    header = f"{config.num_agents} {horizon} {config.num_slots} {seed}\n".encode("ascii")
    rows = b"".join((row + ord("0")).tobytes() + b"\n" for row in layers)
    assert path.read_bytes() == header + rows


def _log_bytes(log):
    if log is None:
        return None
    return [column.tobytes() for column in (log.t, log.slot, log.agent, log.click, log.payment)]


@PROPERTY
@given(
    instance=drawn_instances(max_horizon=600),
    short_by=st.sampled_from([None, 0, 1, -3]),
    pieces=st.integers(1, 8),
)
def test_runs_match_on_streamed_and_loaded_realizations(
    tmp_path_factory, instance, short_by, pieces
):
    # the budget is T - short_by (at least K); 0 and -3 give exploration-only runs
    config, profiles = instance
    budget = None if short_by is None else max(config.num_agents, config.horizon - short_by)
    options = dict(rounds_log="all", budget_override=budget)
    runs = [lambda r: run_multi_slot(config, profiles, realization=r, **options)]
    if config.num_slots == 1:
        runs += [
            lambda r: run_single_slot(config, profiles, realization=r, **options),
            lambda r: run_named("oracle", config, profiles, realization=r, rounds_log="all"),
        ]
    path = tmp_path_factory.mktemp("realization") / "realization.txt"
    with mock.patch.object(environment, "_CHUNK", -(-config.horizon // pieces)):
        dump_realization(draw_realization(config, profiles), path)
        for run in runs:
            streamed = run(draw_realization(config, profiles))
            loaded = run(load_realization(path))
            assert streamed.summary == loaded.summary
            assert _log_bytes(streamed.log) == _log_bytes(loaded.log)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_horizon():
    profiles = make_profiles([0.9, 0.6, 0.5, 0.3, 0.1])

    def run(horizon):
        return lambda: run_single_slot(_config(5, horizon, seed=7, delta=0.2), profiles)

    run(10**5)()  # warm caches outside the measurement
    small, large = _traced_peak(run(10**5)), _traced_peak(run(2 * 10**6))
    assert large - small < 2**20, (small, large)


@pytest.mark.parametrize("num_slots, prominences", [(1, None), (3, (1.0, 0.7, 0.4))])
def test_dump_memory_does_not_grow_with_horizon(tmp_path, num_slots, prominences):
    profiles = make_profiles([0.9, 0.6, 0.5, 0.3, 0.1])

    def dump(horizon):
        config = _config(5, horizon, num_slots=num_slots, prominences=prominences, seed=7)
        return lambda: dump_realization(draw_realization(config, profiles), tmp_path / "r.txt")

    dump(10**5)()  # warm caches outside the measurement
    small, large = _traced_peak(dump(10**5)), _traced_peak(dump(2 * 10**6))
    assert large - small < 2**20, (small, large)


def test_table_memory_does_not_grow_with_rows(tmp_path, monkeypatch):
    # a round log's columns, built before the measurement; 8x the rows must not raise the peak
    monkeypatch.setattr(harness, "_ROW_BLOCK", 4096)
    rows = 4 * harness._ROW_BLOCK
    rng = np.random.default_rng(5)

    def table(n):
        payment = np.round(rng.uniform(0.0, 1.0, n), 3) * (rng.random(n) < 0.3)
        columns = {
            "t": np.arange(1, n + 1),
            "phase": np.where(np.arange(n) < 100, "exploration", "exploitation"),
            "agent": rng.integers(1, 6, n),
            "payment": payment,
            "revenue_cum": np.cumsum(payment),
        }
        return lambda: harness.write_table(columns, tmp_path / "t.csv", "csv")

    table(rows)()  # warm caches outside the measurement
    small, large = _traced_peak(table(rows)), _traced_peak(table(8 * rows))
    assert large - small < 2 * 2**20, (small, large)


def test_window_reads_check_their_bounds():
    realization = draw_realization(_config(2, 10, seed=1), make_profiles([0.5, 0.5]))
    for args in [(3, 1, 0, 1), (1, 2, 0, 1), (1, 1, -1, 2), (1, 1, 5, 4), (1, 1, 0, 11)]:
        with pytest.raises(IndexError):
            realization.clicks(*args)
        with pytest.raises(IndexError):
            realization.click_count(*args)


def test_a_realization_keeps_nothing_it_reads():
    # 2**20 rounds, so keeping any row window read, or ANDing two whole rows per call, takes 1 MiB
    horizon = 2**20
    config = _config(3, horizon, num_slots=2, prominences=(1.0, 0.5), seed=4)
    realization = draw_realization(config, make_profiles([0.3, 0.6, 0.9]))
    rounds = np.random.default_rng(0).integers(1, horizon + 1, 1000)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        expected = realization.clicks(2, 2, 0, horizon)[rounds - 1].tolist()
        realization.click_count(1, 2, 0, horizon)
        realization.first_rounds(3, (1, 2), 0, horizon)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        clicks = [realized_click(realization, 2, 2, int(t)) for t in rounds]
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current - start < 64 * 2**10, (start, current)
    assert peak - before < 2**20, (before, peak)
    assert clicks == expected


_scan_rate = st.sampled_from([0.0, 1.0, 1e-3, 2e-4, 0.02]) | st.floats(0.0, 1.0)


@PROPERTY
@given(
    num_slots=st.integers(1, 3),
    rates=st.lists(_scan_rate, min_size=4, max_size=4),
    gammas=st.lists(_scan_rate, min_size=3, max_size=3),
    horizon=st.integers(1, 200_000),
    start=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_bounded_scan_finds_what_the_whole_window_holds(
    num_slots, rates, gammas, horizon, start, seed, data
):
    # rates and slot rates of 0 and 1 make patterns impossible; tiny ones make them late or absent
    layers = {0: rates} if num_slots == 1 else {0: rates, 1: gammas[:num_slots]}
    realization = ClickRealization(seed, num_slots, horizon, rates=layers)
    start = min(int(start * horizon), horizon - 1)
    slots = data.draw(st.lists(st.integers(1, num_slots), max_size=2, unique=True).map(sorted))
    agent = data.draw(st.integers(1, 4))
    expected = as_matrices(realization).first_rounds(agent, tuple(slots), start, horizon)
    assert realization.first_rounds(agent, tuple(slots), start, horizon) == expected


def test_a_pattern_that_never_occurs_scans_each_row_once_to_the_horizon(monkeypatch):
    # rate 1e-7 over 1e6 rounds: a click at slot 2 (prominence 0.02) almost surely never occurs,
    # so the scan reads every round once per row, in doubling windows, and keeps none of them
    horizon, start = 10**6, 500
    realization = ClickRealization(3, 2, horizon, rates={0: [1e-7], 1: [1.0, 0.02]})
    reads = []
    chunks = ClickRealization._chunks

    def recorded(self, layer, row, lo, hi):
        reads.append((layer, row, lo, hi))
        return chunks(self, layer, row, lo, hi)

    monkeypatch.setattr(ClickRealization, "_chunks", recorded)
    found = realization.first_rounds(1, (1, 2), start, horizon)
    for key in [(0, 1), (1, 1), (1, 2)]:
        windows = [(lo, hi) for layer, row, lo, hi in reads if (layer, row) == key]
        # contiguous windows from start to the horizon, each at most twice the one before
        assert windows[0][0] == start and windows[-1][1] == horizon
        assert [hi for _, hi in windows[:-1]] == [lo for lo, _ in windows[1:]]
        widths = [hi - lo for lo, hi in windows]
        assert widths[0] == environment._SCAN and all(b <= 2 * a for a, b in zip(widths, widths[1:]))
    assert ({1: 0, 2: 1}, start + 1) not in found
    assert found == as_matrices(realization).first_rounds(1, (1, 2), start, horizon)


def test_a_seeded_scan_stops_once_every_possible_pattern_is_seen(monkeypatch):
    # slot 1 is always observed, so "no click at slot 1, click at slot 2" cannot occur;
    # the other three patterns occur in the first window, and the scan draws nothing more
    realization = ClickRealization(5, 2, 10**7, rates={0: [0.5], 1: [1.0, 0.5]})
    reads = []
    chunks = ClickRealization._chunks

    def recorded(self, layer, row, lo, hi):
        reads.append(hi - lo)
        return chunks(self, layer, row, lo, hi)

    monkeypatch.setattr(ClickRealization, "_chunks", recorded)
    found = realization.first_rounds(1, (1, 2), 100, 10**7)
    assert sorted(clicks[1] + 2 * clicks[2] for clicks, _ in found) == [0, 1, 3]
    assert reads == [environment._SCAN] * 3


def test_a_matrix_scan_stops_once_every_pattern_is_seen(monkeypatch):
    # all four patterns of two slots occur in rounds 1..4 of a window four scan windows long
    horizon = 4 * environment._SCAN
    observations = [np.tile([0, 1, 0, 1], horizon // 4), np.tile([0, 0, 1, 1], horizon // 4)]
    realization = make_realization(np.ones((1, horizon)), observations)
    reads = []
    chunks = ClickRealization._chunks

    def recorded(self, layer, row, lo, hi):
        reads.append((layer, row, lo, hi))
        return chunks(self, layer, row, lo, hi)

    monkeypatch.setattr(ClickRealization, "_chunks", recorded)
    found = realization.first_rounds(1, (1, 2), 0, horizon)
    assert [t for _, t in found] == [1, 2, 3, 4]
    window = (0, environment._SCAN)
    assert sorted(reads) == [(0, 1, *window), (1, 1, *window), (1, 2, *window)]
