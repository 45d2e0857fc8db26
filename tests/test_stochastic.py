import hashlib
import os
import struct
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from circascade import (
    CascadeError,
    CascadeSpec,
    ConfigInvalid,
    EventStream,
    HistogramConfig,
    InsufficientSamples,
    NumericalFailure,
    SimConfig,
    StreamInvariantViolation,
    SubsetSpec,
    block_bootstrap_stderr,
    correlate_blocks,
    read_event_blocks,
    read_events_binary,
    read_events_text,
    simulate,
    simulate_to_file,
    write_events_binary,
    write_events_text,
)
from circascade import cli, stochastic

from oracles import (
    dwell_segments,
    exact_stamps,
    occupancy_block_estimates,
    simulate_in_chunks,
    time_weighted_occupancy,
)

SPEC124 = CascadeSpec(3, (1.0, 2.0, 4.0))


def test_invalid_configs_rejected():
    spec = CascadeSpec.equal(3, 1.0)
    with pytest.raises(ConfigInvalid):
        simulate(SimConfig(spec, seed=1))
    with pytest.raises(ConfigInvalid):
        simulate(SimConfig(spec, seed=1, duration=10.0, total_events=10))
    with pytest.raises(ConfigInvalid):
        simulate(SimConfig(spec, seed=1, duration=-1.0))
    with pytest.raises(ConfigInvalid):
        simulate(SimConfig(spec, seed=1, total_events=0))
    with pytest.raises(ConfigInvalid):
        simulate(SimConfig(spec, seed=1, duration=1.0, burn_in=-0.1))
    with pytest.raises(ConfigInvalid):
        simulate(SimConfig(spec, seed=1, duration=1.0, initial_level=3))


@pytest.mark.parametrize("seed, message", [
    (-1, r"seed must be in \[0, 2\*\*64\), got -1"),
    (2**64, r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
    (1.5, "seed must be an integer"),
    (True, "seed must be an integer"),
])
def test_a_seed_outside_the_philox_key_range_is_rejected(seed, message):
    stream = EventStream(np.arange(1.0, 41.0), 2, 3, 40.0)
    with pytest.raises(ConfigInvalid, match=message):
        SimConfig(SPEC124, seed=seed, total_events=10)
    with pytest.raises(ConfigInvalid, match=message):
        block_bootstrap_stderr(stream, (1, 1), HistogramConfig(0.5, 2.0), seed=seed)


def test_the_largest_seed_runs_and_is_kept_in_both_formats(tmp_path):
    stream = simulate(SimConfig(SPEC124, seed=2**64 - 1, total_events=10))
    for write, read in ((write_events_binary, read_events_binary),
                        (write_events_text, read_events_text)):
        write(stream, tmp_path / "run.events")
        assert read(tmp_path / "run.events").seed == 2**64 - 1


@pytest.mark.parametrize(
    "field, value",
    [("duration", np.nan), ("duration", np.inf), ("burn_in", np.nan), ("burn_in", np.inf)],
)
def test_non_finite_durations_rejected(field, value):
    stop = {"duration": 1.0} if field == "burn_in" else {}
    with pytest.raises(ConfigInvalid, match=f"{field} must be finite"):
        SimConfig(CascadeSpec.equal(3, 1.0), seed=1, **stop, **{field: value})


def test_single_level_is_poisson_counting():
    stream = simulate(SimConfig(CascadeSpec(1, (1.0,)), seed=7, duration=1e6))
    count = stream.counts[0]
    assert abs(count - 1e6) < 3 * np.sqrt(1e6)


def test_label_cycling_every_seed():
    spec = CascadeSpec.equal(6, 1.0)
    for seed in range(5):
        stream = simulate(SimConfig(spec, seed=seed, total_events=20_000))
        stream.check()  # raises on any cycling/tie/balance violation
        _, labels = stream.merged()
        assert np.array_equal(labels[1:], (labels[:-1] - 1) % 6)


@pytest.mark.parametrize("burn_in", [10.5, 11.0, 12.0])
def test_burn_in_keeps_the_labels_of_the_full_trajectory(burn_in):
    # same seed and horizon: the late stream is the tail of the full one,
    # and these burn-ins end in each of the three levels
    full = simulate(SimConfig(SPEC124, seed=5, duration=60.0, initial_level=0))
    late = simulate(
        SimConfig(SPEC124, seed=5, duration=60.0 - burn_in, burn_in=burn_in, initial_level=0)
    )
    times, labels = full.merged()
    kept = times > burn_in
    late_times, late_labels = late.merged()
    np.testing.assert_array_equal(late_times, times[kept] - burn_in)
    np.testing.assert_array_equal(late_labels, labels[kept])


def test_event_count_stop_is_exact():
    stream = simulate(SimConfig(SPEC124, seed=3, total_events=12_345))
    assert stream.n_events == 12_345


def test_channel_rates_match_cycle_current():
    stream = simulate(SimConfig(SPEC124, seed=11, total_events=300_000))
    current = 1.0 / SPEC124.cycle_time  # 4/7 per unit time
    for count in stream.counts:
        expected = current * stream.total_duration
        assert abs(count - expected) < 3 * np.sqrt(expected)


def test_determinism_bit_identical(tmp_path):
    cfg = SimConfig(SPEC124, seed=99, total_events=50_000)
    a, b = simulate(cfg), simulate(cfg)
    assert a.first_label == b.first_label and np.array_equal(a.times, b.times)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    write_events_binary(a, pa)
    write_events_binary(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def _random_spec(data, n):
    return CascadeSpec(n, [10.0 ** data.draw(st.floats(-2, 2)) for _ in range(n)])


def _random_start(data, spec):
    """SimConfig's seed, burn-in and initial level, drawn."""
    return dict(seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
                burn_in=data.draw(st.floats(0, 5), label="burn_in") * spec.cycle_time,
                initial_level=data.draw(st.none() | st.integers(0, spec.n_levels - 1)))


def _random_stop(data, spec, events, cycles):
    """SimConfig's stop, up to ``events`` events or ``cycles`` cycle times, drawn."""
    return data.draw(st.one_of(
        st.builds(lambda k: {"total_events": k}, st.integers(1, events)),
        st.builds(lambda c: {"duration": c * spec.cycle_time}, st.floats(0.01, cycles)),
    ), label="stop")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_a_run_is_a_bit_exact_prefix_of_every_longer_run(n, data):
    # the seams sit every _CHUNK draws from draw 0 whatever the stop, so
    # runs that share a seed, rates, start level and burn-in share their
    # stamps; small chunks put many seams into short runs
    spec = _random_spec(data, n)
    shared = _random_start(data, spec)
    chunk = data.draw(st.sampled_from([64, 1000, stochastic._CHUNK]), label="chunk")
    runs = []
    with mock.patch.object(stochastic, "_CHUNK", chunk):
        for _ in range(3):
            try:
                runs.append(simulate(SimConfig(spec, **shared,
                                               **_random_stop(data, spec, 40_000, 4000))))
            except InsufficientSamples:
                pass
    runs.sort(key=lambda stream: stream.n_events)
    for short, long in zip(runs, runs[1:]):
        assert short.first_label == long.first_label
        assert short.times.tobytes() == long.times[:short.n_events].tobytes()


def test_a_run_past_its_expected_draws_is_still_a_prefix():
    # one slow level in 32 makes the event count of a window spread
    # sqrt(32) times wider than a Poisson count, so about a third of these
    # runs outlast the draws _expected_draws allows for them: seams placed
    # from that estimate would fall inside them and not inside the longer run
    spec = CascadeSpec(32, (0.01,) + (100.0,) * 31)
    outlasting = 0
    for seed in range(20):
        config = SimConfig(spec, seed, duration=200 * spec.cycle_time, initial_level=0)
        short = simulate(config)
        long = simulate(SimConfig(spec, seed, total_events=short.n_events + 20_000,
                                  initial_level=0))
        outlasting += short.n_events >= stochastic._expected_draws(config)
        assert short.times.tobytes() == long.times[:short.n_events].tobytes(), seed
    assert outlasting > 0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_stamps_lie_within_their_chunk_length_of_the_exact_sums(n, data):
    # a stamp j draws into its chunk is a running sum of j + 1 positive
    # dwells (error <= j u x, x the stamp, u = 2^-53 < ulp / x) added to the
    # compensated sum of the pairwise chunk totals before it (<= 34 u x:
    # numpy's pairwise tree is at most 32 additions deep at up to 2^14
    # draws) and rounded twice more, so it lies within j + 36 ulp of the
    # exact sum however many chunks come before it
    spec = _random_spec(data, n)
    start = data.draw(st.integers(0, n - 1), label="start")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    n_events = data.draw(st.integers(1, 20_000), label="events")
    chunk = data.draw(st.integers(64, 4096) | st.just(stochastic._CHUNK), label="chunk")
    with mock.patch.object(stochastic, "_CHUNK", chunk):
        times = simulate(SimConfig(spec, seed, total_events=n_events, initial_level=start)).times
    exact = exact_stamps(spec.rates, seed, start, n_events)
    ulps = np.abs(times - exact) / np.spacing(exact)
    assert np.all(ulps <= np.arange(n_events) % chunk + 36), ulps.max()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_simulate_equals_whole_chunks_summed_in_one_array(n, data):
    # small chunks put several seams into short runs
    spec = _random_spec(data, n)
    config = SimConfig(spec, **_random_start(data, spec), **_random_stop(data, spec, 20_000, 3000))
    chunk = data.draw(st.integers(64, 1 << 14), label="chunk")
    expected = simulate_in_chunks(spec.rates, config.seed, config.initial_level,
                                  config.total_events, config.duration, config.burn_in, chunk)
    with mock.patch.object(stochastic, "_CHUNK", chunk):
        if expected is None:
            with pytest.raises(InsufficientSamples):
                simulate(config)
            return
        stream = simulate(config)
    assert stream.first_label == expected[0]
    assert stream.times.tobytes() == expected[1].tobytes()


# sha256 of times.tobytes(), each equal to oracles.simulate_in_chunks's
# stream: a 1e12:1 rate spread rounds every fast dwell away, so about half
# the stamps collide and are nudged, in runs that cross the nudge's block
# edges. The duration run ends in its first 2^14-draw chunk, so its bytes
# date from before simulate wrote into one buffer
FROZEN_NUDGED = {
    "total_events": (
        SimConfig(CascadeSpec(2, (1e-12, 1e12)), seed=4, total_events=3 * 2**20 + 5),
        "c5f473273730618acc6d799017f0746c05c679cc07c16f12700f8b91d3fe3038",
    ),
    "duration": (
        SimConfig(CascadeSpec(3, (1e-9, 1e9, 1.0)), seed=4, duration=2e12),
        "16e9bce7abc4afc3d9cfb6331624f7b2ff7e1a88d18fcdc72681c5ada630b258",
    ),
}


@pytest.mark.parametrize("mode", FROZEN_NUDGED)
def test_nudged_streams_keep_their_frozen_bytes(mode):
    config, digest = FROZEN_NUDGED[mode]
    times = simulate(config).times
    assert np.all(times[1:] > times[:-1])
    assert hashlib.sha256(times.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "stop", [{"duration": 700_000.0, "burn_in": 3.5}, {"total_events": 1_300_000}],
    ids=["duration", "total_events"],
)
def test_buffer_growth_never_changes_the_stream(monkeypatch, stop):
    # from a one-element buffer the stamps outgrow it on every chunk
    config = SimConfig(SPEC124, seed=12, **stop)
    expected = simulate(config)
    join = stochastic._join
    monkeypatch.setattr(stochastic, "_join", lambda blocks, size: join(blocks, 1))
    grown = simulate(config)
    assert grown.first_label == expected.first_label
    assert grown.total_duration == expected.total_duration
    assert np.array_equal(grown.times, expected.times)


def _traced_peak(call) -> tuple:
    """(call(), peak traced bytes of the call)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_per_stream_byte(call, n_events: int) -> float:
    """Peak traced bytes of call() over the 8 bytes per event of its stream."""
    return _traced_peak(call)[1] / (8 * n_events)


def test_simulate_holds_one_copy_of_the_stream():
    config = SimConfig(CascadeSpec.equal(6), seed=3, total_events=4_000_000)
    assert _peak_per_stream_byte(lambda: simulate(config), 4_000_000) <= 2.5


def test_binary_reader_holds_one_copy_of_the_stream(tmp_path):
    n_events = 4_000_000
    path = tmp_path / "events.bin"
    write_events_binary(EventStream(np.arange(1.0, n_events + 1), 2, 6, n_events + 1.0), path)
    assert _peak_per_stream_byte(lambda: read_events_binary(path), n_events) <= 1.25


def _simulate_argv(config: SimConfig, rates, out) -> list[str]:
    """The `simulate` command line of config, its spec in the JSON file rates."""
    rates.write_text(config.spec.to_json())
    argv = ["simulate", "--rates", str(rates), "--seed", str(config.seed),
            "--burn-in", repr(config.burn_in), "--out", str(out)]
    if config.total_events is not None:
        argv += ["--events", str(config.total_events)]
    else:
        argv += ["--duration", repr(config.duration)]
    if config.initial_level is not None:
        argv += ["--initial", str(config.initial_level)]
    return argv


# every run crosses chunk seams (chunks hold 2^14 draws)
STREAMED = {
    "total_events": SimConfig(SPEC124, seed=8, total_events=1_300_000),
    "duration": SimConfig(SPEC124, seed=9, duration=700_000.0),
    "burn_in": SimConfig(SPEC124, seed=10, duration=300_000.0, burn_in=250_000.5,
                         initial_level=1),
    **{f"nudged_{mode}": config for mode, (config, _) in FROZEN_NUDGED.items()},
    "ring70000": SimConfig(CascadeSpec.equal(70000, 1.0), seed=1, total_events=200),
}


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_binary_file_equals_the_written_stream(tmp_path, name):
    config = STREAMED[name]
    out = tmp_path / "cli.events"
    assert cli.main(_simulate_argv(config, tmp_path / "rates.json", out)) == 0
    write_events_binary(simulate(config), tmp_path / "ref.events")
    assert out.read_bytes() == (tmp_path / "ref.events").read_bytes()


@pytest.mark.parametrize("name", ["total_events", "burn_in", "nudged_duration"])
def test_streamed_text_file_equals_the_written_stream(tmp_path, name):
    config = STREAMED[name]
    out = tmp_path / "cli.txt"
    argv = _simulate_argv(config, tmp_path / "rates.json", out) + ["--format", "text"]
    assert cli.main(argv) == 0
    write_events_text(simulate(config), tmp_path / "ref.txt")
    assert out.read_bytes() == (tmp_path / "ref.txt").read_bytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_a_file_streamed_across_many_chunk_seams_equals_the_written_stream(n, data):
    spec = _random_spec(data, n)
    config = SimConfig(spec, **_random_start(data, spec), **_random_stop(data, spec, 2000, 300))
    # with 64-draw chunks every run crosses chunk seams
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(stochastic, "_CHUNK", 64):
        try:
            stream = simulate(config)
        except InsufficientSamples:
            stream = None
        for fmt, write in (("binary", write_events_binary), ("text", write_events_text)):
            streamed, written = os.path.join(tmp, fmt), os.path.join(tmp, f"{fmt}.ref")
            if stream is None:
                with pytest.raises(InsufficientSamples):
                    simulate_to_file(config, streamed, fmt)
                assert os.listdir(tmp) == []
                continue
            simulate_to_file(config, streamed, fmt)
            write(stream, written)
            with open(streamed, "rb") as a, open(written, "rb") as b:
                assert a.read() == b.read(), fmt


def test_simulate_to_file_rejects_an_unknown_format(tmp_path):
    with pytest.raises(ConfigInvalid, match="'binary' or 'text', got 'csv'"):
        simulate_to_file(SimConfig(SPEC124, seed=1, total_events=10), tmp_path / "run", "csv")
    assert list(tmp_path.iterdir()) == []


def test_simulate_without_events_exits_5_and_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "none.events"
    argv = ["simulate", "--n", "3", "--gamma", "1e-9", "--duration", "1e-6", "--out", str(out)]
    assert cli.main(argv) == 5
    assert capsys.readouterr().err == "error: no events recorded; increase duration\n"
    assert list(tmp_path.iterdir()) == []


# rates inside the domain whose dwell times overflow float64
OVERFLOWING = CascadeSpec(2, (1e-306, 1.0))


def test_a_run_whose_times_overflow_raises():
    with pytest.raises(NumericalFailure, match="overflow"):
        simulate(SimConfig(OVERFLOWING, seed=1, total_events=2000))


def test_an_event_rate_past_the_float_range_draws_or_raises_a_cascade_error():
    # n / cycle_time is inf: with no burn-in, 0 x inf was NaN draws
    spec = CascadeSpec(1, (1.7976931348623153e308,))
    for burn_in in (0.0, 1e-304):  # a burn-in of about 1.8e4 draws
        stream = simulate(SimConfig(spec, seed=0, total_events=64, burn_in=burn_in))
        assert stream.n_events == 64 and np.isfinite(stream.times).all()
    # 1e300 events in the window: more than an array holds
    with pytest.raises(ConfigInvalid, match="more than an array holds"):
        simulate(SimConfig(CascadeSpec(1, (1e300,)), seed=0, duration=1.0))


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_simulate_whose_times_overflow_exits_3_and_leaves_no_file(tmp_path, capsys, fmt):
    rates = tmp_path / "rates.json"
    rates.write_text(OVERFLOWING.to_json())
    argv = ["simulate", "--rates", str(rates), "--events", "2000", "--seed", "1",
            "--format", fmt, "--out", str(tmp_path / "run.events")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("error: event times overflow")
    assert list(tmp_path.iterdir()) == [rates]


@pytest.mark.parametrize("write", [write_events_binary, write_events_text],
                         ids=["binary", "text"])
def test_failed_binary_write_keeps_the_old_file_and_leaves_no_other(tmp_path, write):
    path = tmp_path / "run.events"
    write(EventStream(np.array([1.0, 2.0]), 0, 2, 3.0), path)
    before = path.read_bytes()
    # times that cannot become f64 or be formatted as one fail after the
    # file is opened
    broken = mock.Mock(n_levels=2, first_label=0, seed=None, total_duration=3.0, n_events=1,
                       times=np.array(["x"], dtype=object))
    with pytest.raises(ValueError):
        write(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_cli_simulate_holds_well_under_one_copy_of_the_stream(tmp_path):
    # every chunk of stochastic._CHUNK draws is drawn into one buffer and
    # written as drawn, and the collision check scans it in blocks, so the
    # peak does not grow with the event count. A first untraced run loads
    # what the command imports on first use
    argv = ["simulate", "--n", "6", "--seed", "3", "--out", str(tmp_path / "run.events"),
            "--events"]
    assert cli.main(argv + ["10"]) == 0
    for n_events in (1_000_000, 4_000_000):
        code, peak = _traced_peak(lambda: cli.main(argv + [str(n_events)]))
        assert code == 0 and peak <= 8 * stochastic._CHUNK + (1 << 18), n_events


def test_cli_text_simulate_holds_well_under_one_copy_of_the_stream(tmp_path):
    # as above; formatting 2^12 lines at a time adds well under 1 MiB. A
    # first untraced run loads what the command imports on first use
    argv = ["simulate", "--n", "6", "--seed", "3", "--format", "text",
            "--out", str(tmp_path / "run.txt"), "--events"]
    assert cli.main(argv + ["10"]) == 0
    for n_events in (100_000, 400_000):
        code, peak = _traced_peak(lambda: cli.main(argv + [str(n_events)]))
        assert code == 0 and peak <= 8 * stochastic._CHUNK + (1 << 20), n_events


def test_cli_pair_correlate_holds_one_channel_and_one_read_block(tmp_path):
    # a read block is stochastic._READ_BLOCK = 2^17 timestamps, 1 MiB; the
    # pair counts carry only the events within the window of the last one, so
    # the peak is the read block, its gathered levels and the sweep's
    # temporaries, whatever the event count: measured 2.13 MB at most
    bound = 2 * 8 * stochastic._READ_BLOCK + (1 << 19)
    for n_events in (1_000_000, 4_000_000):
        path = tmp_path / "run.events"
        write_events_binary(EventStream(np.arange(1.0, n_events + 1), 2, 6, n_events + 1.0), path)
        for selection in (("--pair", "1,1"), ("--subset", "1,2")):
            argv = ["correlate", "--in", str(path), *selection, "--bin", "0.5",
                    "--taumax", "30", "--out", str(tmp_path / "g.csv")]
            code, peak = _traced_peak(lambda: cli.main(argv))
            assert code == 0 and peak <= bound, (n_events, selection)


def test_cli_text_correlate_holds_one_parsed_block(tmp_path):
    # the text reader parses stochastic._READ_BLOCK = 2^17 lines at a time
    # into 2 MiB of (time, label) rows and checks their labels and order;
    # the counts carry only the events within the window of the last block,
    # so the peak is a parsed block, its checks' temporaries and the sweep's,
    # whatever the event count: measured 6.75 MB at most. Tracing slows
    # loadtxt about 20-fold (some 5 s per 10^6 lines), hence the sizes.
    bound = 8 * 8 * stochastic._READ_BLOCK
    for n_events in (250_000, 1_000_000):
        path = tmp_path / "run.txt"
        write_events_text(EventStream(np.arange(1.0, n_events + 1), 2, 6, n_events + 1.0), path)
        for selection in (("--pair", "1,1"), ("--subset", "1,2")):
            argv = ["correlate", "--in", str(path), *selection, "--bin", "0.5",
                    "--taumax", "30", "--out", str(tmp_path / "g.csv")]
            code, peak = _traced_peak(lambda: cli.main(argv))
            assert code == 0 and peak <= bound, (n_events, selection)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), data=st.data())
def test_event_blocks_of_either_format_are_the_whole_read_in_order(n, data):
    events = data.draw(st.integers(1, 3 * n + 40), label="events")
    first = data.draw(st.integers(0, n - 1), label="first")
    block = data.draw(st.sampled_from([1, 7, 64, stochastic._READ_BLOCK]), label="block")
    times = np.cumsum(np.random.default_rng(events).uniform(0.5, 1.5, events))
    stream = EventStream(times, first, n, float(times[-1]) + 1.0, seed=5)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(stochastic, "_READ_BLOCK", block):
        path = os.path.join(tmp, "events")
        for write, read in ((write_events_binary, read_events_binary),
                            (write_events_text, read_events_text)):
            write(stream, path)
            full = read(path)
            n_levels, total, blocks = read_event_blocks(path)
            assert (n_levels, total) == (full.n_levels, full.total_duration)
            at = 0
            for label, part in blocks:
                assert label == (full.first_label - at) % n
                assert np.array_equal(part, full.times[at:at + len(part)])
                at += len(part)
            assert at == full.n_events


def _correlate_file(path, selection):
    """The estimator's trace of a pair or subset of a stream file, read block by block."""
    n_levels, total, blocks = read_event_blocks(path)
    return correlate_blocks(blocks, n_levels, total, HistogramConfig(0.5, 1.0), selection)


def test_selected_read_checks_order_across_block_seams(tmp_path, monkeypatch):
    monkeypatch.setattr(stochastic, "_READ_BLOCK", 4)
    times = np.arange(1.0, 13.0)
    for seam in (4, 8):
        for bad in (times[seam - 1], np.nan):
            broken = times.copy()
            broken[seam] = bad
            path = tmp_path / "events.bin"
            path.write_bytes(b"CEV2" + struct.pack("<IIQdQ", 3, 0, 0, 20.0, 12)
                             + broken.tobytes())
            with pytest.raises(StreamInvariantViolation, match="out-of-order"):
                _correlate_file(path, (1, 1))


def test_text_blocks_name_a_damaged_line_as_one_whole_parse_does(tmp_path, monkeypatch):
    # a label that breaks the cycle, a tie and a malformed line, each at a
    # seam of blocks of 4 lines and inside a block: parsed block by block,
    # the file raises the message that one block of all its lines raises
    lines = [f"{t} {label}\n" for t, label in zip(range(1, 13), (2 - np.arange(12)) % 3)]
    path = tmp_path / "events.txt"
    for at in (4, 6, 8):
        for bad in (f"{at + 1} {(3 - at) % 3}\n", f"{at} {(2 - at) % 3}\n", "x 0\n"):
            path.write_text("# cascade-events v1 N=3 seed=0 T=20\n"
                            + "".join(lines[:at] + [bad] + lines[at + 1:]))
            with pytest.raises(StreamInvariantViolation) as whole:
                read_events_text(path)
            with monkeypatch.context() as patch:
                patch.setattr(stochastic, "_READ_BLOCK", 4)
                for selection in SELECTIONS:
                    with pytest.raises(StreamInvariantViolation) as blocked:
                        _read_selected(read_events_text, path, selection)
                    assert str(blocked.value) == str(whole.value), (at, bad, selection)


def test_selected_read_validates_the_whole_file(tmp_path):
    # level 1 has no event, but the file has one: not "no events" but an
    # empty channel, and a span past T fails whatever the selection
    path = tmp_path / "events.bin"
    write_events_binary(EventStream(np.array([1.0]), 2, 3, 10.0), path)
    with pytest.raises(InsufficientSamples, match="channel 1 has no events"):
        _correlate_file(path, (1, 1))
    write_events_binary(EventStream(np.array([1.0, 2.0, 30.0]), 2, 3, 10.0), path)
    with pytest.raises(StreamInvariantViolation, match="span"):
        _correlate_file(path, (1, 1))


def test_text_writer_formats_block_by_block(tmp_path):
    n_events = 100_000
    stream = EventStream(np.arange(1.0, n_events + 1), 2, 6, n_events + 1.0)
    path = tmp_path / "events.txt"
    assert _peak_per_stream_byte(lambda: write_events_text(stream, path), n_events) <= 2.0


def test_text_writer_keeps_an_empty_stream_as_header_and_empty_line(tmp_path):
    path = tmp_path / "events.txt"
    write_events_text(EventStream(np.empty(0), 0, 3, 10.0, seed=2), path)
    assert path.read_text() == "# cascade-events v1 N=3 seed=2 T=10\n\n"


def test_different_seed_different_stream():
    base = SimConfig(SPEC124, seed=99, total_events=1000)
    other = SimConfig(SPEC124, seed=100, total_events=1000)
    a, b = simulate(base), simulate(other)
    assert not np.array_equal(a.times[:50], b.times[:50])


def test_burn_in_shifts_origin():
    cfg = SimConfig(SPEC124, seed=5, duration=500.0, burn_in=50.0)
    stream = simulate(cfg)
    times, _ = stream.merged()
    assert times[0] > 0
    assert times[-1] <= 500.0
    assert stream.total_duration == 500.0


def _ring(stream):
    """The plain (times, first label, N, T) that the oracles take."""
    return stream.times, stream.first_label, stream.n_levels, stream.total_duration


def test_dwell_marginals_pass_ks(subtests=None):
    stream = simulate(SimConfig(SPEC124, seed=21, total_events=330_000))
    durations, levels = dwell_segments(*_ring(stream))
    for level, rate in enumerate(SPEC124.rates):
        # the two censored end segments are not dwells
        dwell = durations[1:-1][levels[1:-1] == level][:100_000]
        assert len(dwell) >= 100_000
        res = stats.kstest(dwell, "expon", args=(0, 1 / rate))
        assert res.pvalue > 1e-3, f"level {level}: KS p={res.pvalue}"


def test_occupancy_equal_rates():
    stream = simulate(SimConfig(CascadeSpec.equal(5, 1.0), seed=2, duration=1e6))
    occ = time_weighted_occupancy(*_ring(stream))
    blocks = occupancy_block_estimates(*_ring(stream), n_blocks=100)
    sem = blocks.std(axis=0, ddof=1) / np.sqrt(100)
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(occ - 0.2) <= 3 * sem)


def test_occupancy_unbalanced_rates():
    stream = simulate(SimConfig(SPEC124, seed=4, duration=1e6))
    occ = time_weighted_occupancy(*_ring(stream))
    blocks = occupancy_block_estimates(*_ring(stream), n_blocks=100)
    sem = blocks.std(axis=0, ddof=1) / np.sqrt(100)
    np.testing.assert_array_less(np.abs(occ - [4 / 7, 2 / 7, 1 / 7]), 3 * sem)


def test_occupancy_single_level():
    stream = simulate(SimConfig(CascadeSpec(1, (1.0,)), seed=1, duration=100.0))
    occ = time_weighted_occupancy(*_ring(stream))
    assert occ.tolist() == [1.0]


def test_occupancy_requires_all_levels_visited():
    # a 40-level ring observed for a fraction of one cycle misses levels
    spec = CascadeSpec.equal(40, 1.0)
    stream = simulate(SimConfig(spec, seed=1, total_events=5, initial_level=0))
    with pytest.raises(ValueError, match="levels never visited"):
        time_weighted_occupancy(*_ring(stream))


def test_stationary_draw_is_unbiased_without_burn_in():
    # occupancy probed right after t = 0 matches the steady state when the
    # initial level is drawn from it, so no burn-in is needed
    spec = SPEC124
    probe_t = 0.3
    counts = np.zeros(3)
    n_traj = 1000
    for traj in range(n_traj):
        cfg = SimConfig(spec, seed=traj, total_events=8)
        times, labels = simulate(cfg).merged()
        before = np.searchsorted(times, probe_t)
        if before == 0:
            level = labels[0]  # still in the initial level, about to emit
        else:
            level = (labels[before - 1] - 1) % 3
        counts[level] += 1
    occ = counts / n_traj
    expected = np.array([4 / 7, 2 / 7, 1 / 7])
    sigma = np.sqrt(expected * (1 - expected) / n_traj)
    np.testing.assert_array_less(np.abs(occ - expected), 3 * sigma)


def test_text_round_trip(tmp_path):
    stream = simulate(SimConfig(SPEC124, seed=8, total_events=5000))
    path = tmp_path / "events.txt"
    write_events_text(stream, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# cascade-events v1 N=3 seed=8 T=")
    again = read_events_text(path)
    assert again.total_duration == stream.total_duration
    assert again.first_label == stream.first_label
    assert np.array_equal(again.times, stream.times)


def test_binary_round_trip(tmp_path):
    stream = simulate(SimConfig(SPEC124, seed=8, total_events=5000))
    path = tmp_path / "events.bin"
    write_events_binary(stream, path)
    again = read_events_binary(path)
    assert again.total_duration == stream.total_duration
    assert again.first_label == stream.first_label
    assert np.array_equal(again.times, stream.times)  # bit-exact

    # and the round trip re-serializes to identical bytes
    path2 = tmp_path / "events2.bin"
    write_events_binary(again, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("fields", ["N=3 T=10", "N=3 seed=0"])
def test_text_header_missing_field_rejected(tmp_path, fields):
    path = tmp_path / "events.txt"
    path.write_text(f"# cascade-events v1 {fields}\n0.5 2\n0.9 1\n1.4 0\n")
    with pytest.raises(StreamInvariantViolation):
        read_events_text(path)


def test_text_fractional_labels_rejected(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("# cascade-events v1 N=3 seed=0 T=10\n0.5 2.7\n1.0 1.2\n1.5 0.5\n2.0 2\n")
    with pytest.raises(StreamInvariantViolation, match="whole numbers"):
        read_events_text(path)


# a whole read, then the estimator's pair and subset of the file read block by block
SELECTIONS = [None, (1, 1), SubsetSpec((2, 0))]


def _read_selected(read, path, selection):
    return read(path) if selection is None else _correlate_file(path, selection)


@pytest.mark.parametrize("kept_bytes", [20, 100], ids=["header", "records"])
def test_truncated_binary_rejected(tmp_path, kept_bytes):
    path = tmp_path / "events.bin"
    write_events_binary(simulate(SimConfig(SPEC124, seed=8, total_events=50)), path)
    path.write_bytes(path.read_bytes()[:kept_bytes])
    for selection in SELECTIONS:
        with pytest.raises(StreamInvariantViolation):
            _read_selected(read_events_binary, path, selection)


def test_binary_without_levels_or_events_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"CEV2" + struct.pack("<IIQdQ", 0, 0, 0, 10.0, 0))
    with pytest.raises(StreamInvariantViolation):
        read_events_binary(path)


def test_binary_layout_is_header_plus_raw_times(tmp_path):
    stream = simulate(SimConfig(SPEC124, seed=8, total_events=50, initial_level=1))
    path = tmp_path / "events.bin"
    write_events_binary(stream, path)
    data = path.read_bytes()
    assert len(data) == 36 + 8 * stream.n_events
    header = struct.unpack("<4sIIQdQ", data[:36])
    assert header == (b"CEV2", 3, stream.first_label, 8, stream.total_duration, 50)
    assert data[36:] == stream.times.tobytes()


def _header_with_first_label(data: bytes, first: int) -> bytes:
    return data[:8] + struct.pack("<I", first) + data[12:]


@pytest.mark.parametrize(
    "damage",
    [lambda d: d + b"\0", lambda d: _header_with_first_label(d, 3), lambda d: d[:-1],
     lambda d: d[:28] + struct.pack("<Q", 0)],
    ids=["trailing byte", "first label >= N", "short body", "no events"],
)
def test_damaged_binary_rejected(tmp_path, damage):
    path = tmp_path / "events.bin"
    write_events_binary(simulate(SimConfig(SPEC124, seed=8, total_events=50)), path)
    path.write_bytes(damage(path.read_bytes()))
    for selection in SELECTIONS:
        with pytest.raises(StreamInvariantViolation):
            _read_selected(read_events_binary, path, selection)


def test_binary_round_trips_rings_beyond_u16_labels(tmp_path):
    # the ring stores no per-event label, so any N below 2**32 fits the binary format
    stream = EventStream(np.arange(1.0, 101.0), 69_990, 70_000, 200.0, seed=3)
    path = tmp_path / "big.events"
    write_events_binary(stream, path)
    again = read_events_binary(path)
    assert (again.n_levels, again.first_label, again.seed) == (70_000, 69_990, 3)
    assert np.array_equal(again.times, stream.times)


@pytest.mark.parametrize("header, message", [
    ({"n_levels": 2**32}, r"N = 4294967296 outside \[1, 2\*\*32\)"),
    ({"n_levels": 0}, r"N = 0 outside \[1, 2\*\*32\)"),
    ({"seed": -1}, r"seed must be in \[0, 2\*\*64\)"),
    ({"seed": 2**64}, r"seed must be in \[0, 2\*\*64\)"),
    ({"first_label": 3}, r"first label 3 outside \[0, N\)"),
    ({"total_duration": np.nan}, "total_duration must be finite"),
])
def test_a_stream_header_outside_the_binary_format_is_rejected(header, message):
    fields = {"first_label": 0, "n_levels": 3, "total_duration": 10.0, "seed": None, **header}
    with pytest.raises(StreamInvariantViolation, match=message):
        EventStream(np.array([1.0, 2.0]), **fields)


@pytest.mark.parametrize("n_levels, seed", [(2**32, 0), (3, 2**64), (3, -1)])
def test_a_header_the_binary_format_cannot_hold_leaves_no_file(tmp_path, n_levels, seed):
    # no EventStream holds such a header (above); a stand-in that does
    # fails when the header is packed, after the body, and leaves no file
    path = tmp_path / "run.events"
    broken = mock.Mock(n_levels=n_levels, first_label=0, seed=seed, total_duration=3.0,
                       times=np.array([1.0, 2.0]))
    with pytest.raises(struct.error):
        write_events_binary(broken, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fields, message", [
    ("N=99999999999999999999 seed=0 T=10", r"N = 99999999999999999999 outside \[1, 2\*\*32\)"),
    ("N=4294967296 seed=0 T=10", r"N = 4294967296 outside \[1, 2\*\*32\)"),
    (f"N={10**400} seed=0 T=10", r"outside \[1, 2\*\*32\)"),
    ("N=3 seed=-1 T=10", r"seed must be in \[0, 2\*\*64\), got -1"),
    ("N=3 seed=18446744073709551616 T=10", r"seed must be in \[0, 2\*\*64\)"),
    ("N=3 seed=0 T=nan", "total_duration must be finite"),
], ids=["N 1e20", "N 2**32", "N 1e400", "seed -1", "seed 2**64", "T nan"])
def test_a_text_header_outside_the_binary_format_exits_4(tmp_path, capsys, fields, message):
    path = tmp_path / "run.txt"
    path.write_text(f"# cascade-events v1 {fields}\n0.5 2\n0.9 1\n1.4 0\n")
    for selection in SELECTIONS:
        with pytest.raises(StreamInvariantViolation, match=message):
            _read_selected(read_events_text, path, selection)
    out = tmp_path / "run.bin"
    argv = ["correlate", "--in", str(path), "--pair", "1,1", "--bin", "0.1", "--taumax", "0.2",
            "--out", str(out)]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _damaged_copies(data: bytes):
    """Every truncation and every single-bit flip of `data`."""
    for cut in range(len(data)):
        yield data[:cut]
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)


# numpy warns about an empty event block and about inf - inf on its way to
# the error the reader raises
@pytest.mark.filterwarnings("ignore:loadtxt", "ignore:invalid value")
@pytest.mark.parametrize(
    "write, read",
    [(write_events_binary, read_events_binary), (write_events_text, read_events_text)],
    ids=["binary", "text"],
)
def test_damaged_stream_files_raise_only_cascade_errors(tmp_path, write, read):
    path = tmp_path / "events"
    write(simulate(SimConfig(SPEC124, seed=8, total_events=12)), path)
    for damaged in _damaged_copies(path.read_bytes()):
        path.write_bytes(damaged)
        for selection in SELECTIONS:
            try:
                _read_selected(read, path, selection)
            except CascadeError:
                pass


@st.composite
def _damaged_stream_files(draw):
    """(writer, bytes) of a stream file on SPEC124's ring: a valid file of
    up to 40 events, or its header and arbitrary bytes, and then a run of
    arbitrary bytes written over or spliced in anywhere, header included."""
    write = draw(st.sampled_from([write_events_binary, write_events_text]))
    events = draw(st.integers(1, 40))
    times = np.cumsum(np.random.default_rng(events).uniform(0.5, 1.5, events))
    stream = EventStream(times, draw(st.integers(0, 2)), 3, float(times[-1]) + 10.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events")
        write(stream, path)
        with open(path, "rb") as fh:
            data = fh.read()
    if draw(st.booleans()):
        body = draw(st.binary(max_size=400)
                    | st.text(" \t\n#.+-0123456789aefin", max_size=400).map(str.encode))
        if write is write_events_binary:  # with a count that fits, the body reaches the blocks
            body = body[:len(body) // 8 * 8]
            data = data[:28] + struct.pack("<Q", len(body) // 8) + body
        else:
            data = data[:data.index(b"\n") + 1] + body
    at = draw(st.integers(0, len(data)))
    junk = draw(st.binary(max_size=24))
    # writing over keeps a binary body's size, so the damage reaches its blocks
    end = at + len(junk) if draw(st.booleans()) else draw(st.integers(at, len(data)))
    return write, data[:at] + junk + data[end:]


# numpy warns about an empty event block and about inf - inf on its way to
# the error the reader raises
@pytest.mark.filterwarnings("ignore:loadtxt", "ignore:invalid value")
@settings(max_examples=300, deadline=None)
@given(damaged=_damaged_stream_files(), block=st.sampled_from([1, 4, 64]))
def test_arbitrary_bytes_raise_only_cascade_errors_at_any_block_seam(damaged, block):
    write, data = damaged
    read = read_events_binary if write is write_events_binary else read_events_text
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(stochastic, "_READ_BLOCK", block):
        path = os.path.join(tmp, "events")
        with open(path, "wb") as fh:
            fh.write(data)
        for selection in SELECTIONS:
            try:
                _read_selected(read, path, selection)
            except CascadeError:
                pass


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# integers of any size, the u32 and u64 limits and past them included
_INTEGERS = st.one_of(st.integers(-2**70, 2**70), st.sampled_from(
    [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, -1, 10**30, 10**400]))


@st.composite
def _stream_files(draw):
    """The bytes of a stream file: a valid header of either format, or a
    random one, then the valid body or arbitrary bytes."""
    binary = draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events")
        (write_events_binary if binary else write_events_text)(
            EventStream(np.arange(1.0, 4.0), 2, 3, 10.0, seed=1), path)
        with open(path, "rb") as fh:
            data = fh.read()
    cut = 36 if binary else data.index(b"\n") + 1
    header, body = data[:cut], data[cut:]
    if draw(st.booleans()):  # a random header
        if binary:
            n, first = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
            seed, total = draw(st.integers(0, 2**64 - 1)), draw(_FLOATS)
            count = draw(st.integers(0, 2**64 - 1))
            header = b"CEV2" + struct.pack("<IIQdQ", n, first, seed, total, count)
        else:
            n, seed, total = draw(_INTEGERS), draw(_INTEGERS), draw(_FLOATS)
            header = f"# cascade-events v1 N={n} seed={seed} T={total!r}\n".encode()
    body = draw(st.just(body) | st.binary(max_size=200)
                | st.text(" \t\n#.+-0123456789aefin", max_size=200).map(str.encode))
    if binary and draw(st.booleans()):  # a count that fits the body reaches the blocks
        body = body[:len(body) // 8 * 8]
        header = header[:28] + struct.pack("<Q", len(body) // 8)
    return header + body


# numpy warns about an empty event block and about inf - inf on its way to
# the error the reader raises
@pytest.mark.filterwarnings("ignore:loadtxt", "ignore:invalid value")
@settings(max_examples=300, deadline=None)
@given(data=_stream_files(), block=st.sampled_from([1, 4, 64]))
def test_drained_blocks_of_any_header_and_bytes_raise_only_cascade_errors(data, block):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(stochastic, "_READ_BLOCK", block):
        path = os.path.join(tmp, "events")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            for _ in read_event_blocks(path)[2]:
                pass
        except CascadeError:
            pass
