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
    InsufficientSamples,
    SimConfig,
    StreamInvariantViolation,
    dwell_samples,
    occupancy_block_estimates,
    occupancy_estimate,
    read_events_binary,
    read_events_text,
    simulate,
    time_weighted_occupancy,
    write_events_binary,
    write_events_text,
)
from circascade import cli, stochastic

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
    current = SPEC124.cycle_current  # 4/7 per unit time
    for count in stream.counts:
        expected = current * stream.total_duration
        assert abs(count - expected) < 3 * np.sqrt(expected)


def test_determinism_bit_identical(tmp_path):
    cfg = SimConfig(SPEC124, seed=99, total_events=50_000)
    a, b = simulate(cfg), simulate(cfg)
    for ca, cb in zip(a.channels, b.channels):
        assert np.array_equal(ca, cb)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    write_events_binary(a, pa)
    write_events_binary(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_chunking_never_changes_the_stream():
    # a short run must be a prefix of a longer run with the same key, even
    # though the two use different internal chunk sizes
    short = simulate(SimConfig(SPEC124, seed=31, total_events=50))
    long = simulate(SimConfig(SPEC124, seed=31, total_events=60_000))
    ts, _ = short.merged()
    tl, _ = long.merged()
    assert np.array_equal(ts, tl[: len(ts)])


# sha256 of times.tobytes() recorded before simulate wrote into one buffer:
# a 1e12:1 rate spread rounds every fast dwell away, so about half the
# stamps collide and are nudged, in runs that cross the nudge's block edges
FROZEN_NUDGED = {
    "total_events": (
        SimConfig(CascadeSpec(2, (1e-12, 1e12)), seed=4, total_events=3 * 2**20 + 5),
        "4db312706506dc80c51febc53bbc96e39deca248f570cefe5879787cc238be37",
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


# every run crosses chunk seams (chunks hold at most 2^19 draws)
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


def test_simulate_without_events_exits_5_and_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "none.events"
    argv = ["simulate", "--n", "3", "--gamma", "1e-9", "--duration", "1e-6", "--out", str(out)]
    assert cli.main(argv) == 5
    assert capsys.readouterr().err == "error: no events recorded; increase duration\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_binary_write_keeps_the_old_file_and_leaves_no_other(tmp_path):
    path = tmp_path / "run.events"
    write_events_binary(EventStream(np.array([1.0, 2.0]), 0, 2, 3.0), path)
    before = path.read_bytes()
    # times that cannot become f64 fail after the file is opened
    broken = mock.Mock(n_levels=2, first_label=0, seed=None, total_duration=3.0, n_events=1,
                       times=np.array(["x"], dtype=object))
    with pytest.raises(ValueError):
        write_events_binary(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_cli_simulate_holds_well_under_one_copy_of_the_stream(tmp_path):
    # every chunk is drawn into one buffer of at most stochastic._CHUNK draws
    # and written as drawn, and the collision check scans it in blocks, so
    # the peak does not grow with the event count: measured the buffer plus
    # 0.25 MB
    for n_events in (1_000_000, 4_000_000):
        argv = ["simulate", "--n", "6", "--events", str(n_events), "--seed", "3",
                "--out", str(tmp_path / "run.events")]
        code, peak = _traced_peak(lambda: cli.main(argv))
        assert code == 0 and peak <= 8 * stochastic._CHUNK + (1 << 19), n_events


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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), data=st.data())
def test_selected_reads_equal_a_full_read_then_the_same_gather(n, data):
    events = data.draw(st.integers(1, 3 * n + 40), label="events")
    first = data.draw(st.integers(0, n - 1), label="first")
    levels = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="levels")
    block = data.draw(st.sampled_from([1, 7, 64, stochastic._READ_BLOCK]), label="block")
    times = np.cumsum(np.random.default_rng(events).uniform(0.5, 1.5, events))
    stream = EventStream(times, first, n, float(times[-1]) + 1.0, seed=5)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(stochastic, "_READ_BLOCK", block):
        path = os.path.join(tmp, "events")
        for write, read in ((write_events_binary, read_events_binary),
                            (write_events_text, read_events_text)):
            write(stream, path)
            full = read(path).select(levels)
            part = read(path, levels)
            assert (part.n_levels, part.first_label, part.total_duration, part.seed) == (
                full.n_levels, full.first_label, full.total_duration, full.seed)
            assert np.array_equal(part.times, full.times)


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
                read_events_binary(path, [1])


def test_selected_read_validates_the_whole_file(tmp_path):
    # level 1 has no event, but the file has one: not "no events" but an
    # empty channel, and a span past T fails whatever the selection
    path = tmp_path / "events.bin"
    write_events_binary(EventStream(np.array([1.0]), 2, 3, 10.0), path)
    assert read_events_binary(path, [1]).n_events == 0
    write_events_binary(EventStream(np.array([1.0, 2.0, 30.0]), 2, 3, 10.0), path)
    with pytest.raises(StreamInvariantViolation, match="span"):
        read_events_binary(path, [1])


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
    assert not np.array_equal(a.channels[0][:50], b.channels[0][:50])


def test_burn_in_shifts_origin():
    cfg = SimConfig(SPEC124, seed=5, duration=500.0, burn_in=50.0)
    stream = simulate(cfg)
    times, _ = stream.merged()
    assert times[0] > 0
    assert times[-1] <= 500.0
    assert stream.total_duration == 500.0


@pytest.mark.parametrize("level", [-1, 3])
def test_dwell_samples_rejects_a_level_outside_the_ring(level):
    stream = simulate(SimConfig(SPEC124, seed=21, total_events=100))
    with pytest.raises(ConfigInvalid, match=f"level {level} outside"):
        dwell_samples(stream, level)


def test_dwell_marginals_pass_ks(subtests=None):
    stream = simulate(SimConfig(SPEC124, seed=21, total_events=330_000))
    for level, rate in enumerate(SPEC124.rates):
        dwell = dwell_samples(stream, level)[:100_000]
        assert len(dwell) >= 100_000
        res = stats.kstest(dwell, "expon", args=(0, 1 / rate))
        assert res.pvalue > 1e-3, f"level {level}: KS p={res.pvalue}"


def test_occupancy_equal_rates():
    stream = simulate(SimConfig(CascadeSpec.equal(5, 1.0), seed=2, duration=1e6))
    occ = time_weighted_occupancy(stream)
    blocks = occupancy_block_estimates(stream, n_blocks=100)
    sem = blocks.std(axis=0, ddof=1) / np.sqrt(100)
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(occ - 0.2) <= 3 * sem)


def test_occupancy_unbalanced_rates():
    occ = occupancy_estimate(SimConfig(SPEC124, seed=4, duration=1e6))
    stream = simulate(SimConfig(SPEC124, seed=4, duration=1e6))
    blocks = occupancy_block_estimates(stream, n_blocks=100)
    sem = blocks.std(axis=0, ddof=1) / np.sqrt(100)
    np.testing.assert_array_less(np.abs(occ - [4 / 7, 2 / 7, 1 / 7]), 3 * sem)


def test_occupancy_single_level():
    occ = occupancy_estimate(SimConfig(CascadeSpec(1, (1.0,)), seed=1, duration=100.0))
    assert occ.tolist() == [1.0]


def test_occupancy_requires_all_levels_visited():
    # a 40-level ring observed for a fraction of one cycle misses levels
    spec = CascadeSpec.equal(40, 1.0)
    stream = simulate(SimConfig(spec, seed=1, total_events=5, initial_level=0))
    with pytest.raises(InsufficientSamples):
        time_weighted_occupancy(stream)


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
    for ca, cb in zip(stream.channels, again.channels):
        assert np.array_equal(ca, cb)


def test_binary_round_trip(tmp_path):
    stream = simulate(SimConfig(SPEC124, seed=8, total_events=5000))
    path = tmp_path / "events.bin"
    write_events_binary(stream, path)
    again = read_events_binary(path)
    assert again.total_duration == stream.total_duration
    for ca, cb in zip(stream.channels, again.channels):
        assert np.array_equal(ca, cb)  # bit-exact

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


SELECTIONS = [None, [1], [2, 0]]


@pytest.mark.parametrize("kept_bytes", [20, 100], ids=["header", "records"])
def test_truncated_binary_rejected(tmp_path, kept_bytes):
    path = tmp_path / "events.bin"
    write_events_binary(simulate(SimConfig(SPEC124, seed=8, total_events=50)), path)
    path.write_bytes(path.read_bytes()[:kept_bytes])
    for levels in SELECTIONS:
        with pytest.raises(StreamInvariantViolation):
            read_events_binary(path, levels)


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
    for levels in SELECTIONS:
        with pytest.raises(StreamInvariantViolation):
            read_events_binary(path, levels)


def test_binary_round_trips_rings_beyond_u16_labels(tmp_path):
    # the ring stores no per-event label, so any N fits the binary format
    stream = EventStream(np.arange(1.0, 101.0), 69_990, 70_000, 200.0, seed=3)
    path = tmp_path / "big.events"
    write_events_binary(stream, path)
    again = read_events_binary(path)
    assert (again.n_levels, again.first_label, again.seed) == (70_000, 69_990, 3)
    assert np.array_equal(again.times, stream.times)


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
        for levels in SELECTIONS:
            try:
                read(path, levels)
            except CascadeError:
                pass
