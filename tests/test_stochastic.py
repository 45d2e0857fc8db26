import struct

import numpy as np
import pytest
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
    cfg = SimConfig(CascadeSpec.equal(3, 1.0), seed=1, **stop, **{field: value})
    with pytest.raises(ConfigInvalid, match=f"{field} must be finite"):
        simulate(cfg)


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


def test_different_trajectory_different_stream():
    base = SimConfig(SPEC124, seed=99, total_events=1000)
    other = SimConfig(SPEC124, seed=99, total_events=1000, trajectory=1)
    a, b = simulate(base), simulate(other)
    assert not np.array_equal(a.channels[0][:50], b.channels[0][:50])


def test_burn_in_shifts_origin():
    cfg = SimConfig(SPEC124, seed=5, duration=500.0, burn_in=50.0)
    stream = simulate(cfg)
    times, _ = stream.merged()
    assert times[0] > 0
    assert times[-1] <= 500.0
    assert stream.total_duration == 500.0


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
        cfg = SimConfig(spec, seed=77, total_events=8, trajectory=traj)
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


@pytest.mark.parametrize("kept_bytes", [20, 100], ids=["header", "records"])
def test_truncated_binary_rejected(tmp_path, kept_bytes):
    path = tmp_path / "events.bin"
    write_events_binary(simulate(SimConfig(SPEC124, seed=8, total_events=50)), path)
    path.write_bytes(path.read_bytes()[:kept_bytes])
    with pytest.raises(StreamInvariantViolation):
        read_events_binary(path)


def test_binary_without_levels_or_events_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"CEV1" + struct.pack("<IQdQ", 0, 0, 10.0, 0))
    with pytest.raises(StreamInvariantViolation):
        read_events_binary(path)


def test_binary_rejects_rings_beyond_u16_labels(tmp_path):
    stream = EventStream(np.arange(1.0, 101.0), 0, 70_000, 200.0)
    path = tmp_path / "big.events"
    with pytest.raises(ConfigInvalid, match="--format text"):
        write_events_binary(stream, path)
    assert not path.exists()


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
        try:
            read(path)
        except CascadeError:
            pass
