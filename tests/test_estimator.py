import numpy as np
import pytest

from circascade import (
    CascadeSpec,
    ConfigInvalid,
    EventStream,
    InsufficientSamples,
    HistogramConfig,
    SimConfig,
    SubsetSpec,
    block_bootstrap_stderr,
    correlate,
    correlate_subset,
    g2_equal,
    g2_equal_pair,
    simulate,
    write_trace_csv,
)


def make_stream(n=6, gamma=1.0, events=200_000, seed=0):
    return simulate(
        SimConfig(CascadeSpec.equal(n, gamma), seed=seed, total_events=events)
    )


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        HistogramConfig(0.0, 1.0)
    with pytest.raises(ConfigInvalid):
        HistogramConfig(0.5, 0.2)
    stream = make_stream(events=2000)
    with pytest.raises(ConfigInvalid):
        correlate(stream, HistogramConfig(0.5, stream.total_duration / 2, channels=(1, 1)))
    with pytest.raises(ConfigInvalid):
        correlate(stream, HistogramConfig(0.5, 5.0))  # channels missing
    with pytest.raises(ConfigInvalid):
        correlate(stream, HistogramConfig(0.5, 5.0, channels=(0, 7)))


@pytest.mark.parametrize(
    "bin_width, tau_max", [(np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)]
)
def test_non_finite_bins_rejected(bin_width, tau_max):
    with pytest.raises(ConfigInvalid, match="must be finite"):
        HistogramConfig(bin_width, tau_max)


def test_bootstrap_rejects_out_of_range_pair():
    stream = make_stream(n=3, events=3000)
    with pytest.raises(ConfigInvalid, match=r"channel pair \(0, 5\) outside \[0, 3\)"):
        block_bootstrap_stderr(stream, HistogramConfig(0.1, 1.0, channels=(0, 5)))


def test_empty_channel_rejected():
    # fewer events than levels: channel 0 never fires
    stream = EventStream.from_labels([0.5, 1.5], [2, 1], 3, 100.0)
    with pytest.raises(InsufficientSamples, match="channel 0 has no events"):
        correlate(stream, HistogramConfig(0.1, 1.0, channels=(0, 1)))


def test_subset_of_a_short_stream_rejects_its_empty_channel():
    stream = EventStream.from_labels([0.5, 1.5], [2, 1], 3, 100.0)
    with pytest.raises(InsufficientSamples, match="channel 0"):
        correlate_subset(stream, SubsetSpec((0, 1)), HistogramConfig(0.1, 1.0))


def test_poisson_stream_is_flat():
    stream = simulate(
        SimConfig(CascadeSpec(1, (1.0,)), seed=13, total_events=400_000)
    )
    trace = correlate(stream, HistogramConfig(0.5, 20.0, channels=(0, 0)))
    pulls = (trace.values - 1.0) / trace.stderr
    assert np.all(np.abs(pulls) < 3.5)
    assert np.mean(np.abs(pulls) < 3.0) >= 0.99


def test_autocorrelation_matches_analytic_within_3sigma():
    stream = make_stream(n=6, events=1_000_000, seed=5)
    trace = correlate(stream, HistogramConfig(0.1, 12.0, channels=(1, 1)))
    analytic = g2_equal_pair(6, 1, 1, 1.0, trace.tau)
    pulls = (trace.values - analytic) / trace.stderr
    assert np.mean(np.abs(pulls) < 3.0) >= 0.99


def test_time_reversal_is_exact():
    stream = make_stream(n=4, events=60_000, seed=9)
    cfg_mn = HistogramConfig(0.2, 6.0, channels=(2, 1))
    cfg_nm = HistogramConfig(0.2, 6.0, channels=(1, 2))
    fwd = correlate(stream, cfg_mn)
    rev = correlate(stream, cfg_nm)
    np.testing.assert_array_equal(fwd.values, rev.values[::-1])
    np.testing.assert_array_equal(fwd.tau, -rev.tau[::-1])


def test_subset_of_one_equals_autocorrelation():
    stream = make_stream(n=5, events=60_000, seed=2)
    cfg = HistogramConfig(0.2, 8.0)
    sub = correlate_subset(stream, SubsetSpec((3,)), cfg)
    auto = correlate(stream, HistogramConfig(0.2, 8.0, channels=(3, 3)))
    np.testing.assert_array_equal(sub.values, auto.values)


def test_subset_equals_weighted_pairwise_sum():
    # with the merged-rate normalization the subset estimate is exactly the
    # rate-weighted average of the pairwise estimates
    stream = make_stream(n=6, events=80_000, seed=4)
    members = (1, 2, 4)
    cfg = HistogramConfig(0.25, 6.0)
    sub = correlate_subset(stream, SubsetSpec(members), cfg)
    t_total = stream.total_duration
    r_merged = sum(len(stream.channels[i]) for i in members) / t_total
    acc = np.zeros_like(sub.values)
    for i in members:
        for j in members:
            pair = correlate(stream, HistogramConfig(0.25, 6.0, channels=(i, j)))
            r_i = len(stream.channels[i]) / t_total
            r_j = len(stream.channels[j]) / t_total
            acc += pair.values * (r_i * r_j)
    np.testing.assert_allclose(acc / r_merged ** 2, sub.values, rtol=1e-12)


def test_normalization_sanity_far_tail():
    stream = make_stream(n=3, events=400_000, seed=6)
    trace = correlate(stream, HistogramConfig(0.5, 40.0, channels=(1, 1)))
    tail = np.abs(trace.tau) > 30.0
    pulls = (trace.values[tail] - 1.0) / trace.stderr[tail]
    assert np.mean(np.abs(pulls) < 3.0) >= 0.95


def test_global_time_shift_invariance():
    stream = make_stream(n=4, events=50_000, seed=8)
    times, labels = stream.merged()
    shifted = EventStream.from_labels(
        times + 123.456,
        labels,
        stream.n_levels,
        stream.total_duration,
        seed=stream.seed,
        spec=stream.spec,
    )
    cfg = HistogramConfig(0.2, 5.0, channels=(1, 2))
    a = correlate(stream, cfg)
    b = correlate(shifted, cfg)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-12)


def test_bias_bound_over_seeds():
    n, gamma, n_seeds = 5, 1.0, 30
    cfg = HistogramConfig(0.1, 8.0, channels=(1, 1))
    traces = []
    for seed in range(n_seeds):
        stream = make_stream(n=n, events=150_000, seed=seed)
        traces.append(correlate(stream, cfg).values)
    traces = np.array(traces)
    mean = traces.mean(axis=0)
    sem = traces.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    tau = correlate(make_stream(n=n, events=2000, seed=0), HistogramConfig(0.1, 8.0, channels=(1, 1))).tau
    analytic = g2_equal_pair(n, 1, 1, gamma, tau)
    slope = np.gradient(analytic, tau)
    bound = np.maximum(3 * sem, 0.5 * np.abs(slope) * cfg.bin_width)
    assert np.all(np.abs(mean - analytic) <= bound + 1e-12)


def test_subset_superbunching_spike_n50():
    stream = make_stream(n=50, events=1_000_000, seed=12)
    cfg = HistogramConfig(0.05, 2.0)
    trace = correlate_subset(stream, SubsetSpec((1, 2)), cfg)
    spike = trace.values[np.searchsorted(trace.tau, 0.025)]
    err = trace.stderr[np.searchsorted(trace.tau, 0.025)]
    # bin-averaged center value; 12.5 is the tau = 0 limit
    assert abs(spike - 12.5) < 3 * err + 0.5


def test_random_subset_keeps_temporal_gap_n50():
    stream = make_stream(n=50, events=1_000_000, seed=14)
    members = (7, 19, 30, 44)
    trace = correlate_subset(stream, SubsetSpec(members), HistogramConfig(0.1, 2.0))
    central = np.abs(trace.tau) <= 0.2
    assert np.all(trace.values[central] < 0.5)


def test_first_oscillation_peak_resolved():
    stream = make_stream(n=6, events=2_000_000, seed=15)
    trace = correlate(stream, HistogramConfig(0.05, 15.0, channels=(1, 1)))
    window = (trace.tau > 4.0) & (trace.tau < 8.0)
    assert trace.values[window].max() > 1.05


def test_block_bootstrap_stderr_is_consistent():
    stream = make_stream(n=3, events=200_000, seed=3)
    cfg = HistogramConfig(0.5, 10.0, channels=(1, 1))
    trace = correlate(stream, cfg)
    boot = block_bootstrap_stderr(stream, cfg, n_blocks=20, n_boot=100, seed=1)
    ratio = boot / trace.stderr
    # same order of magnitude; bootstrap sees the count correlations
    assert np.median(ratio) == pytest.approx(1.0, abs=0.5)


def test_trace_csv_format(tmp_path):
    stream = make_stream(n=3, events=20_000, seed=1)
    trace = correlate(stream, HistogramConfig(0.5, 5.0, channels=(0, 1)))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,g2,stderr"
    assert len(lines) == 1 + len(trace.tau)
    cols = lines[1].split(",")
    assert float(cols[0]) == trace.tau[0]
    assert float(cols[1]) == trace.values[0]
