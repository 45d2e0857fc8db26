import hashlib
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circascade import (
    CascadeSpec,
    ConfigInvalid,
    EventStream,
    InsufficientSamples,
    HistogramConfig,
    SimConfig,
    StreamInvariantViolation,
    SubsetSpec,
    block_bootstrap_stderr,
    correlate,
    correlate_blocks,
    correlate_subset,
    g2_equal,
    g2_equal_pair,
    read_event_blocks,
    read_events_binary,
    simulate,
    write_events_binary,
    write_trace_csv,
)
from circascade import cli, stochastic
from circascade.estimator import _add_pairs, _gathered, _ring_pairs
from oracles import pair_histogram_bruteforce, selection_of


def _channel(stream, level):
    """The events of one level of a stream: a strided view of its ring."""
    return stream.times[(stream.first_label - level) % stream.n_levels::stream.n_levels]


def _pair_counts(src, dst, cfg, same_channel):
    """Histogram of the dst - src differences of two time-ordered runs, by
    ``_add_pairs`` in one segment of all of src, whose precondition holds
    for the first dst at or after src[0]."""
    hist = np.zeros((1, 2 * cfg.n_side), dtype=np.int64)
    _add_pairs(hist, src, dst, int(np.searchsorted(dst, src[0])), same_channel, cfg,
               (0, 0), [0, len(src)])
    return hist[0]


def make_stream(n=6, gamma=1.0, events=200_000, seed=0):
    return simulate(
        SimConfig(CascadeSpec.equal(n, gamma), seed=seed, total_events=events)
    )


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        HistogramConfig(0.0, 1.0)
    with pytest.raises(ConfigInvalid):
        HistogramConfig(0.5, 0.2)
    # bin counts that no int64 array can hold: an infinite ratio and 1e305
    for bin_width, tau_max in ((1e-300, 1e10), (1e-300, 1e5)):
        with pytest.raises(ConfigInvalid, match="bins per side"):
            HistogramConfig(bin_width, tau_max)
    stream = make_stream(events=2000)
    with pytest.raises(ConfigInvalid):
        correlate(stream, (1, 1), HistogramConfig(0.5, stream.total_duration / 2))
    with pytest.raises(ConfigInvalid):
        correlate(stream, (0, 7), HistogramConfig(0.5, 5.0))


def test_a_subset_of_the_whole_ring_is_counted_without_a_gather():
    stream = EventStream(np.arange(1.0, 13.0), 1, 4, 200.0)
    cfg = HistogramConfig(0.5, 2.0)
    expected = correlate_blocks([(1, stream.times)], 4, 200.0, cfg)
    with mock.patch("circascade.estimator._gathered", side_effect=AssertionError):
        trace = correlate_subset(stream, SubsetSpec((3, 0, 2, 1)), cfg)
    assert trace.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("levels", [[], [1, 1], [4], [-1], [0.5], 3, 2.5])
def test_correlate_blocks_rejects_a_subset_outside_the_ring(levels):
    with pytest.raises(ConfigInvalid):
        correlate_blocks([(1, np.arange(1.0, 13.0))], 4, 200.0, HistogramConfig(0.5, 2.0),
                         SubsetSpec(levels))


@pytest.mark.parametrize("total", ["x", np.nan, np.inf, 0.0], ids=repr)
def test_correlate_blocks_rejects_a_window_outside_the_domain(total):
    drawn = []
    blocks = (drawn.append(block) or block for block in [(1, np.arange(1.0, 13.0))])
    with pytest.raises(ConfigInvalid, match="total_duration"):
        correlate_blocks(blocks, 4, total, HistogramConfig(0.5, 2.0), (1, 1))
    assert len(drawn) == 1  # drawn to the end first, as for every invalid argument


@pytest.mark.parametrize(
    "bin_width, tau_max", [(np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)]
)
def test_non_finite_bins_rejected(bin_width, tau_max):
    with pytest.raises(ConfigInvalid, match="must be finite"):
        HistogramConfig(bin_width, tau_max)


BAD_PAIRS = [
    ((0, 5), "channel pair (0, 5) outside [0, 3)"),
    ((1.5, 1), "channel must be an integer, got 1.5"),
    ((True, 1), "channel must be an integer, got True"),
    ([1, 1], "pair must be a pair (m, n), got [1, 1]"),
    ((1,), "pair must be a pair (m, n), got (1,)"),
]


@pytest.mark.parametrize("pair, message", BAD_PAIRS, ids=[repr(p) for p, _ in BAD_PAIRS])
@pytest.mark.parametrize("estimate", [correlate, block_bootstrap_stderr],
                         ids=lambda f: f.__name__)
def test_bootstrap_rejects_out_of_range_pair(estimate, pair, message):
    # both estimators apply the one pair rule, with the same message
    stream = make_stream(n=3, events=3000)
    with pytest.raises(ConfigInvalid) as info:
        estimate(stream, pair, HistogramConfig(0.1, 1.0))
    assert str(info.value) == message


def test_empty_channel_rejected():
    # fewer events than levels: channel 0 never fires; the bootstrap names
    # its transition, 2, as the estimator does, and a stream without events too
    stream = EventStream.from_labels([0.5, 1.5], [2, 1], 3, 100.0)
    cfg = HistogramConfig(0.1, 1.0)
    for call in (correlate, block_bootstrap_stderr):
        with pytest.raises(InsufficientSamples, match="transition 2 has no events"):
            call(stream, selection_of((0, 1), 3), cfg)
    with pytest.raises(InsufficientSamples, match="transition 1 has no events"):
        block_bootstrap_stderr(EventStream(np.empty(0), 0, 3, 100.0), (1, 1), cfg)


IN_MEMORY_ESTIMATES = {
    "correlate": lambda stream, cfg: correlate(stream, (1, 1), cfg),
    "correlate_subset": lambda stream, cfg: correlate_subset(stream, SubsetSpec([1, 2]), cfg),
    "block_bootstrap_stderr": lambda stream, cfg: block_bootstrap_stderr(stream, (1, 1), cfg),
}


@pytest.mark.parametrize("estimate", IN_MEMORY_ESTIMATES.values(), ids=IN_MEMORY_ESTIMATES)
def test_in_memory_stream_obeys_the_window_rule(tmp_path, estimate):
    """A stream whose stamps span four times its window raises, as the same
    stamps read from a file do, instead of normalising by the wrong window."""
    ring = simulate(SimConfig(CascadeSpec.equal(3), seed=8, total_events=3000))
    short = EventStream(ring.times, ring.first_label, 3, ring.total_duration / 4)
    cfg = HistogramConfig(0.5, 5.0)
    estimate(ring, cfg)
    write_events_binary(short, tmp_path / "short.events")
    for make in (lambda: short, lambda: read_events_binary(tmp_path / "short.events")):
        with pytest.raises(StreamInvariantViolation, match="span more than total_duration"):
            estimate(make(), cfg)


def test_subset_of_a_short_stream_rejects_its_empty_channel():
    stream = EventStream.from_labels([0.5, 1.5], [2, 1], 3, 100.0)
    with pytest.raises(InsufficientSamples, match="transition 2"):
        correlate_subset(stream, SubsetSpec(selection_of((0, 1), 3)), HistogramConfig(0.1, 1.0))


def test_poisson_stream_is_flat():
    stream = simulate(
        SimConfig(CascadeSpec(1, (1.0,)), seed=13, total_events=400_000)
    )
    trace = correlate(stream, (0, 0), HistogramConfig(0.5, 20.0))
    pulls = (trace.values - 1.0) / trace.stderr
    assert np.all(np.abs(pulls) < 3.5)
    assert np.mean(np.abs(pulls) < 3.0) >= 0.99


def test_autocorrelation_matches_analytic_within_3sigma():
    stream = make_stream(n=6, events=1_000_000, seed=5)
    trace = correlate(stream, (1, 1), HistogramConfig(0.1, 12.0))
    analytic = g2_equal_pair(6, 1, 1, 1.0, trace.tau)
    pulls = (trace.values - analytic) / trace.stderr
    assert np.mean(np.abs(pulls) < 3.0) >= 0.99


def test_extreme_rates_estimate_within_3sigma():
    # (n / T)^2 overflows at 1e160 and underflows at 1e-200: the normalization
    # takes its times in units of the power of two at T
    for gamma in (1e160, 1e-200):
        stream = make_stream(n=2, gamma=gamma, events=1_000_000, seed=5)
        cfg = HistogramConfig(0.05 / gamma, 5 / gamma)
        trace = correlate(stream, (0, 1), cfg)
        pulls = (trace.values - g2_equal_pair(2, 0, 1, gamma, trace.tau)) / trace.stderr
        assert np.mean(np.abs(pulls) < 3.0) >= 0.99, gamma
        boot = block_bootstrap_stderr(stream, (0, 1), cfg, n_boot=20, seed=1)
        assert np.median(boot / trace.stderr) == pytest.approx(1.0, abs=0.5), gamma


def test_time_reversal_is_exact():
    stream = make_stream(n=4, events=60_000, seed=9)
    cfg = HistogramConfig(0.2, 6.0)
    fwd = correlate(stream, (2, 1), cfg)
    rev = correlate(stream, (1, 2), cfg)
    np.testing.assert_array_equal(fwd.values, rev.values[::-1])
    np.testing.assert_array_equal(fwd.tau, -rev.tau[::-1])


def test_subset_of_one_equals_autocorrelation():
    stream = make_stream(n=5, events=60_000, seed=2)
    cfg = HistogramConfig(0.2, 8.0)
    sub = correlate_subset(stream, SubsetSpec((3,)), cfg)
    auto = correlate(stream, (3, 3), cfg)
    np.testing.assert_array_equal(sub.values, auto.values)


def test_subset_equals_weighted_pairwise_sum():
    # with the merged-rate normalization the subset estimate is exactly the
    # rate-weighted average of the pairwise estimates
    stream = make_stream(n=6, events=80_000, seed=4)
    members = (1, 2, 4)
    cfg = HistogramConfig(0.25, 6.0)
    sub = correlate_subset(stream, SubsetSpec(selection_of(members, 6)), cfg)
    t_total = stream.total_duration
    r_merged = sum(len(_channel(stream, i)) for i in members) / t_total
    acc = np.zeros_like(sub.values)
    for i in members:
        for j in members:
            pair = correlate(stream, selection_of((i, j), 6), cfg)
            r_i = len(_channel(stream, i)) / t_total
            r_j = len(_channel(stream, j)) / t_total
            acc += pair.values * (r_i * r_j)
    np.testing.assert_allclose(acc / r_merged ** 2, sub.values, rtol=1e-12)


def test_normalization_sanity_far_tail():
    stream = make_stream(n=3, events=400_000, seed=6)
    trace = correlate(stream, (1, 1), HistogramConfig(0.5, 40.0))
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
    )
    cfg = HistogramConfig(0.2, 5.0)
    a = correlate(stream, (1, 2), cfg)
    b = correlate(shifted, (1, 2), cfg)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-12)


def test_bias_bound_over_seeds():
    n, gamma, n_seeds = 5, 1.0, 30
    cfg = HistogramConfig(0.1, 8.0)
    traces = []
    for seed in range(n_seeds):
        stream = make_stream(n=n, events=150_000, seed=seed)
        traces.append(correlate(stream, (1, 1), cfg).values)
    traces = np.array(traces)
    mean = traces.mean(axis=0)
    sem = traces.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    tau = correlate(make_stream(n=n, events=2000, seed=0), (1, 1), cfg).tau
    analytic = g2_equal_pair(n, 1, 1, gamma, tau)
    slope = np.gradient(analytic, tau)
    bound = np.maximum(3 * sem, 0.5 * np.abs(slope) * cfg.bin_width)
    assert np.all(np.abs(mean - analytic) <= bound + 1e-12)


def test_subset_merge_holds_only_the_merged_events():
    # the merge writes the subset's channels into one array, n_S / N of the stream
    n_events = 4_000_000
    stream = EventStream(np.arange(1.0, n_events + 1), 0, 6, n_events + 1.0)
    tracemalloc.start()
    try:
        correlate_subset(stream, SubsetSpec((1, 2)), HistogramConfig(0.5, 3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * n_events


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
    trace = correlate(stream, (1, 1), HistogramConfig(0.05, 15.0))
    window = (trace.tau > 4.0) & (trace.tau < 8.0)
    assert trace.values[window].max() > 1.05


def test_block_bootstrap_stderr_is_consistent():
    stream = make_stream(n=3, events=200_000, seed=3)
    cfg = HistogramConfig(0.5, 10.0)
    trace = correlate(stream, (1, 1), cfg)
    boot = block_bootstrap_stderr(stream, (1, 1), cfg, n_blocks=20, n_boot=100, seed=1)
    ratio = boot / trace.stderr
    # same order of magnitude; bootstrap sees the count correlations
    assert np.median(ratio) == pytest.approx(1.0, abs=0.5)


def test_trace_csv_format(tmp_path):
    stream = make_stream(n=3, events=20_000, seed=1)
    trace = correlate(stream, (0, 1), HistogramConfig(0.5, 5.0))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,g2,stderr"
    assert len(lines) == 1 + len(trace.tau)
    cols = lines[1].split(",")
    assert float(cols[0]) == trace.tau[0]
    assert float(cols[1]) == trace.values[0]


def _counts_of(trace, rate_src, rate_dst, t_total, cfg):
    """The integer counts behind an estimate of a window t_total: values
    times the normalization."""
    denom = rate_src * rate_dst * (t_total - np.abs(trace.tau)) * cfg.bin_width
    return np.rint(trace.values * denom).astype(np.int64)


@given(
    n=st.integers(1, 6),
    n_events=st.integers(1, 300),
    on_grid=st.booleans(),
    bin_width=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    n_side=st.integers(1, 12),
    first=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_pair_counts_match_the_bruteforce_oracle(
    n, n_events, on_grid, bin_width, n_side, first, seed
):
    # on the grid, times are whole multiples of the bin width, so differences
    # land exactly on bin edges and on +-W; channel lengths differ by one
    # whenever N does not divide n_events
    rng = np.random.default_rng(seed)
    if on_grid:
        times = np.cumsum(rng.integers(1, 4, n_events)) * bin_width
    else:
        times = np.cumsum(rng.exponential(bin_width * 2, n_events)) + rng.uniform(-50, 50)
    tau_max = n_side * bin_width
    t_total = max(float(times[-1] - times[0]), 10 * tau_max) + 1.0
    stream = EventStream(times, first % n, n, t_total)
    merged_times, labels = stream.merged()
    channel = [merged_times[labels == level] for level in range(n)]
    for m in range(n):
        for k in range(n):
            expect = pair_histogram_bruteforce(channel[m], channel[k], bin_width, n_side, m == k)
            if len(channel[m]):
                hist_cfg = HistogramConfig(bin_width, tau_max)
                got = _pair_counts(_channel(stream, m), _channel(stream, k), hist_cfg, m == k)
                np.testing.assert_array_equal(got, expect)
            if len(channel[m]) and len(channel[k]):
                trace = correlate(stream, selection_of((m, k), n), hist_cfg)
                rates = len(channel[m]) / t_total, len(channel[k]) / t_total
                np.testing.assert_array_equal(_counts_of(trace, *rates, t_total, hist_cfg), expect)

    members = tuple(sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False)))
    if all(len(channel[i]) for i in members):
        merged = np.sort(np.concatenate([channel[i] for i in members]))
        cfg = HistogramConfig(bin_width, tau_max)
        trace = correlate_subset(stream, SubsetSpec(selection_of(members, n)), cfg)
        rate = len(merged) / t_total
        np.testing.assert_array_equal(
            _counts_of(trace, rate, rate, t_total, cfg),
            pair_histogram_bruteforce(merged, merged, bin_width, n_side, True),
        )


def test_pair_counts_of_channel_slices_match_the_oracle():
    # the bootstrap's case: a block of one channel against a slice of another
    stream = make_stream(n=4, events=4000, seed=21)
    cfg = HistogramConfig(0.25, 3.0)
    for m, k in ((1, 1), (2, 0), (0, 3)):
        src, dst = _channel(stream, m)[200:500], _channel(stream, k)[190:520]
        np.testing.assert_array_equal(
            _pair_counts(src, dst, cfg, m == k),
            pair_histogram_bruteforce(src, dst, 0.25, cfg.n_side, m == k),
        )


def test_pairs_inside_the_window_but_outside_the_bins_are_dropped():
    # on a 0.1 grid, 1.8 - 0.7 lies inside fl(0.7 + W) for W = 1.1 but its
    # bin floor(1.1 / 0.1) + 11 rounds past the last one; the bin rule drops it
    src, dst = 7 * 0.1, 18 * 0.1
    assert dst < src + 11 * 0.1 and np.floor((dst - src) / 0.1) + 11 >= 22
    # stamps near 1e16 lie 2 apart, so fl(src - W) for W = 1 rounds 1e16 + 1
    # down to 1e16, a stamp inside the window two bins below the first one
    src, dst = 1e16 + 2, 1e16
    assert dst >= src - 1.0 and np.floor((dst - src) / 0.5) + 2 == -2
    for times, width, tau_max, n_side in ((np.arange(1, 120) * 0.1, 0.1, 1.1, 11),
                                          (1e16 + 2.0 * np.arange(12), 0.5, 1.0, 2)):
        cfg = HistogramConfig(width, tau_max)
        assert cfg.n_side == n_side
        for n in (1, 2, 3):
            stream = EventStream(times, 0, n, 100.0)
            for m in range(n):
                for k in range(n):
                    src, dst = _channel(stream, m), _channel(stream, k)
                    np.testing.assert_array_equal(
                        _pair_counts(src, dst, cfg, m == k),
                        pair_histogram_bruteforce(src, dst, width, n_side, m == k),
                    )


def _split(times, first, n, cuts):
    """times of an n-level ring whose first event has label first, as
    blocks (label of the first event, times) cut at the sorted cuts."""
    edges = [0, *cuts, len(times)]
    return [((first - a) % n, times[a:b]) for a, b in zip(edges, edges[1:])]


def _outcome(call):
    """The bits of call()'s trace, or its empty-channel message."""
    try:
        trace = call()
    except InsufficientSamples as exc:
        return str(exc)
    return trace.values.tobytes(), trace.stderr.tobytes()


@given(
    n=st.integers(1, 6),
    n_events=st.integers(1, 300),
    on_grid=st.booleans(),
    bin_width=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    n_side=st.integers(1, 40),
    first=st.integers(0, 5),
    read_block=st.sampled_from([1, 7, 64, stochastic._READ_BLOCK]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_streamed_counts_equal_the_whole_stream_and_the_bruteforce(
    n, n_events, on_grid, bin_width, n_side, first, read_block, data
):
    # a window of up to 40 bins holds up to ~40 events, so with read blocks
    # of 1 or 7 events, or cut anywhere, it spans many blocks
    rng = np.random.default_rng(n_events)
    if on_grid:
        times = np.cumsum(rng.integers(1, 4, n_events)) * bin_width
    else:
        times = np.cumsum(rng.exponential(bin_width, n_events)) + rng.uniform(-50, 50)
    tau_max = n_side * bin_width
    t_total = max(float(times[-1] - times[0]), 10 * tau_max) + 1.0
    stream = EventStream(times, first % n, n, t_total)
    cuts = sorted(data.draw(st.lists(st.integers(0, n_events), max_size=8), label="cuts"))
    subset = tuple(sorted(data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="subset")))
    cfg = HistogramConfig(bin_width, tau_max)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(stochastic, "_READ_BLOCK", read_block):
        path = os.path.join(tmp, "events")
        write_events_binary(stream, path)

        def streamed(selection):
            n_levels, total, blocks = read_event_blocks(path)
            return correlate_blocks(blocks, n_levels, total, cfg, selection)

        for m in range(n):
            for k in range(n):
                pair = selection_of((m, k), n)
                whole = _outcome(lambda: correlate(stream, pair, cfg))
                assert _outcome(lambda: streamed(pair)) == whole, pair
                assert _outcome(lambda: correlate_blocks(
                    _split(times, first % n, n, cuts), n, t_total, cfg, pair)) == whole
                if isinstance(whole, str):
                    continue
                src, dst = _channel(stream, m), _channel(stream, k)
                np.testing.assert_array_equal(
                    _counts_of(streamed(pair), len(src) / t_total,
                               len(dst) / t_total, t_total, cfg),
                    pair_histogram_bruteforce(src, dst, bin_width, n_side, m == k),
                )

        selection = SubsetSpec(selection_of(subset, n))
        whole = _outcome(lambda: correlate_subset(stream, selection, cfg))
        merged, labels = stream.merged()
        chosen = merged[np.isin(labels, subset)]
        assert _outcome(lambda: streamed(selection)) == whole
        assert _outcome(lambda: correlate_blocks(
            _split(times, first % n, n, cuts), n, t_total, cfg, selection)) == whole
        if not isinstance(whole, str):
            rate = len(chosen) / t_total
            np.testing.assert_array_equal(
                _counts_of(streamed(selection), rate, rate, t_total, cfg),
                pair_histogram_bruteforce(chosen, chosen, bin_width, n_side, True),
            )


@given(st.integers(1, 60), st.data())
@settings(max_examples=100, deadline=None)
def test_gathered_levels_are_the_labelled_events_as_a_ring_of_their_ranks(n, data):
    first = data.draw(st.integers(0, n - 1), label="first")
    events = data.draw(st.integers(0, 4 * n + 10), label="events")
    levels = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="levels")
    cuts = sorted(data.draw(st.lists(st.integers(0, events), max_size=4), label="cuts"))
    stream = EventStream(np.arange(1.0, events + 1), first, n, events + 1.0)
    times, labels = stream.merged()
    members = sorted(levels)
    keep = np.isin(labels, members)
    expected = EventStream.from_labels(
        times[keep], np.searchsorted(members, labels[keep]), len(members), events + 1.0)
    # each gathered block is valid until the next is drawn, so keep copies
    got = [(rank, block.copy())
           for rank, block in _gathered(_split(times, first, n, cuts), n, members)]
    np.testing.assert_array_equal(np.concatenate([b for _, b in got]), expected.times)
    for (rank, block), at in zip(got, np.cumsum([0] + [len(b) for _, b in got])):
        if len(block):
            assert rank == (expected.first_label - at) % len(members)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_segment_rows_split_the_ring_histogram_by_source_time(block):
    # the bootstrap's block counts: every pair counted once, in the row of
    # its source event's segment, whatever blocks the ring is fed in
    stream = make_stream(n=4, events=1500, seed=23)
    times, first = stream.times, stream.first_label
    cfg = HistogramConfig(0.25, 3.0)
    # sources before the first edge and past the last one are dropped
    edges = np.linspace(times[20], times[20] + 0.8 * (times[-1] - times[20]), 9)
    blocks = _split(times, first, 4, range(block, len(times), block))
    for pair in ((1, 1), (2, 0), (0, 3), None):
        rows, sources, _, _ = _ring_pairs(blocks, 4, pair, cfg, edges)
        (whole,), (all_sources,), _, _ = _ring_pairs([(first, times)], 4, pair, cfg,
                                                     (-np.inf, np.inf))
        src, dst = (times, times) if pair is None else (_channel(stream, c) for c in pair)
        same = pair is None or pair[0] == pair[1]
        cuts = np.searchsorted(src, edges)
        assert all_sources == len(src)
        np.testing.assert_array_equal(sources, np.diff(cuts))
        dropped = _pair_counts(src[:cuts[0]], dst, cfg, same) + _pair_counts(
            src[cuts[-1]:], dst, cfg, same)
        np.testing.assert_array_equal(rows.sum(axis=0), whole - dropped)
        for row, lo, hi in zip(rows, cuts, cuts[1:]):
            np.testing.assert_array_equal(row, _pair_counts(src[lo:hi], dst, cfg, same))


# sha256 of outputs recorded before the pair counts became a lag sweep,
# re-recorded when the simulator's chunk seams became fixed (the streams
# equal oracles.simulate_in_chunks's); recorded when selections were stream
# labels, so each key names the transitions of those channels, one level
# below them (selection_of)
FROZEN_CSV = {
    ("--pair", "0,0"): "c8d5ab601592d36f403fe29bfdd904e4b2489629b79339b968431838db05c2ae",
    ("--pair", "1,3"): "6b0bb010bb22d42e2d180b228b63da8e36629b84931318b5ce7b2db96a6328b8",
    ("--subset", "0,1"): "d2e3379b009c43a88a09b92878605cb38cc269ccec0fb639db22f7257e34c227",
}
FROZEN_BOOTSTRAP = {
    (0, 0): "9241cc4ecec45d95cd69071ebbcd8248ae57c15f7c4370e1fbf13cd93984d551",
    (1, 3): "cb2ce520e82a4820e29b7e433358ce667fe4c130c2a406392151450ea1116999",
    (3, 1): "30a4e5935fe3de4153dfd4084d89f72f2c111efa585887003fb7d2263dd942f0",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_correlate_csvs_keep_their_frozen_bytes(tmp_path):
    events = tmp_path / "ring6.events"
    assert cli.main(["simulate", "--n", "6", "--gamma", "1", "--events", "200000",
                     "--seed", "7", "--out", str(events)]) == 0
    for selector, digest in FROZEN_CSV.items():
        out = tmp_path / "g.csv"
        assert cli.main(["correlate", "--in", str(events), *selector, "--bin", "0.05",
                         "--taumax", "15", "--out", str(out)]) == 0
        assert _sha256(out.read_bytes()) == digest, selector


def test_block_bootstrap_keeps_its_frozen_bytes():
    stream = simulate(SimConfig(CascadeSpec.equal(4), seed=3, total_events=100_000))
    cfg = HistogramConfig(0.25, 5.0)
    for pair, digest in FROZEN_BOOTSTRAP.items():
        boot = block_bootstrap_stderr(stream, pair, cfg, n_blocks=16, n_boot=50, seed=1)
        assert _sha256(boot.tobytes()) == digest, pair


@pytest.mark.parametrize("n", [1, 4])
def test_block_bootstrap_of_every_level_is_that_of_the_whole_ring(n):
    stream = simulate(SimConfig(CascadeSpec.equal(n), seed=5, total_events=20_000))
    cfg = HistogramConfig(0.25, 5.0)
    whole = block_bootstrap_stderr(stream, None, cfg, n_blocks=8, n_boot=30, seed=2)
    every = block_bootstrap_stderr(stream, SubsetSpec(range(n)), cfg, n_blocks=8, n_boot=30,
                                   seed=2)
    assert every.tobytes() == whole.tobytes()


STREAM4 = EventStream(np.arange(1.0, 41.0), 0, 4, 45.0)


def _correlate_bits(m, n):
    trace = correlate(STREAM4, (m, n), HistogramConfig(0.5, 2.0))
    return trace.values.tobytes()


def _bootstrap_bits(m, n):
    return block_bootstrap_stderr(STREAM4, (m, n), HistogramConfig(0.5, 2.0),
                                  n_blocks=4, n_boot=10).tobytes()


def _bootstrap_count_bits(n_blocks, n_boot):
    return block_bootstrap_stderr(STREAM4, (1, 3), HistogramConfig(0.5, 2.0),
                                  n_blocks, n_boot).tobytes()


def _simulate_bits(level):
    config = SimConfig(CascadeSpec.equal(3), seed=1, total_events=30, initial_level=level)
    stream = simulate(config)
    return stream.times.tobytes(), stream.first_label


# entry points that take a channel or level index outside the ones the
# public-function walk covers: (call, valid indices)
CHANNEL_INDEX_CALLS = {
    "correlate": (_correlate_bits, (2, 1)),
    "block_bootstrap_stderr": (_bootstrap_bits, (1, 3)),
    "block_bootstrap_stderr counts": (_bootstrap_count_bits, (4, 10)),
    "simulate": (_simulate_bits, (1,)),
}


@pytest.mark.parametrize("name", CHANNEL_INDEX_CALLS)
def test_numpy_channel_indices_give_the_same_bits(name):
    call, args = CHANNEL_INDEX_CALLS[name]
    assert call(*map(np.int64, args)) == call(*args)


@pytest.mark.parametrize("bad", (1.5, True, "1"), ids=repr)
@pytest.mark.parametrize("name", CHANNEL_INDEX_CALLS)
def test_a_non_integer_channel_index_raises(name, bad):
    call, args = CHANNEL_INDEX_CALLS[name]
    for i in range(len(args)):
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            call(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("small", (0, -2, 1))
@pytest.mark.parametrize("at", (0, 1), ids=("n_blocks", "n_boot"))
def test_bootstrap_counts_below_two_raise(at, small):
    # 0 gave NaN, -2 a bare ValueError and 1 errors of zero or of rounding
    counts = [4, 10]
    counts[at] = small
    with pytest.raises(ConfigInvalid, match="n_blocks and n_boot must be >= 2"):
        _bootstrap_count_bits(*counts)
