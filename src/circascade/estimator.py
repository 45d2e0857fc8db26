"""Normalized coincidence histograms: estimate g2(tau) from event streams.

The estimate in the bin centered at tau_b is

    g(tau_b) = pairs(tau_b) / (r_m r_n (T - |tau_b|) delta),

where r_x = N_x / T are the channel rates and (T - |tau_b|) removes the
finite-window edge bias. Bins are closed-left/open-right with tau = 0 on a
bin boundary, so the discontinuity of contiguous traces is never averaged
across sides. Pairs are counted by a lag sweep: within one ring, the
pairs at a fixed lag are one contiguous slice difference of the two
channels, so each lag costs a vectorized pass and no pair index is stored.

The sweep takes its ring as time-ordered blocks (``correlate_blocks``),
joins each block to the events within the window of the ones before and
counts the joined run in two sweeps, so a stream read from a file is
counted as it is read. Every estimate takes one selection (a pair, a
SubsetSpec, or None for the whole ring) of transitions named, as on every
route, by the level each arrives in. ``_counted`` is the one place that
checks it, maps it to the stream channels (``model.source_level``) and
gathers those out of each block before the sweep.
``correlate``, ``correlate_subset`` and ``block_bootstrap_stderr`` pass an
in-memory stream as one block (``_one_block``), checked against its window
as a read stream is; every count equals that of the whole stream.
Every count is kept by the time segment of its pair's source event:
one segment, all of time, for an estimate, n for the bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigInvalid,
    CorrelationTrace,
    EventStream,
    InsufficientSamples,
    SubsetSpec,
    check_index,
    check_levels,
    check_number,
    check_positive,
    check_pair,
    level_count,
    philox,
    source_level,
)

# rows of src per sweep block: a block's slices of src, dst and the window
# bound stay in a core's L2 cache across its lags
_SWEEP_BLOCK = 16_384


@dataclass(frozen=True)
class HistogramConfig:
    """Bin width and window half-length of a coincidence histogram; tau_max
    is truncated down to a whole number of bins. The channels are not part
    of it: each estimator entry takes its selection as an argument."""

    bin_width: float
    tau_max: float

    def __post_init__(self):
        bin_width = check_positive("bin_width", self.bin_width)
        tau_max = check_number("tau_max", self.tau_max)
        if not bin_width <= tau_max < np.inf:
            raise ConfigInvalid(
                f"tau_max must be finite and >= bin_width, got {self.tau_max!r}"
            )
        # the 2 n_side int64 counts must fit an array, below 2^63 bytes
        ratio = tau_max / bin_width
        if not ratio < 2.0**59:
            raise ConfigInvalid(
                f"tau_max / bin_width = {ratio:g} bins per side, more than an array holds (2**59)"
            )

    @property
    def n_side(self) -> int:
        return int(np.floor(self.tau_max / self.bin_width + 1e-9))


def _bin_centers(cfg: HistogramConfig) -> np.ndarray:
    k = np.arange(-cfg.n_side, cfg.n_side)
    return (k + 0.5) * cfg.bin_width


def _add_pairs(hist: np.ndarray, src: np.ndarray, dst: np.ndarray, off: int,
               same_channel: bool, cfg: HistogramConfig, old, cuts) -> None:
    """Add to hist the dst - src differences inside [-W, W), W = n_side *
    delta, of the runs src and dst, except the pairs of two old events: the
    first ``old`` = (rows of src, rows of dst) of each run. Row s of hist
    takes the pairs whose src row lies in [cuts[s], cuts[s + 1]), for
    sorted src rows ``cuts``; other src rows are dropped.

    The pair (i, j) counts when fl(src[i] - W) <= dst[j] < fl(src[i] + W),
    in bin floor((dst[j] - src[i]) / delta) + n_side if that lies in
    [0, 2 n_side); with ``same_channel`` an event is not paired with itself.

    Precondition: the runs are channels of one ring with strictly
    increasing times, or slices of such channels, or one run with itself;
    with ``same_channel``, every src event is also in dst. Then dst event
    i + off is the first at or after src event i, and the pairs at lag
    k >= 0 are the slice differences dst[i + off + k] - src[i] (checked
    against the upper bound) and dst[i + off - 1 - k] - src[i] (checked
    against the lower one). Old events precede new ones, so each pair is
    counted once by two sweeps: every src row against the new dst events
    going up, and the new src rows against every dst event going down.
    """
    n_src, n_dst = old
    for row, lo, hi in zip(hist, cuts, cuts[1:]):
        new = max(lo, n_src)
        _lag_sweep(src[lo:hi], dst[n_dst:], off + same_channel - n_dst + lo, 1, cfg, row)
        _lag_sweep(src[new:hi], dst, off - 1 + new, -1, cfg, row)


def _lag_sweep(src, dst, shift, step, cfg, hist) -> None:
    """Add to hist the pairs (i, i + shift + step * k), k = 0, 1, ..., whose
    dst lies inside the window: below fl(src[i] + W) going up (step 1), at
    or above fl(src[i] - W) going down (step -1).

    Times increase along each row, so once a lag has no pair in the window
    inside a block of rows, no later lag has one; the block stops there.
    Lags at which no row of the block has its partner inside dst are
    skipped.
    """
    n_side, width = cfg.n_side, cfg.bin_width
    edge = step * n_side * width
    for start in range(0, len(src), _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, len(src))
        bound = src[start:stop] + edge
        lag = max(shift, 1 - stop) if step > 0 else min(shift, len(dst) - 1 - start)
        while True:
            # rows of the block whose partner index lies inside dst
            lo, hi = max(start, -lag), min(stop, len(dst) - lag)
            if lo >= hi:
                break
            other, rows, edges = dst[lo + lag:hi + lag], src[lo:hi], bound[lo - start:hi - start]
            inside = other < edges if step > 0 else other >= edges
            if not inside.any():
                break
            q = np.subtract(other, rows)
            q /= width
            # bin floor(q) + n_side, counted one slot on; the slot past each end takes
            # the pairs beyond the bins and drops (more than one bin beyond only where
            # a stamp's ulp exceeds delta, as in nanosecond stamps since the epoch)
            bins = np.floor(q[inside]).astype(np.intp) + (n_side + 1)
            hist += np.bincount(bins.clip(0, 2 * n_side + 1), minlength=2 * n_side + 2)[1:-1]
            lag += step


def _gathered(blocks, n_levels: int, members):
    """Blocks (label of the first event, times) of the ring of the sorted
    distinct levels ``members`` of a ring of ``n_levels`` levels fed as
    such blocks; level members[i] is level i of the smaller ring.

    Every cycle of a one-way ring visits each level once, in descending
    order, so the events at any subset of its levels form a one-way ring.
    Event i of a block carries label ``(label - i) % N``; within each
    period of N events the members occur in the order of their offsets
    ``(label - l) % N``, so each member's strided channel fills every
    |S|-th slot of the output, one strided assignment per member. Every
    block is gathered into one reused buffer, valid until the next is drawn.
    """
    out = np.empty(0)
    for label, times in blocks:
        offsets = [(label - level) % n_levels for level in members]
        order = sorted(range(len(members)), key=offsets.__getitem__)
        count = sum(len(range(o, len(times), n_levels)) for o in offsets)
        if count > len(out):
            out = np.empty(count)
        for slot, rank in enumerate(order):
            out[slot:count:len(members)] = times[offsets[rank]::n_levels]
        yield order[0], out[:count]


def _ring_pairs(blocks, n_levels: int, pair, cfg: HistogramConfig, edges):
    """Pair histogram of a ring of ``n_levels`` levels fed as consecutive
    blocks (label of the first event, times) in time order: of channel m
    against channel n for ``pair`` = (m, n), or of all its events against
    each other for None, with one row per segment [edges[s], edges[s + 1])
    of the sorted time ``edges``, of the pairs whose source event lies in
    it. Returns (histogram, sources, label of the first event, events);
    ``sources`` counts the source events of each segment, and sources
    outside the edges are dropped.

    Each block is joined to the tail carried from the blocks before (a copy
    only when there is one), and ``_add_pairs`` counts the run with the
    tail as its old events, so a pair is counted with the block of its
    later event. The new tail is the run's events within W of its last
    stamp, and one rounding more, since a later event exceeds that stamp;
    so the counts equal those of the whole stream in one block.
    """
    window = cfg.n_side * cfg.bin_width
    period = 1 if pair is None else n_levels
    m, n = pair or (0, 0)
    sources = np.zeros(len(edges) - 1, dtype=np.int64)
    hist = np.zeros((len(edges) - 1, 2 * cfg.n_side), dtype=np.int64)
    tail, tail_label = np.empty(0), 0
    first, events = 0, 0
    for label, times in blocks:
        if len(times) == 0:
            continue
        if events == 0:
            first = label
        events += len(times)
        if len(tail):
            times, label = np.concatenate((tail, times)), tail_label
        a, b = (label - m) % period, (label - n) % period  # run offsets of src and dst
        old = (level_count(len(tail), label, period, m), level_count(len(tail), label, period, n))
        src = times[a::period]
        cuts = np.searchsorted(src, edges)
        sources += np.diff(np.maximum(cuts, old[0]))  # the new sources only
        _add_pairs(hist, src, times[b::period], int(a > b), m == n, cfg, old, cuts.tolist())
        cut = int(np.searchsorted(times, np.nextafter(times[-1] - window, -np.inf)))
        tail, tail_label = times[cut:].copy(), (label - cut) % n_levels
    return hist, sources, first, events


def _expected_pairs(n_src, t_src, n_dst, window, cfg: HistogramConfig):
    """Pairs per bin of two independent channels, r_m r_n (t_src - |tau_b|)
    delta, the normalization of every estimate: r_m = n_src / t_src over
    the source's time, r_n = n_dst / window over the stream's. Every time
    is taken in units of 2^e, the power of two at the window: an exact
    rescaling, so r_m r_n stays inside the float range at any rates, and a
    value in range without it keeps its bits."""
    e = math.frexp(window)[1]
    t_src, window = math.ldexp(t_src, -e), math.ldexp(window, -e)
    centers = np.ldexp(_bin_centers(cfg), -e)
    return (n_src / t_src * (n_dst / window) * (t_src - np.abs(centers))
            * math.ldexp(cfg.bin_width, -e))


def _counted(blocks, n_levels: int, total_duration: float, cfg: HistogramConfig,
             selection, edges):
    """The checks and counts of every estimate, of the merged transitions of
    a SubsetSpec ``selection`` (all for None), or else of the pair (m, n), of
    a ring fed as blocks: (``_ring_pairs``'s histogram and sources for the
    time ``edges``, events of the source and of the destination channel).
    Each transition maps to its stream channel by ``source_level``, and the
    channels are gathered out of each block (``_gathered``) unless they are
    the whole ring. On an invalid argument the blocks are drawn to the end
    first, so a reader that checks a file as it goes reports a damaged file
    first. An empty channel raises InsufficientSamples naming its transition."""
    try:
        n_levels = check_levels(n_levels)
        check_positive("total_duration", total_duration)
        if selection is None:
            selection = SubsetSpec(range(n_levels))
        if isinstance(selection, SubsetSpec):
            selection.check_against(n_levels)
            pair, chosen = None, selection.members
        else:
            pair = chosen = check_pair(selection, n_levels)
        if cfg.tau_max > total_duration / 10:
            raise ConfigInvalid(
                f"tau_max {cfg.tau_max} exceeds total_duration/10 = {total_duration / 10}")
    except ConfigInvalid:
        for _ in blocks:  # a damaged stream is reported first
            pass
        raise
    # in the order of their channels: level i of the gathered ring is transitions[i]
    transitions = sorted(set(chosen), key=lambda t: source_level(t, n_levels))
    if len(transitions) < n_levels:
        blocks = _gathered(blocks, n_levels, [source_level(t, n_levels) for t in transitions])
    ranks = range(len(transitions)) if pair is None else [transitions.index(t) for t in pair]
    hist, sources, first, events = _ring_pairs(
        blocks, len(transitions), None if pair is None else ranks, cfg, edges)
    counts = [level_count(events, first, len(transitions), r) for r in ranks]
    if 0 in counts:
        empty = transitions[ranks[counts.index(0)]]
        raise InsufficientSamples(f"transition {empty} has no events")
    return hist, sources, *(counts if pair else (events, events))


def correlate_blocks(
    blocks,
    n_levels: int,
    total_duration: float,
    cfg: HistogramConfig,
    selection: tuple[int, int] | SubsetSpec | None = None,
) -> CorrelationTrace:
    """Coincidence-histogram estimate of g2 from a ring of ``n_levels``
    levels and window ``total_duration``, fed as consecutive blocks (stream
    label of the first event, times) in time order: of the transition pair
    ``selection`` = (m, n), or of the merged emission of a SubsetSpec's
    transitions (all for None), each named by the level it arrives in.

    The counts (``_counted``) hold only the events within the window of
    the latest block, so a stream read block by block is never held whole.
    """
    (hist,), _, n_src, n_dst = _counted(
        blocks, n_levels, total_duration, cfg, selection, (-np.inf, np.inf))
    denom = _expected_pairs(n_src, total_duration, n_dst, total_duration, cfg)
    return CorrelationTrace(tau=_bin_centers(cfg), values=hist / denom, source="estimated",
                            stderr=np.sqrt(np.maximum(hist, 1)) / denom)


def _one_block(stream: EventStream) -> tuple:
    """The leading arguments of ``correlate_blocks`` and ``_counted`` for an
    in-memory stream: its one block (label of the first event, times), N and
    window, after the window rule a read stream passes (``EventStream.check``)
    when it has events; an empty one is left to ``_counted``'s InsufficientSamples."""
    if stream.n_events:
        stream.check()
    return [(stream.first_label, stream.times)], stream.n_levels, stream.total_duration


def correlate(
    stream: EventStream, pair: tuple[int, int], cfg: HistogramConfig
) -> CorrelationTrace:
    """Coincidence-histogram estimate of g2 for the transition pair (m, n),
    named by the levels they arrive in, as ``analysis.g2`` names them."""
    return correlate_blocks(*_one_block(stream), cfg, pair)


def correlate_subset(
    stream: EventStream, subset: SubsetSpec, cfg: HistogramConfig
) -> CorrelationTrace:
    """Autocorrelation of the merged emission from a transition subset,
    named by the levels they arrive in.

    With equal channel rates this equals the (1/n_S^2) double sum of the
    pairwise estimates by construction, since the merged rate is n_S r.
    """
    subset = subset if isinstance(subset, SubsetSpec) else SubsetSpec(subset)
    return correlate_blocks(*_one_block(stream), cfg, subset)


def block_bootstrap_stderr(
    stream: EventStream,
    selection: tuple[int, int] | SubsetSpec | None,
    cfg: HistogramConfig,
    n_blocks: int = 20,
    n_boot: int = 200,
    seed: int = 0,
) -> np.ndarray:
    """Block-bootstrap errors of ``correlate_blocks`` for ``selection``: the
    transition pair (m, n), a SubsetSpec's merged transitions, or all for
    None, named as ``correlate_blocks`` names them.

    Splits the window into n_blocks equal time segments, counts the pairs
    of each segment's source events in the pass ``correlate`` makes in one
    (``_counted``), resamples n_blocks segments with replacement n_boot
    times (both integers >= 2), drawn by ``philox(seed)``, and returns the
    standard deviation of the resampled estimates per bin. Accounts for
    correlated counts that the plain sqrt(count) error ignores.
    """
    n_blocks, n_boot = check_index("n_blocks", n_blocks), check_index("n_boot", n_boot)
    if min(n_blocks, n_boot) < 2:
        raise ConfigInvalid(f"n_blocks and n_boot must be >= 2, got {n_blocks} and {n_boot}")
    rng = philox(seed)
    t0 = float(stream.times[0]) if stream.n_events else 0.0
    edges = np.linspace(t0, t0 + stream.total_duration, n_blocks + 1)
    block_counts, block_src, _, n_dst = _counted(*_one_block(stream), cfg, selection, edges)
    block_dur = np.diff(edges)
    est = np.empty((n_boot, 2 * cfg.n_side))
    for i in range(n_boot):
        pick = rng.integers(0, n_blocks, n_blocks)
        n_src, t_tot = block_src[pick].sum(), block_dur[pick].sum()
        # a resample without sources has no rate, and no estimate
        est[i] = np.nan if n_src == 0 else block_counts[pick].sum(axis=0) / _expected_pairs(
            n_src, t_tot, n_dst, stream.total_duration, cfg)
    return np.nanstd(est, axis=0)


def write_trace_csv(trace: CorrelationTrace, path) -> None:
    """CSV trace output: 'tau,g2[,stderr]' with 17-significant-digit floats."""
    with open(path, "w") as fh:
        if trace.stderr is not None:
            fh.write("tau,g2,stderr\n")
            for t, v, e in zip(trace.tau, trace.values, trace.stderr):
                fh.write(f"{t:.17g},{v:.17g},{e:.17g}\n")
        else:
            fh.write("tau,g2\n")
            for t, v in zip(trace.tau, trace.values):
                fh.write(f"{t:.17g},{v:.17g}\n")


