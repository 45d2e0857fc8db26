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
counted as it is read. ``correlate`` and ``correlate_subset`` pass an
in-memory stream as one block, which is not copied; every count equals
that of the whole stream.
"""

from __future__ import annotations

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
    level_count,
)

# rows of src per sweep block: a block's slices of src, dst and the window
# bound stay in a core's L2 cache across its lags
_SWEEP_BLOCK = 16_384


@dataclass(frozen=True)
class HistogramConfig:
    """Bin width, window half-length and the channel pair (m, n) to correlate.

    correlate_subset() and correlate_blocks() take their subset or pair as
    an argument and ignore ``channels``; tau_max is truncated down to a
    whole number of bins.
    """

    bin_width: float
    tau_max: float
    channels: tuple[int, int] | None = None

    def __post_init__(self):
        if not 0 < self.bin_width < np.inf:  # NaN fails too
            raise ConfigInvalid(
                f"bin_width must be finite and > 0, got {self.bin_width!r}"
            )
        if not self.bin_width <= self.tau_max < np.inf:
            raise ConfigInvalid(
                f"tau_max must be finite and >= bin_width, got {self.tau_max!r}"
            )

    @property
    def n_side(self) -> int:
        return int(np.floor(self.tau_max / self.bin_width + 1e-9))


def _bin_centers(cfg: HistogramConfig) -> np.ndarray:
    k = np.arange(-cfg.n_side, cfg.n_side)
    return (k + 0.5) * cfg.bin_width


def _pair_counts(
    src: np.ndarray, dst: np.ndarray, cfg: HistogramConfig, same_channel: bool
) -> np.ndarray:
    """Histogram of the dst - src differences of two time-ordered runs; see
    ``_add_pairs``, whose precondition holds for the first dst at or after
    src[0]."""
    hist = np.zeros(2 * cfg.n_side, dtype=np.int64)
    _add_pairs(hist, src, dst, int(np.searchsorted(dst, src[0])), same_channel, cfg)
    return hist


def _add_pairs(hist: np.ndarray, src: np.ndarray, dst: np.ndarray, off: int,
               same_channel: bool, cfg: HistogramConfig, old=(0, 0)) -> None:
    """Add to hist the dst - src differences inside [-W, W), W = n_side *
    delta, of the runs src and dst, except the pairs of two old events: the
    first ``old`` = (rows of src, rows of dst) of each run.

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
    _lag_sweep(src, dst[n_dst:], off + same_channel - n_dst, 1, cfg, hist)
    _lag_sweep(src[n_src:], dst, off - 1 + n_src, -1, cfg, hist)


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
            q = np.subtract(other, rows) if step > 0 else np.subtract(rows, other)
            q /= width
            if step > 0:  # dst >= src going up, so truncation is the floor
                hist[n_side:] += np.bincount(q[inside].astype(np.intp), minlength=n_side)[:n_side]
            else:
                # r = ceil((src - dst) / delta) = -floor((dst - src) / delta)
                # exactly, so bin n_side - r; r > n_side falls below bin 0
                bins = np.ceil(q[inside]).astype(np.intp)
                hist[:n_side + 1] += np.bincount(bins, minlength=n_side + 1)[n_side::-1]
            lag += step


def _ring_pairs(blocks, n_levels: int, pair, cfg: HistogramConfig) -> tuple[np.ndarray, int, int]:
    """Pair histogram of a ring of ``n_levels`` levels fed as consecutive
    blocks (label of the first event, times) in time order: of channel m
    against channel n for ``pair`` = (m, n), or of all its events against
    each other for None. Returns (histogram, label of the first event,
    events).

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
    hist = np.zeros(2 * cfg.n_side, dtype=np.int64)
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
        _add_pairs(hist, times[a::period], times[b::period], int(a > b), m == n, cfg, old)
        cut = int(np.searchsorted(times, np.nextafter(times[-1] - window, -np.inf)))
        tail, tail_label = times[cut:].copy(), (label - cut) % n_levels
    return hist, first, events


def _normalized_trace(
    counts: np.ndarray,
    rate_src: float,
    rate_dst: float,
    t_total: float,
    cfg: HistogramConfig,
    **provenance,
) -> CorrelationTrace:
    centers = _bin_centers(cfg)
    denom = rate_src * rate_dst * (t_total - np.abs(centers)) * cfg.bin_width
    values = counts / denom
    stderr = np.sqrt(np.maximum(counts, 1)) / denom
    return CorrelationTrace(
        tau=centers,
        values=values,
        stderr=stderr,
        source="estimated",
        bin_width=cfg.bin_width,
        total_time=t_total,
        **provenance,
    )


def _channel_pair(channels, n_levels: int, name: str = "cfg.channels") -> tuple[int, int]:
    """``channels`` as a pair (m, n) of levels of an N-level ring."""
    if not (isinstance(channels, tuple) and len(channels) == 2):
        raise ConfigInvalid(f"{name} must be a pair (m, n)")
    m, n = (check_index("channel", c) for c in channels)
    if not (0 <= m < n_levels and 0 <= n < n_levels):
        raise ConfigInvalid(f"channel pair {(m, n)} outside [0, {n_levels})")
    return m, n


def _check_window(total_duration: float, cfg: HistogramConfig) -> None:
    if cfg.tau_max > total_duration / 10:
        raise ConfigInvalid(
            f"tau_max {cfg.tau_max} exceeds total_duration/10 = "
            f"{total_duration / 10}"
        )


def correlate_blocks(
    blocks,
    n_levels: int,
    total_duration: float,
    cfg: HistogramConfig,
    pair: tuple[int, int] | None = None,
    levels=None,
    spec=None,
) -> CorrelationTrace:
    """Coincidence-histogram estimate of g2 from a ring of ``n_levels``
    levels and window ``total_duration``, fed as consecutive blocks (label
    of the first event, times) in time order: of the channel pair ``pair``
    = (m, n), or with None of the merged emission of all its levels.

    The counts hold only the events within the window of the latest block,
    so a stream read block by block is never held whole. ``levels`` names
    the ring's levels in the stream it was cut from (by default the ring's
    own); the trace's pair or subset and the empty-channel message use
    those names. The blocks are drawn to the end even when the window is
    too long, so a reader that checks a file as it goes reports a damaged
    file first.
    """
    n_levels = check_levels(n_levels)
    if pair is not None:
        pair = _channel_pair(pair, n_levels, "pair")
    levels = tuple(range(n_levels) if levels is None else levels)
    try:
        _check_window(total_duration, cfg)
    except ConfigInvalid:
        for _ in blocks:  # a damaged stream is reported first
            pass
        raise
    hist, first, events = _ring_pairs(blocks, n_levels, pair, cfg)
    for channel in range(n_levels) if pair is None else pair:
        if level_count(events, first, n_levels, channel) == 0:
            raise InsufficientSamples(f"channel {levels[channel]} has no events")
    if pair is None:
        rates, provenance = (events / total_duration,) * 2, {"subset": SubsetSpec(levels)}
    else:
        rates = [level_count(events, first, n_levels, c) / total_duration for c in pair]
        provenance = {"pair": tuple(levels[c] for c in pair)}
    return _normalized_trace(hist, *rates, total_duration, cfg, spec=spec, **provenance)


def correlate(stream: EventStream, cfg: HistogramConfig) -> CorrelationTrace:
    """Coincidence-histogram estimate of g2 for the channel pair in cfg."""
    return correlate_blocks([(stream.first_label, stream.times)], stream.n_levels,
                            stream.total_duration, cfg,
                            _channel_pair(cfg.channels, stream.n_levels), spec=stream.spec)


def correlate_subset(
    stream: EventStream, subset: SubsetSpec, cfg: HistogramConfig
) -> CorrelationTrace:
    """Autocorrelation of the merged emission from a transition subset.

    With equal channel rates this equals the (1/n_S^2) double sum of the
    pairwise estimates by construction, since the merged rate is n_S r.
    """
    if not isinstance(subset, SubsetSpec):
        subset = SubsetSpec(tuple(subset))
    subset.check_against(stream.n_levels)
    # the subset's events in time order; a subset of the whole ring is the
    # stream itself, with no interleaved copy
    merged = stream.select(subset.members)
    return correlate_blocks([(merged.first_label, merged.times)], merged.n_levels,
                            stream.total_duration, cfg, levels=subset.members,
                            spec=stream.spec)


def block_bootstrap_stderr(
    stream: EventStream,
    cfg: HistogramConfig,
    n_blocks: int = 20,
    n_boot: int = 200,
    seed: int = 0,
) -> np.ndarray:
    """Block-bootstrap refinement of the per-bin errors.

    Splits the window into n_blocks time chunks (each correlated on its
    own), resamples blocks with replacement and returns the standard
    deviation of the resampled estimates per bin. Accounts for correlated
    counts that the plain sqrt(count) error ignores.
    """
    m, n = _channel_pair(cfg.channels, stream.n_levels)
    _check_window(stream.total_duration, cfg)
    t0 = float(stream.times[0])
    edges = np.linspace(t0, t0 + stream.total_duration, n_blocks + 1)
    src_all, dst_all = stream.channels[m], stream.channels[n]
    if len(src_all) == 0 or len(dst_all) == 0:
        raise InsufficientSamples("cannot bootstrap an empty channel")

    window = cfg.n_side * cfg.bin_width
    block_counts = np.zeros((n_blocks, 2 * cfg.n_side), dtype=np.int64)
    block_src = np.zeros(n_blocks)
    block_dur = np.diff(edges)
    # src_all is sorted: block b holds the events in [edges[b], edges[b + 1])
    cuts = np.searchsorted(src_all, edges)
    for b in range(n_blocks):
        src = src_all[cuts[b]:cuts[b + 1]]
        if len(src) == 0:
            continue
        lo = np.searchsorted(dst_all, src[0] - window)
        hi = np.searchsorted(dst_all, src[-1] + window)
        block_counts[b] = _pair_counts(
            src, dst_all[lo:hi], cfg, same_channel=(m == n)
        )
        block_src[b] = len(src)

    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    rate_dst = len(dst_all) / stream.total_duration
    centers = _bin_centers(cfg)
    est = np.empty((n_boot, 2 * cfg.n_side))
    for i in range(n_boot):
        pick = rng.integers(0, n_blocks, n_blocks)
        counts = block_counts[pick].sum(axis=0)
        t_tot = block_dur[pick].sum()
        n_src = block_src[pick].sum()
        if n_src == 0:
            est[i] = np.nan
            continue
        denom = (n_src / t_tot) * rate_dst * (t_tot - np.abs(centers)) * cfg.bin_width
        est[i] = counts / denom
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


