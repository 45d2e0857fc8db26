"""Normalized coincidence histograms: estimate g2(tau) from event streams.

The estimate in the bin centered at tau_b is

    g(tau_b) = pairs(tau_b) / (r_m r_n (T - |tau_b|) delta),

where r_x = N_x / T are the channel rates and (T - |tau_b|) removes the
finite-window edge bias. Bins are closed-left/open-right with tau = 0 on a
bin boundary, so the discontinuity of contiguous traces is never averaged
across sides. Pairs are counted by a lag sweep: within one ring, the
pairs at a fixed lag are one contiguous slice difference of the two
channels, so each lag costs a vectorized pass and no pair index is stored.
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
)

# rows of src per sweep block: a block's slices of src, dst and the window
# bound stay in a core's L2 cache across its lags
_SWEEP_BLOCK = 16_384


@dataclass(frozen=True)
class HistogramConfig:
    """Bin width, window half-length and the channel pair (m, n) to correlate.

    correlate_subset() takes its subset as an argument and ignores
    ``channels``; tau_max is truncated down to a whole number of bins.
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
    """Histogram of dst - src differences inside [-W, W), W = n_side * delta.

    The pair (i, j) counts when fl(src[i] - W) <= dst[j] < fl(src[i] + W),
    in bin floor((dst[j] - src[i]) / delta) + n_side if that lies in
    [0, 2 n_side); with ``same_channel`` an event is not paired with itself.

    Precondition: ``src`` and ``dst`` are channels of one ring with strictly
    increasing times, or slices of such channels, or one array with itself;
    with ``same_channel``, every src event is also in dst. Then the first
    dst at or after src[i] is dst[i + off] for one constant off, and the
    pairs at lag k >= 0 are the slice differences dst[i + off + k] - src[i]
    (checked against the upper bound) and dst[i + off - 1 - k] - src[i]
    (checked against the lower one).
    """
    window = cfg.n_side * cfg.bin_width
    # bins 0 and 2 n_side + 1 collect the pairs whose bin falls outside
    hist = np.zeros(2 * cfg.n_side + 2, dtype=np.int64)
    off = int(np.searchsorted(dst, src[0]))
    _lag_sweep(src, dst, window, np.less, off + same_channel, 1, cfg, hist)
    _lag_sweep(src, dst, -window, np.greater_equal, off - 1, -1, cfg, hist)
    return hist[1:-1]


def _lag_sweep(src, dst, edge, within, shift, step, cfg, hist) -> None:
    """Add to hist the pairs (i, i + shift + step * k), k = 0, 1, ..., whose
    dst satisfies within(dst, fl(src[i] + edge)).

    Times increase along each row, so once a lag has no pair in the window
    inside a block of rows, no later lag has one; the block stops there.
    """
    last = len(hist) - 1
    for start in range(0, len(src), _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, len(src))
        bound = src[start:stop] + edge
        lag_shift = shift
        while True:
            # rows of the block whose partner index lies inside dst
            lo, hi = max(start, -lag_shift), min(stop, len(dst) - lag_shift)
            if lo >= hi:
                break
            other = dst[lo + lag_shift:hi + lag_shift]
            inside = within(other, bound[lo - start:hi - start])
            if not inside.any():
                break
            bins = np.floor((other - src[lo:hi]) / cfg.bin_width)[inside]
            bins += cfg.n_side + 1
            np.clip(bins, 0, last, out=bins)
            hist += np.bincount(bins.astype(np.intp), minlength=last + 1)
            lag_shift += step


def _normalized_trace(
    counts: np.ndarray,
    rate_src: float,
    rate_dst: float,
    stream: EventStream,
    cfg: HistogramConfig,
    pair=None,
    subset=None,
) -> CorrelationTrace:
    centers = _bin_centers(cfg)
    t_total = stream.total_duration
    denom = rate_src * rate_dst * (t_total - np.abs(centers)) * cfg.bin_width
    values = counts / denom
    stderr = np.sqrt(np.maximum(counts, 1)) / denom
    return CorrelationTrace(
        tau=centers,
        values=values,
        stderr=stderr,
        source="estimated",
        spec=stream.spec,
        pair=pair,
        subset=subset,
        bin_width=cfg.bin_width,
        total_time=t_total,
    )


def _channel_pair(stream: EventStream, cfg: HistogramConfig) -> tuple[int, int]:
    """The (m, n) pair of cfg, checked against the stream's N levels."""
    if not (isinstance(cfg.channels, tuple) and len(cfg.channels) == 2):
        raise ConfigInvalid("cfg.channels must be a pair (m, n)")
    m, n = (check_index("channel", c) for c in cfg.channels)
    if not (0 <= m < stream.n_levels and 0 <= n < stream.n_levels):
        raise ConfigInvalid(f"channel pair {(m, n)} outside [0, {stream.n_levels})")
    return m, n


def _check_window(stream: EventStream, cfg: HistogramConfig) -> None:
    if cfg.tau_max > stream.total_duration / 10:
        raise ConfigInvalid(
            f"tau_max {cfg.tau_max} exceeds total_duration/10 = "
            f"{stream.total_duration / 10}"
        )


def correlate(stream: EventStream, cfg: HistogramConfig) -> CorrelationTrace:
    """Coincidence-histogram estimate of g2 for the channel pair in cfg."""
    m, n = _channel_pair(stream, cfg)
    _check_window(stream, cfg)
    src, dst = stream.channels[m], stream.channels[n]
    if len(src) == 0 or len(dst) == 0:
        raise InsufficientSamples(f"channel {m if len(src) == 0 else n} has no events")
    counts = _pair_counts(src, dst, cfg, same_channel=(m == n))
    t_total = stream.total_duration
    return _normalized_trace(
        counts, len(src) / t_total, len(dst) / t_total, stream, cfg, pair=(m, n)
    )


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
    _check_window(stream, cfg)
    per_channel = stream.counts
    for i in subset.members:
        if per_channel[i] == 0:
            raise InsufficientSamples(f"channel {i} has no events")
    # the subset's events in time order; a subset of the whole ring is the
    # stream itself, with no interleaved copy
    merged = stream.select(subset.members).times
    counts = _pair_counts(merged, merged, cfg, same_channel=True)
    rate = len(merged) / stream.total_duration
    return _normalized_trace(counts, rate, rate, stream, cfg, subset=subset)


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
    m, n = _channel_pair(stream, cfg)
    _check_window(stream, cfg)
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


