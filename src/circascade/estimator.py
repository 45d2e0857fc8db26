"""Normalized coincidence histograms: estimate g2(tau) from event streams.

The estimate in the bin centered at tau_b is

    g(tau_b) = pairs(tau_b) / (r_m r_n (T - |tau_b|) delta),

where r_x = N_x / T are the channel rates and (T - |tau_b|) removes the
finite-window edge bias. Bins are closed-left/open-right with tau = 0 on a
bin boundary, so the discontinuity of contiguous traces is never averaged
across sides. Pair search is a sorted two-channel sweep with a sliding
window, linear in events plus coincidences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigInvalid,
    CorrelationTrace,
    EmptyChannel,
    EventStream,
    SubsetSpec,
)

_PAIR_CHUNK = 4_000_000


@dataclass(frozen=True)
class HistogramConfig:
    """Bin width, window half-length and the channels to correlate.

    ``channels`` is a pair (m, n) for correlate() or a SubsetSpec for
    correlate_subset(); tau_max is truncated down to a whole number of bins.
    """

    bin_width: float
    tau_max: float
    channels: tuple[int, int] | SubsetSpec | None = None

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ConfigInvalid("bin_width must be > 0")
        if self.tau_max < self.bin_width:
            raise ConfigInvalid("tau_max must be >= bin_width")

    @property
    def n_side(self) -> int:
        return int(np.floor(self.tau_max / self.bin_width + 1e-9))


def _bin_centers(cfg: HistogramConfig) -> np.ndarray:
    k = np.arange(-cfg.n_side, cfg.n_side)
    return (k + 0.5) * cfg.bin_width


def _pair_counts(
    src: np.ndarray, dst: np.ndarray, cfg: HistogramConfig, same_channel: bool
) -> np.ndarray:
    """Histogram of dst - src differences inside [-W, W), W = n_side * delta."""
    window = cfg.n_side * cfg.bin_width
    lo = np.searchsorted(dst, src - window, side="left")
    hi = np.searchsorted(dst, src + window, side="left")
    counts = hi - lo
    total_bins = 2 * cfg.n_side
    hist = np.zeros(total_bins, dtype=np.int64)
    cum = np.cumsum(counts)

    start = 0
    while start < len(src):
        consumed = cum[start - 1] if start else 0
        stop = int(np.searchsorted(cum, consumed + _PAIR_CHUNK)) + 1
        stop = min(max(stop, start + 1), len(src))
        c = counts[start:stop]
        total = int(c.sum())
        if total:
            offsets = np.concatenate(([0], np.cumsum(c)[:-1]))
            flat = np.arange(total) - np.repeat(offsets, c) + np.repeat(lo[start:stop], c)
            diffs = dst[flat] - np.repeat(src[start:stop], c)
            if same_channel:
                diffs = diffs[diffs != 0.0]
            idx = np.floor(diffs / cfg.bin_width).astype(np.int64) + cfg.n_side
            valid = (idx >= 0) & (idx < total_bins)
            hist += np.bincount(idx[valid], minlength=total_bins)
        start = stop
    return hist


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


def _check_window(stream: EventStream, cfg: HistogramConfig) -> None:
    if cfg.tau_max > stream.total_duration / 10:
        raise ConfigInvalid(
            f"tau_max {cfg.tau_max} exceeds total_duration/10 = "
            f"{stream.total_duration / 10}"
        )


def correlate(stream: EventStream, cfg: HistogramConfig) -> CorrelationTrace:
    """Coincidence-histogram estimate of g2 for the channel pair in cfg."""
    if not (isinstance(cfg.channels, tuple) and len(cfg.channels) == 2):
        raise ConfigInvalid("cfg.channels must be a pair (m, n)")
    m, n = cfg.channels
    if not (0 <= m < stream.n_levels and 0 <= n < stream.n_levels):
        raise ConfigInvalid(f"channel pair {(m, n)} outside [0, {stream.n_levels})")
    _check_window(stream, cfg)
    src, dst = stream.channels[m], stream.channels[n]
    if len(src) == 0 or len(dst) == 0:
        raise EmptyChannel(f"channel {m if len(src) == 0 else n} has no events")
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
            raise EmptyChannel(f"channel {i} has no events")
    # event k*N + offset carries the label with that ring offset, so whole
    # periods plus sorted offsets index the subset's events in time order
    n, n_events = stream.n_levels, stream.n_events
    offsets = sorted((stream.first_label - i) % n for i in subset.members)
    idx = (np.arange(0, n_events, n)[:, None] + offsets).ravel()
    merged = stream.times[idx[idx < n_events]]
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
    if not (isinstance(cfg.channels, tuple) and len(cfg.channels) == 2):
        raise ConfigInvalid("cfg.channels must be a pair (m, n)")
    m, n = cfg.channels
    _check_window(stream, cfg)
    t0 = float(stream.times[0])
    edges = np.linspace(t0, t0 + stream.total_duration, n_blocks + 1)
    src_all, dst_all = stream.channels[m], stream.channels[n]
    if len(src_all) == 0 or len(dst_all) == 0:
        raise EmptyChannel("cannot bootstrap an empty channel")

    window = cfg.n_side * cfg.bin_width
    block_counts = np.zeros((n_blocks, 2 * cfg.n_side), dtype=np.int64)
    block_src = np.zeros(n_blocks)
    block_dur = np.diff(edges)
    for b in range(n_blocks):
        sel = (src_all >= edges[b]) & (src_all < edges[b + 1])
        src = src_all[sel]
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


