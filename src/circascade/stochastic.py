"""Continuous-time jump-process simulator for the one-way cascade.

The jump order is deterministic (level l always relaxes to (l-1) % N), so
a trajectory is fully described by its dwell times: visit i sits in level
(start - i) % N for an Exponential(rates[level]) time and emits an event
labeled with the source level at the jump. The simulator therefore keeps
only the jump times and the level of the first recorded visit, which is
exactly an ``EventStream`` ring. Sampling is vectorized in chunks; the RNG
is counter-based (Philox keyed by the seed), so one seed gives one stream
whatever the chunk size.

The text format stores one '<timestamp> <label>' line per event and its
reader rebuilds the ring with ``EventStream.from_labels``, which rejects
labels that do not cycle. The binary format stores the ring itself: a
header with the first label, then the raw f64 times.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import (
    CascadeSpec,
    ConfigInvalid,
    EventStream,
    InsufficientSamples,
    StreamInvariantViolation,
    check_index,
    steady_state,
)

_CHUNK = 1 << 19
_NUDGE_BLOCK = 1 << 20
_TEXT_BLOCK = 1 << 12  # lines formatted per write
_BINARY_MAGIC = b"CEV2"
_BINARY_HEADER = struct.Struct("<IIQdQ")  # N, first label, seed, T, count


@dataclass(frozen=True)
class SimConfig:
    """One trajectory: spec, seed, stop condition and initial state.

    Exactly one of ``duration`` (observation window after burn-in) or
    ``total_events`` (events recorded after burn-in) must be set.
    ``initial_level=None`` draws the starting level from the steady state.
    Construction raises ConfigInvalid for any setting outside these rules.
    """

    spec: CascadeSpec
    seed: int
    duration: float | None = None
    total_events: int | None = None
    initial_level: int | None = None
    burn_in: float = 0.0

    def __post_init__(self):
        if (self.duration is None) == (self.total_events is None):
            raise ConfigInvalid("set exactly one of duration or total_events")
        if self.duration is not None and not 0 < self.duration < np.inf:  # NaN fails too
            raise ConfigInvalid(f"duration must be finite and > 0, got {self.duration!r}")
        if self.total_events is not None and self.total_events < 1:
            raise ConfigInvalid("total_events must be >= 1")
        if not 0 <= self.burn_in < np.inf:
            raise ConfigInvalid(f"burn_in must be finite and >= 0, got {self.burn_in!r}")
        if self.initial_level is not None and not (
            0 <= check_index("initial_level", self.initial_level) < self.spec.n_levels
        ):
            raise ConfigInvalid(
                f"initial_level {self.initial_level} outside [0, {self.spec.n_levels})"
            )


def _rng_for(cfg: SimConfig) -> np.random.Generator:
    key = np.array([cfg.seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _capacity(config: SimConfig, expected: int) -> int:
    """Initial length of the stamp buffer, which doubles when a run outgrows it."""
    return expected if config.total_events is None else config.total_events


def simulate(config: SimConfig) -> EventStream:
    """Run one trajectory and return its event stream.

    Bit-identical output for identical config. Kept stamps go straight
    into one preallocated buffer, so the returned stream is the only
    full-length copy. Timestamps are strictly increasing by construction
    (coincident rounding collisions are nudged by one ulp).
    """
    spec = config.spec
    n = spec.n_levels
    rates = np.asarray(spec.rates, dtype=float)
    rng = _rng_for(config)

    if config.initial_level is None:
        start = int(rng.choice(n, p=steady_state(spec)))
    else:
        start = int(config.initial_level)

    horizon = None if config.duration is None else config.burn_in + config.duration

    # expected number of draws; chunked sampling returns the same variates
    # as one monolithic call, so the chunk size never changes the stream
    event_rate = n / spec.cycle_time
    if config.total_events is not None:
        est = config.burn_in * event_rate + config.total_events
    else:
        est = horizon * event_rate
    expected = int(est + 4 * np.sqrt(est) + 16)
    chunk = min(_CHUNK, max(64, expected))

    times = np.empty(_capacity(config, expected))
    # visit v sits in level (start - v) % n, so the rates from visit v on
    # repeat cycle rolled by v
    cycle = rates[(start - np.arange(n)) % n]
    first_label = 0     # level of the first recorded visit
    visit = 0
    base = 0.0          # accumulated time at the start of the current chunk
    comp = 0.0          # Kahan compensation for the chunk offsets
    recorded = 0
    while True:
        dwells = rng.standard_exponential(chunk)
        dwells /= np.tile(np.roll(cycle, -(visit % n)), -(-chunk // n))[:chunk]
        stamps = np.cumsum(dwells)
        stamps -= comp
        stamps += base

        # compensated accumulation of the chunk total
        chunk_sum = float(dwells.sum())
        y = chunk_sum - comp
        t = base + y
        comp = (t - base) - y
        base = t

        # stamps never decrease within a chunk, so the kept ones are a slice
        lo = int(np.searchsorted(stamps, config.burn_in, side="right"))
        hi = chunk if horizon is None else int(np.searchsorted(stamps, horizon, side="right"))
        if config.total_events is not None:
            hi = min(hi, lo + config.total_events - recorded)
        kept = hi - lo
        if recorded == 0 and kept:
            first_label = (start - visit - lo) % n
        if recorded + kept > len(times):
            grown = np.empty(max(2 * len(times), recorded + kept))
            grown[:recorded] = times[:recorded]
            times = grown
        times[recorded:recorded + kept] = stamps[lo:hi]
        recorded += kept
        visit += chunk
        chunk = min(_CHUNK, 2 * chunk)

        if horizon is not None and stamps[-1] > horizon:
            break
        if config.total_events is not None and recorded >= config.total_events:
            break

    if recorded == 0:
        raise InsufficientSamples("no events recorded; increase duration")
    times = times[:recorded]
    times -= config.burn_in
    _nudge_collisions(times)

    total = float(times[-1] if config.duration is None else config.duration)
    return EventStream(times, first_label, n, total, seed=config.seed, spec=spec)


def _nudge_collisions(times: np.ndarray) -> None:
    """Raise, in place, every stamp not above its predecessor to one ulp above it.

    Such rounding collisions are extremely rare. Blocks overlap by one
    stamp, the last one of the previous block, which is final by then; so
    the result equals that of one pass over the whole array.
    """
    for start in range(1, len(times), _NUDGE_BLOCK):
        block = times[start - 1:start + _NUDGE_BLOCK]
        while True:
            bad = np.flatnonzero(np.diff(block) <= 0)
            if len(bad) == 0:
                break
            block[bad + 1] = np.nextafter(block[bad], np.inf)


def _dwell_segments(stream: EventStream) -> tuple[np.ndarray, np.ndarray]:
    """(durations, levels) of every occupation segment, censored ends included.

    Segment i is the dwell that event i ends (the window end cuts off the
    last one), so its level is the label of event i on the ring.
    """
    times = stream.times
    tail_end = max(float(stream.total_duration), float(times[-1]))
    durations = np.diff(np.concatenate(([0.0], times, [tail_end])))
    levels = (stream.first_label - np.arange(len(times) + 1)) % stream.n_levels
    return durations, levels


def time_weighted_occupancy(stream: EventStream) -> np.ndarray:
    """Fraction of the observation time spent in each level."""
    if min(stream.counts) == 0:
        missing = [l for l, c in enumerate(stream.counts) if c == 0]
        raise InsufficientSamples(f"levels never visited: channels {missing} empty")
    durations, levels = _dwell_segments(stream)
    totals = np.bincount(levels, weights=durations, minlength=stream.n_levels)
    return totals / totals.sum()


def occupancy_estimate(config: SimConfig) -> np.ndarray:
    """Simulate one trajectory and return its time-weighted occupancy."""
    return time_weighted_occupancy(simulate(config))


def occupancy_block_estimates(stream: EventStream, n_blocks: int = 100) -> np.ndarray:
    """Per-block occupancy estimates over contiguous cycle blocks.

    Rows are blocks; the row standard deviation / sqrt(n_blocks) is the
    batch-means standard error of the occupancy estimate.
    """
    durations, levels = _dwell_segments(stream)
    n = stream.n_levels
    usable = (len(durations) // n_blocks) * n_blocks
    if usable < n_blocks * n:
        raise InsufficientSamples("too few events for the requested block count")
    block = np.repeat(np.arange(n_blocks), usable // n_blocks)
    occ = np.bincount(
        block * n + levels[:usable], weights=durations[:usable], minlength=n_blocks * n
    ).reshape(n_blocks, n)
    return occ / occ.sum(axis=1, keepdims=True)


def dwell_samples(stream: EventStream, level: int) -> np.ndarray:
    """Uncensored dwell times in one level (gaps preceding its departures)."""
    n, level = stream.n_levels, check_index("level", level)
    if not 0 <= level < n:
        raise ConfigInvalid(f"level {level} outside [0, {n})")
    # gap j ends event j + 1, whose label is level when j = first - level - 1 mod N
    return np.diff(stream.times)[(stream.first_label - level - 1) % n :: n]


# ---------------------------------------------------------------------------
# Event stream file formats


def write_events_text(stream: EventStream, path) -> None:
    """Plain-text format: header line, then '<timestamp> <label>' per event."""
    times, n = stream.times, stream.n_levels
    seed = stream.seed if stream.seed is not None else 0
    with open(path, "w") as fh:
        fh.write(
            f"# cascade-events v1 N={stream.n_levels} seed={seed} "
            f"T={stream.total_duration:.17g}\n"
        )
        for start in range(0, len(times), _TEXT_BLOCK):
            stop = min(start + _TEXT_BLOCK, len(times))
            labels = (stream.first_label - np.arange(start, stop)) % n
            fh.write("".join(
                f"{t:.17g} {l}\n" for t, l in zip(times[start:stop].tolist(), labels.tolist())
            ))
        if len(times) == 0:
            fh.write("\n")


def read_events_text(path) -> EventStream:
    with open(path, errors="replace") as fh:  # undecodable bytes fail below
        header = fh.readline().strip()
        fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
        if not header.startswith("# cascade-events v1"):
            raise StreamInvariantViolation(f"bad event stream header: {header!r}")
        try:
            n, seed, total = int(fields["N"]), int(fields["seed"]), float(fields["T"])
        except (KeyError, ValueError):
            raise StreamInvariantViolation(f"bad event stream header: {header!r}") from None
        try:
            data = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:
            raise StreamInvariantViolation(f"malformed event line: {exc}") from None
    if data.size == 0:
        raise StreamInvariantViolation("event stream file has no events")
    if data.shape[1] != 2:
        raise StreamInvariantViolation("event lines must read '<timestamp> <label>'")
    labels = data[:, 1]
    if not np.all(np.isfinite(labels) & (labels == np.floor(labels))):
        raise StreamInvariantViolation("event labels must be whole numbers")
    stream = EventStream.from_labels(data[:, 0], labels.astype(np.int64), n, total, seed=seed)
    stream.check()
    return stream


def write_events_binary(stream: EventStream, path) -> None:
    """Compact binary format, little-endian, bit-exact round trip.

    Layout: magic 'CEV2', then the ``<IIQdQ`` header (u32 N, u32 first
    label, u64 seed, f64 T, u64 count), then the ring's count f64
    timestamps. The labels follow from the first one, so any N fits.
    """
    seed = stream.seed if stream.seed is not None else 0
    header = _BINARY_HEADER.pack(
        stream.n_levels, stream.first_label, seed, stream.total_duration, stream.n_events
    )
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC + header)
        fh.write(np.ascontiguousarray(stream.times, dtype="<f8"))


def read_events_binary(path) -> EventStream:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise StreamInvariantViolation(f"bad magic {magic!r} in binary stream")
        head = fh.read(_BINARY_HEADER.size)
        if len(head) < _BINARY_HEADER.size:
            raise StreamInvariantViolation("binary stream header is truncated")
        n, first, seed, total, count = _BINARY_HEADER.unpack(head)
        # size the body from the file before allocating, so a damaged count
        # cannot ask for a huge buffer
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size == 8 * count:
            times = np.empty(count, "<f8")
            size = fh.readinto(times)
    if size != 8 * count:
        raise StreamInvariantViolation(
            f"binary stream body is {size} bytes, not {count} f64 timestamps"
        )
    # the constructor rejects an unusable N, first label or T and unordered
    # times; check() no events
    stream = EventStream(times, first, n, total, seed=seed)
    stream.check()
    return stream
