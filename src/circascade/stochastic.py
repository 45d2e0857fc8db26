"""Continuous-time jump-process simulator for the one-way cascade.

The jump order is deterministic (level l always relaxes to (l-1) % N), so
a trajectory is fully described by its dwell times: visit i sits in level
(start - i) % N for an Exponential(rates[level]) time and emits an event
labeled with the source level at the jump. The simulator therefore keeps
only the jump times and the level of the first recorded visit, which is
exactly an ``EventStream`` ring. Sampling is vectorized in chunks of
exactly ``_CHUNK`` draws, counted from draw 0 whatever the config, each
drawn into one reused buffer and divided by one row of rates, a slice of
the rate cycle tiled once past a chunk's length; the RNG is counter-based
(``model.philox``, keyed by the seed). A stamp is its chunk's running sum
on top of the compensated sum of the chunk totals before it, so it depends
only on the seed, the rates, the start level and its draw index: a run is
a bit-exact prefix of every longer run that shares them. A rounding
collision, a stamp not above the one before it, is nudged to one ulp
above that one, a whole chunk at a time (``_nudge_collisions``).

A stream file is text, a header and then one '<timestamp> <label>' line
per event, or binary, a header with the first label and then the raw f64
times. One writer, ``_write_stream``, writes either from blocks (label of
the first event, times) into a temporary file renamed into place when
complete: ``simulate_to_file`` as the chunks are drawn, ``write_events_*``
from a stream. Both formats are read block by block, ``_READ_BLOCK``
timestamps or lines at a time (``_binary_blocks``, ``_text_blocks``),
each checking its header (``check_header``), the text labels by
``check_labels``; ``_checked`` checks either's order across block seams
and its span. One collector, ``_join``, gathers those blocks or
``simulate``'s chunks into one array for ``read_events_*``, and
``read_event_blocks`` hands out the blocks as they are read, for a
consumer such as ``estimator.correlate_blocks``. Every reader returns the
whole ring: the estimator picks the channels it correlates.
"""

from __future__ import annotations

import contextlib
import os
import re
import struct
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import (
    CascadeSpec,
    ConfigInvalid,
    EventStream,
    InsufficientSamples,
    NumericalFailure,
    StreamInvariantViolation,
    check_header,
    check_index,
    check_labels,
    check_level,
    check_number,
    check_positive,
    check_order,
    check_seed,
    check_span,
    philox,
    steady_state,
)

_CHUNK = 1 << 14  # draws per chunk (128 KiB), counted from draw 0: the seams of every run
_TEXT_BLOCK = 1 << 12  # lines formatted per write
_READ_BLOCK = 1 << 17  # timestamps (1 MiB) or event lines read per step of a reader
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
        if self.duration is not None:
            check_positive("duration", self.duration)
        if self.total_events is not None and check_index("total_events", self.total_events) < 1:
            raise ConfigInvalid("total_events must be >= 1")
        if not 0 <= check_number("burn_in", self.burn_in) < np.inf:  # NaN fails too
            raise ConfigInvalid(f"burn_in must be finite and >= 0, got {self.burn_in!r}")
        if self.initial_level is not None:
            check_level("initial_level", self.initial_level, self.spec.n_levels)
        object.__setattr__(self, "seed", check_seed(self.seed))


def _expected_draws(config: SimConfig) -> int:
    """Draws a run is expected to take, with a four-sigma margin; ConfigInvalid
    past what an array holds (2**60). The window is divided by the cycle time
    first, so an event rate past the float range (inf) overflows only when
    the window is long enough to need that many draws."""
    window = config.burn_in + (config.duration or 0.0)
    est = config.spec.n_levels * (window / config.spec.cycle_time) + (config.total_events or 0)
    draws = est + 4 * np.sqrt(est) + 16
    if not draws < 2.0**60:
        raise ConfigInvalid(f"a run expected to take {draws:g} draws, more than an array holds")
    return int(draws)


def _kept_chunks(config: SimConfig) -> Iterator[tuple[int, np.ndarray]]:
    """Draw one trajectory; yield, chunk by chunk, (label of the first
    stamp, stamps) for every non-empty run of recorded stamps.

    Every chunk holds exactly ``_CHUNK`` draws, counted from draw 0, and is
    drawn into one reused buffer, so the stamps are valid until the next
    chunk is drawn. A chunk's stamps are its ``np.cumsum`` on top of the
    Kahan-compensated sum of the chunk totals before it, so a stamp depends
    only on the seed, the rates, the start level and its draw index. They
    are final: burn-in subtracted and rounding collisions nudged against the
    last stamp yielded before, so they continue one strictly increasing
    stream. Raises ConfigInvalid when the run is expected to take more draws
    than an array holds (``_expected_draws``), NumericalFailure when a kept
    stamp is not finite, and InsufficientSamples when nothing is recorded.
    """
    _expected_draws(config)  # the draw bound: a run past it would draw for ever
    spec = config.spec
    n = spec.n_levels
    rates = np.asarray(spec.rates, dtype=float)
    rng = philox(config.seed)

    if config.initial_level is None:
        start = int(rng.choice(n, p=steady_state(spec)))
    else:
        start = int(config.initial_level)

    horizon = None if config.duration is None else config.burn_in + config.duration

    # visit v sits in level (start - v) % n, so the rates of a chunk from
    # visit v on are the cycle rolled by v: the pattern from its (v % n)-th entry
    pattern = np.tile(rates[(start - np.arange(n)) % n], _CHUNK // n + 2)
    buf = np.empty(_CHUNK)
    visit = 0           # visits before the current chunk
    base = 0.0          # accumulated time at the start of the current chunk
    comp = 0.0          # Kahan compensation for the chunk offsets
    recorded = 0
    last = -np.inf      # last stamp yielded
    while True:
        dwells = rng.standard_exponential(out=buf)
        with np.errstate(over="ignore", invalid="ignore"):  # stamps past float64 raise below
            dwells /= pattern[visit % n:visit % n + _CHUNK]
            chunk_total = float(dwells.sum())
            stamps = np.cumsum(dwells, out=dwells)
            stamps -= comp
            stamps += base

        # stamps never decrease within a chunk, so the kept ones are a slice
        lo = int(np.searchsorted(stamps, config.burn_in, side="right"))
        hi = _CHUNK if horizon is None else int(np.searchsorted(stamps, horizon, side="right"))
        if config.total_events is not None:
            hi = min(hi, lo + config.total_events - recorded)
        done = (horizon is not None and stamps[-1] > horizon) or (
            config.total_events is not None and recorded + hi - lo >= config.total_events
        )
        if hi > lo:
            kept = stamps[lo:hi]
            # stamps only grow, and an overflow leaves inf or NaN to the end
            if not np.isfinite(kept[-1]):
                raise NumericalFailure(
                    f"event times overflow float64 (rates down to {min(spec.rates):g})")
            kept -= config.burn_in
            _nudge_collisions(kept, last)
            last = float(kept[-1])
            yield (start - visit - lo) % n, kept
        recorded += hi - lo
        visit += _CHUNK
        if done:
            break
        # compensated accumulation of the chunk total
        y = chunk_total - comp
        t = base + y
        comp = (t - base) - y
        base = t

    if recorded == 0:
        raise InsufficientSamples("no events recorded; increase duration")


def simulate(config: SimConfig) -> EventStream:
    """Run one trajectory and return its event stream.

    Bit-identical output for identical config. Kept stamps go straight
    into one buffer (``_join``), so the returned stream is the only
    full-length copy. Timestamps are strictly increasing by construction
    (coincident rounding collisions are nudged by one ulp).
    """
    first_label, times = _join(_kept_chunks(config),
                               config.total_events or _expected_draws(config))
    total = float(times[-1] if config.duration is None else config.duration)
    return EventStream(times, first_label, config.spec.n_levels, total, seed=config.seed)


def simulate_to_file(config: SimConfig, path, fmt: str) -> None:
    """Run one trajectory and write it, in ``fmt`` "binary" or "text", as it
    is drawn: the bytes of ``write_events_<fmt>(simulate(config), path)``,
    holding one chunk. A text ``total_events`` run is drawn twice, first
    for T."""
    total = config.duration
    if total is None and fmt == "text":  # stamps only grow: T is the largest last one
        total = max(times[-1] for _, times in _kept_chunks(config))
    _write_stream(path, fmt, config.spec.n_levels, config.seed, _kept_chunks(config), total)


def _join(blocks, size: int) -> tuple[int | None, np.ndarray]:
    """(label of the first block, even an empty one, and the times of all
    blocks end to end) of blocks (label of the first event, times), copied
    into one buffer of ``size`` timestamps that doubles when outgrown. The
    buffer is then shrunk in place to the joined times, so a short result
    keeps no unused tail, and a ``size`` that was exact costs no copy."""
    times, first, at = np.empty(size), None, 0
    for label, block in blocks:
        first = label if first is None else first
        if at + len(block) > len(times):
            grown = np.empty(max(2 * len(times), at + len(block)))
            grown[:at] = times[:at]
            times = grown
        times[at:at + len(block)] = block
        at += len(block)
    times.resize(at, refcheck=False)  # in place: no view of the buffer exists yet
    return first, times


def _nudge_collisions(times: np.ndarray, previous: float) -> None:
    """Raise, in place, every stamp not above its predecessor (``previous``
    before the first one) to one ulp above it: the sequential rule
    t_i <- max(t_i, nextafter(t_(i-1), inf)), so nudging a stream chunk by
    chunk, each against the last stamp before it, equals nudging it whole.

    Such rounding collisions are rare; each pass over the chunk settles the
    next stamp of every run of them.
    """
    if times[0] <= previous:
        times[0] = np.nextafter(previous, np.inf)
    while len(bad := np.flatnonzero(times[1:] <= times[:-1])):
        times[bad + 1] = np.nextafter(times[bad], np.inf)


# ---------------------------------------------------------------------------
# Event stream file formats


def write_events_text(stream: EventStream, path) -> None:
    """Plain-text format: header line, then '<timestamp> <label>' per event."""
    _write_stream(path, "text", stream.n_levels, stream.seed or 0,
                  [(stream.first_label, stream.times)], stream.total_duration)


def _text_blocks(path):
    """Generator over a text stream file: first (N, seed, T), then, block
    by block, (label of the first event, times).

    The header and its values (``check_header``) are checked first. Each
    step then parses the next ``_READ_BLOCK`` event lines (``np.loadtxt``
    with ``max_rows`` consumes just those lines) and checks the lines and
    their labels (``check_labels``: whole numbers in [0, N) that cycle),
    across block seams too. A malformed line is named by its row among all.
    """
    with open(path, errors="replace") as fh:  # undecodable bytes fail below
        header = fh.readline().strip()
        fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
        try:
            n, seed, total = int(fields["N"]), int(fields["seed"]), float(fields["T"])
        except (KeyError, ValueError):
            n = None
        if n is None or not header.startswith("# cascade-events v1"):
            raise StreamInvariantViolation(f"bad event stream header: {header!r}")
        yield *check_header(n, total, seed)[:2], total
        rows, label = 0, None
        while True:
            try:
                with warnings.catch_warnings():  # an empty body or line is reported below
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data|Input line", UserWarning)
                    data = np.loadtxt(fh, ndmin=2, max_rows=_READ_BLOCK)
            except ValueError as exc:
                message = re.sub(r"(?<=at row )\d+", lambda row: str(int(row[0]) + rows), str(exc))
                raise StreamInvariantViolation(f"malformed event line: {message}") from None
            if data.size == 0:
                if rows:
                    return
                raise StreamInvariantViolation("event stream file has no events")
            if data.shape[1] != 2:
                raise StreamInvariantViolation("event lines must read '<timestamp> <label>'")
            times, labels = data[:, 0], data[:, 1]
            check_labels(labels, n, label, rows)
            yield int(labels[0]), times
            rows, label = rows + len(times), labels[-1]


def _checked(blocks):
    """A reader's header (N, seed, T[, count]) and blocks (label of the
    first event, times), checked as they pass for strict order across
    block seams and, after the last, for their span against T."""
    header = next(blocks)
    yield header
    ends = []  # first and last timestamp read
    for label, times in blocks:
        check_order(times, ends[-1] if ends else None)
        ends = [ends[0] if ends else times[0], times[-1]]
        yield label, times
    check_span(ends, header[2])


def _read_whole(blocks) -> EventStream:
    """The stream of a reader's blocks, checked as they are joined."""
    blocks = _checked(blocks)
    n_levels, seed, total, *count = next(blocks)
    first, times = _join(blocks, count[0] if count else _READ_BLOCK)
    return EventStream(times, first, n_levels, total, seed=seed)


def read_events_text(path) -> EventStream:
    """Read a text stream file (``_text_blocks``)."""
    return _read_whole(_text_blocks(path))


def write_events_binary(stream: EventStream, path) -> None:
    """Compact binary format, little-endian, bit-exact round trip.

    Layout: magic 'CEV2', then the ``<IIQdQ`` header (u32 N, u32 first
    label, u64 seed, f64 T, u64 count), then the ring's count f64
    timestamps; the labels follow from the first. Every stream's N and seed
    fit (``check_header``). A failed write keeps the old file, or none.
    """
    _write_stream(path, "binary", stream.n_levels, stream.seed or 0,
                  [(stream.first_label, stream.times)], stream.total_duration)


def _write_stream(path, fmt: str, n_levels: int, seed: int, blocks, duration) -> None:
    """Write the ``fmt`` ("binary" or "text") file of a ring fed as blocks
    (label of the first event, times), T ``duration`` or, in binary, the
    last stamp when None: text ``_TEXT_BLOCK`` lines at a time, the binary
    header last, into a sibling temporary file renamed onto ``path`` when
    complete, so a failed write leaves the old file, or none, and no other."""
    if fmt not in ("binary", "text"):
        raise ConfigInvalid(f"stream format must be 'binary' or 'text', got {fmt!r}")
    binary = fmt == "binary"
    partial = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as fh:
            fh.write(bytes(len(_BINARY_MAGIC) + _BINARY_HEADER.size) if binary else
                     f"# cascade-events v1 N={n_levels} seed={seed} "
                     f"T={float(duration):.17g}\n".encode())
            first, count = None, 0
            for label, times in blocks:
                first = label if first is None else first
                count += len(times)
                if binary:
                    fh.write(np.ascontiguousarray(times, dtype="<f8"))
                else:
                    for start in range(0, len(times), _TEXT_BLOCK):
                        part = times[start:start + _TEXT_BLOCK].tolist()
                        labels = (label - np.arange(start, start + len(part))) % n_levels
                        fh.write("".join(
                            f"{t:.17g} {l}\n" for t, l in zip(part, labels.tolist())).encode())
            if binary:
                total = float(times[-1] if duration is None else duration)
                fh.seek(0)
                fh.write(_BINARY_MAGIC + _BINARY_HEADER.pack(n_levels, first, seed, total, count))
            elif count == 0:
                fh.write(b"\n")
        os.replace(partial, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)


def _binary_blocks(path):
    """Generator over a binary stream file: first (N, seed, T, count),
    then, block by block, (label of the first event, times).

    The body is read ``_READ_BLOCK`` timestamps at a time into one reused
    buffer, so a block is valid until the next is drawn. The header, the
    body size and the header's values (``check_header``) are checked
    before the first item.
    """
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
        if size != 8 * count:
            raise StreamInvariantViolation(
                f"binary stream body is {size} bytes, not {count} f64 timestamps")
        check_header(n, total, seed, first)
        yield n, seed, total, count
        block = np.empty(min(count, _READ_BLOCK), "<f8")
        for start in range(0, count, _READ_BLOCK):
            buf = block[:min(_READ_BLOCK, count - start)]
            got = fh.readinto(buf)
            if got != buf.nbytes:  # the file shrank while it was read
                raise StreamInvariantViolation(
                    f"binary stream body is {8 * start + got} bytes, not {count} f64 timestamps"
                )
            yield (first - start) % n, buf


def read_events_binary(path) -> EventStream:
    """Read a binary stream file (``_binary_blocks``)."""
    return _read_whole(_binary_blocks(path))


def read_event_blocks(path) -> tuple[int, float, Iterator[tuple[int, np.ndarray]]]:
    """(N, T, blocks) of a stream file of either format: ``blocks`` yields
    (label of the first event, times) of its ring, in time order.

    The header is checked here and the body as the blocks are drawn, the
    span after the last one, so drawing every block raises what
    ``read_events_binary`` or ``read_events_text`` raises, in the same
    order, while holding one read block; each block is valid until the
    next is drawn.
    """
    with open(path, "rb") as fh:  # any CEV magic is binary: its reader checks and names it
        binary = fh.read(3) == _BINARY_MAGIC[:3]
    blocks = _checked(_binary_blocks(path) if binary else _text_blocks(path))
    n_levels, _, total = next(blocks)[:3]
    return n_levels, total, blocks
