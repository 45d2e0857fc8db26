"""Domain types, index conventions and validation shared by all modules.

Conventions (used everywhere in this package):

* Levels are zero-based and cyclic. Level ``l`` has exactly one outgoing
  jump, firing at rate ``rates[l]`` and landing in level ``(l - 1) % N``;
  the jump out of level 0 is the reload that closes the ring (bottom back
  to top), the others are the radiative ladder steps.
* Every selection (a pair, a trace class, a ``SubsetSpec``) names a
  transition by the level it arrives in: after transition ``m`` the
  cascade occupies level ``m``, and it left level ``source_level(m, N)``.
  At tau >= 0 the pair (m, n) starts in level m and reads the occupation
  of the level transition n leaves. The reload is transition N - 1.
* Event streams (files and ``EventStream``) label each event by the level
  its jump leaves: the events of transition ``m`` carry the label
  ``source_level(m, N)``. ``source_level`` is the one place that turns a
  transition into a stream channel; the estimator applies it to its
  selection before it counts.
* Delays are signed. A negative delay mirrors the swapped pair,
  ``g_{m,n}(-s) = g_{n,m}(s)``, and tau = 0 (also -0.0) is the right
  limit ``g_{m,n}(0+)``; the jump of a contiguous pair sits there. Every
  signed-delay trace applies this rule through ``signed_delay``.
* An ``EventStream``'s times strictly increase: its constructor checks
  this with ``check_order``, so no tied or unordered stream, read or built,
  reaches the estimator.
* A delay must be a finite number. ``check_delays`` rejects a string, a
  non-number, NaN and +-inf with ``ConfigInvalid``: ``signed_delay`` applies
  it to every signed-delay trace, and ``g2_equal`` and
  ``small_tau_leading``, which take tau >= 0 only, apply it with ``signed=False``.

Errors: every failure is a ``CascadeError`` of one of four kinds, each
carrying the CLI exit status in ``exit_code``: ``ConfigInvalid`` (2, input
outside the domain), ``NumericalFailure`` (3, lost accuracy or routes that
disagree), ``StreamInvariantViolation`` (4, a malformed event stream) and
``InsufficientSamples`` (5, an empty channel or no peaks). The domain
rule lives here once: a level count is an integer in [1, sys.maxsize]
(``check_levels``), a rate is a finite number > 0 (``check_rate``) and a
class, pair, level or order index is an integer (``check_index``; a bool,
float or string is not), a level of an N-level ring one in [0, N)
(``check_level``) and a pair (m, n) of transitions a tuple of two such
levels (``check_pair``, applied by every pair-taking call: no pair index
is reduced mod N); anything else raises ``ConfigInvalid``. A
``CascadeSpec`` applies the first two when it is built, so every spec that
exists is valid and no function that takes one checks it again.
Every raw-argument entry point applies them to its own arguments, and the
index rule to its indices. The other rules on outside input live here
too: the seed rule (``check_seed``, applied by ``philox`` and
``SimConfig``), the header rule of a ring, in memory or on disk
(``check_header``, applied by ``EventStream`` and both stream readers)
and the subset rule (``SubsetSpec``).

Float range: rates anywhere in [1e-300, 1e300] and any finite delay
give finite values or a ``CascadeError``, never NaN, inf or a numpy
warning. A value whose true size lies past the float64 range raises
``NumericalFailure``; ``signed_delay`` applies that rule to every
signed-delay trace.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

EQUAL_RATE_RTOL = 1e-12
_ORDER_BLOCK = 1 << 16  # timestamps compared per step of check_order


class CascadeError(Exception):
    """Base class for all errors raised by this package.

    Each subclass is one outcome of the CLI and carries its exit status in
    ``exit_code``.
    """

    exit_code: int


class ConfigInvalid(CascadeError, ValueError):
    """An input lies outside the documented domain (bad spec, flag or argument)."""

    exit_code = 2


class NumericalFailure(CascadeError, ArithmeticError):
    """A computation lost accuracy or two routes to the same trace disagree."""

    exit_code = 3


class StreamInvariantViolation(CascadeError, ValueError):
    """An event stream breaks a structural invariant (ordering, ties, cycling)."""

    exit_code = 4


class InsufficientSamples(CascadeError):
    """Too little data for the requested result (empty channel, no peaks)."""

    exit_code = 5


def check_index(name: str, value) -> int:
    """The integer rule for level counts and class, pair, level and order
    indices: ``value`` as an int; numpy integers pass, a bool, float or
    string raises ConfigInvalid naming ``name``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigInvalid(f"{name} must be an integer, got {value!r}")


def check_level(name: str, value, n_levels: int) -> int:
    """The level rule: ``value`` as an int when it is an integer in [0, N)."""
    level = check_index(name, value)
    if not 0 <= level < n_levels:
        raise ConfigInvalid(f"{name} {level} outside [0, {n_levels})")
    return level


def check_pair(pair, n_levels: int) -> tuple[int, int]:
    """The pair rule: ``pair`` as a pair (m, n) of ints when it is a tuple of
    two integers, each a level of the N-level ring, in [0, N)."""
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise ConfigInvalid(f"pair must be a pair (m, n), got {pair!r}")
    m, n = (check_index("channel", c) for c in pair)
    if not (0 <= m < n_levels and 0 <= n < n_levels):
        raise ConfigInvalid(f"channel pair {(m, n)} outside [0, {n_levels})")
    return m, n


def check_levels(n_levels) -> int:
    """The level-count rule: ``n_levels`` as an int when it is an integer >= 1
    and at most ``sys.maxsize``, past which no tuple or array indexes a ring."""
    n = check_index("n_levels", n_levels)
    if n < 1:
        raise ConfigInvalid(f"n_levels must be >= 1, got {n}")
    if n > sys.maxsize:
        raise ConfigInvalid(f"n_levels {n} is more levels than a ring can hold")
    return n


def check_number(name: str, value) -> float:
    """The number rule: ``value`` as a float when it is a real number (a
    string is not, even one that parses, nor an int past the float range);
    otherwise ConfigInvalid naming ``name``."""
    if not isinstance(value, (str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigInvalid(f"{name} = {value!r} is not a number")


def check_positive(name: str, value, error=ConfigInvalid) -> float:
    """The positive rule: ``value`` as a float (``check_number``) when it
    is finite and > 0; otherwise ``error`` naming ``name``."""
    number = check_number(name, value)
    if not 0 < number < math.inf:  # NaN fails too
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return number


def check_rate(name: str, value) -> float:
    """The rate rule: ``value`` as a float (``check_number``) when it is
    finite and > 0; otherwise ConfigInvalid naming ``name``."""
    rate = check_number(name, value)
    if not math.isfinite(rate):
        raise ConfigInvalid(f"{name} = {rate!r} is not finite")
    if rate <= 0:
        raise ConfigInvalid(f"{name} = {rate!r} must be > 0")
    return rate


def check_seed(seed, error=ConfigInvalid) -> int:
    """The seed rule: ``seed`` as an int when it is an integer in [0, 2**64),
    Philox's key range; outside it ``error``, a non-integer ConfigInvalid."""
    seed = check_index("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise error(f"seed must be in [0, 2**64), got {seed}")
    return seed


def philox(seed) -> np.random.Generator:
    """The counter-based generator keyed by ``[seed, 0]`` (``check_seed``)."""
    return np.random.Generator(np.random.Philox(key=np.array([check_seed(seed), 0], np.uint64)))


def check_header(n_levels, total, seed=None, first_label=0) -> tuple:
    """The header rule of a ring: (N, seed, first label) as ints when N is
    in [1, 2**32) (u32), the first label in [0, N), the seed None or valid
    and the window ``total`` finite and > 0; a non-integer or, for
    ``total``, a non-number (``check_number``) raises ConfigInvalid, any
    other violation StreamInvariantViolation."""
    first, n = check_index("first_label", first_label), check_index("n_levels", n_levels)
    if not 1 <= n < 1 << 32:
        raise StreamInvariantViolation(f"N = {n} outside [1, 2**32)")
    if not 0 <= first < n:
        raise StreamInvariantViolation(f"first label {first} outside [0, N)")
    check_positive("total_duration", total, StreamInvariantViolation)
    return n, None if seed is None else check_seed(seed, StreamInvariantViolation), first


def check_delays(tau, signed: bool = True) -> np.ndarray:
    """The delay rule: ``tau`` as a 1-d float array when every delay is a
    number (a bool, integer or real dtype; a string is not) that is finite,
    and also >= 0 unless ``signed``; otherwise ConfigInvalid."""
    try:
        taus = np.atleast_1d(tau).astype(float, casting="same_kind", copy=False)
    except (TypeError, ValueError):  # a string, an object, complex or ragged
        raise ConfigInvalid(f"tau = {tau!r} is not a number") from None
    ok = np.abs(taus) < np.inf if signed else (taus >= 0) & (taus < np.inf)
    if not ok.all():  # NaN fails too
        raise ConfigInvalid("tau must be finite" if signed else "tau must be finite and >= 0")
    return taus


def check_order(times: np.ndarray, previous: float | None = None) -> None:
    """The order rule of a stream: raise StreamInvariantViolation unless
    ``times`` strictly increase and, when ``previous`` is given, start above
    it. NaN fails. Comparing ``_ORDER_BLOCK`` timestamps per step keeps the
    temporaries small for any length."""
    first_ok = previous is None or len(times) == 0 or times[0] > previous
    blocks = (times[lo - 1:lo + _ORDER_BLOCK] for lo in range(1, len(times), _ORDER_BLOCK))
    if not (first_ok and all((block[1:] > block[:-1]).all() for block in blocks)):
        raise StreamInvariantViolation("simultaneous or out-of-order events")


def check_span(ends, total_duration: float) -> None:
    """The window rule of a recorded stream: raise StreamInvariantViolation
    unless ``ends``, its first and last timestamps, exist and lie at most
    ``total_duration`` apart (NaN fails)."""
    if len(ends) == 0:
        raise StreamInvariantViolation("stream contains no events")
    if not ends[-1] - ends[0] <= total_duration * (1 + 1e-9):
        raise StreamInvariantViolation("timestamps span more than total_duration")


def check_labels(labels, n_levels: int, previous=None, at: int = 0) -> None:
    """The label rule of a ring: raise StreamInvariantViolation unless every
    label is a whole number (of an integer or real dtype; a string, None or
    NaN is not) in [0, N) and each is one below the one before it mod N,
    ``previous`` before the first when given. ``at``, the merged index of
    the first label, places a break in the message."""
    labels = np.asarray(labels)
    kind = labels.dtype.kind
    if not (kind in "iu" or kind == "f" and np.isfinite(labels).all()
            and (labels == np.floor(labels)).all()):
        raise StreamInvariantViolation("event labels must be whole numbers")
    if kind == "u":  # an unsigned step would wrap; a label past 2**63 turns negative
        labels = labels.astype(np.int64)
    if len(labels) and not (labels.min() >= 0 and labels.max() < n_levels):
        raise StreamInvariantViolation("event label outside [0, N)")
    steps = np.diff(labels, prepend=labels[:1] + 1 if previous is None else previous)
    bad = np.flatnonzero((steps != -1) & (steps != n_levels - 1))
    if len(bad):
        raise StreamInvariantViolation(f"label cycling broken at merged index {at + bad[0]}")


def source_level(transition, n_levels: int):
    """The level transition ``transition`` leaves, ``(transition + 1) % N``
    (elementwise on an array): the label of its events in a stream, and the
    level whose occupation a pair ending in it reads."""
    return (transition + 1) % n_levels


def level_count(n_events: int, first_label: int, n_levels: int, level: int) -> int:
    """Events at ``level`` among the ``n_events`` events of a ring segment
    whose first event carries ``first_label``."""
    return (n_events - (first_label - level) % n_levels + n_levels - 1) // n_levels


@dataclass(frozen=True)
class CascadeSpec:
    """A one-way cyclic cascade: N levels and the N transition rates.

    ``rates[0]`` is the reload rate; ``rates[j]`` for j >= 1 the relaxation
    rate out of level j. Rates carry units of inverse time. Construction
    applies the domain rule, so every spec that exists lies in the domain.
    """

    n_levels: int
    rates: tuple[float, ...]

    def __post_init__(self):
        n = check_index("n_levels", self.n_levels)
        try:
            rates = tuple(self.rates)
        except TypeError:
            raise ConfigInvalid(f"rates must be a sequence, got {self.rates!r}") from None
        rates = tuple(check_rate(f"rates[{j}]", r) for j, r in enumerate(rates))
        if check_levels(n) != len(rates):
            raise ConfigInvalid(f"expected {n} rates, got {len(rates)}")
        object.__setattr__(self, "n_levels", n)
        object.__setattr__(self, "rates", rates)

    @classmethod
    def equal(cls, n_levels: int, gamma: float = 1.0) -> "CascadeSpec":
        n = check_levels(n_levels)
        return cls(n, (gamma,) * n)

    @property
    def max_rate(self) -> float:
        return max(self.rates)

    @property
    def cycle_time(self) -> float:
        """Mean time for the excitation to go once around the ring."""
        return sum(1.0 / r for r in self.rates)

    def is_equal_rate(self) -> bool:
        return (self.max_rate - min(self.rates)) <= EQUAL_RATE_RTOL * self.max_rate

    def to_json(self) -> str:
        return json.dumps({"n_levels": self.n_levels, "rates": list(self.rates)})

    @classmethod
    def from_json(cls, text: str) -> "CascadeSpec":
        data = json.loads(text)
        return cls(data["n_levels"], tuple(data["rates"]))


def flux_weights(rates) -> np.ndarray:
    """The reciprocals 1 / rates, to which the stationary occupations are
    proportional (flux balance), in units of the power of two at the
    slowest rate: an exact rescaling under which none overflows; a weight
    below the float range is 0."""
    with np.errstate(over="ignore"):  # a rate 2**1024 times the slowest weighs 0
        return 1.0 / np.ldexp(rates, -math.frexp(min(rates))[1])


def steady_state(spec: CascadeSpec) -> np.ndarray:
    """Stationary occupation: p[l] proportional to 1/rates[l] (``flux_weights``)."""
    w = flux_weights(spec.rates)
    return w / w.sum()


def trace_index(m: int, n: int, n_levels: int) -> int:
    """Equal-rate trace class of the pair (m, n): k = (n - m + 1) mod N, the
    offset of the level the pair reads, ``source_level(n, N)``, from level m.

    k = 1 is the autocorrelation class, k = 0 the contiguous-cascade class.
    """
    n_levels = check_levels(n_levels)
    m, n = check_pair((m, n), n_levels)
    return (source_level(n, n_levels) - m) % n_levels


def signed_delay(right, m: int, n: int, tau) -> float | np.ndarray:
    """Signed-delay trace of the pair (m, n) from its tau >= 0 branch.

    ``right(a, b, s)`` evaluates the pair (a, b) on an array of s >= 0.
    Delays tau >= 0 (-0.0 included) take ``right(m, n, tau)``; negative
    delays take the swapped pair, ``right(n, m, -tau)``. Each branch is
    called at most once, on its points in grid order; scalar tau returns
    a float. A NaN or infinite delay raises ConfigInvalid, and a value
    that is not finite, past the float range, NumericalFailure.
    """
    taus = check_delays(tau)
    out = np.empty_like(taus)
    pos = taus >= 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        if pos.any():
            out[pos] = right(m, n, taus[pos])
        if not pos.all():
            out[~pos] = right(n, m, -taus[~pos])
    if not np.isfinite(out).all():
        raise NumericalFailure("g2 value past the float64 range")
    return out if np.ndim(tau) else float(out[0])


@dataclass(frozen=True)
class SubsetSpec:
    """A non-empty set of transitions detected jointly, from any iterable, each
    named by the level it arrives in."""

    members: tuple[int, ...]

    def __post_init__(self):
        try:
            members = tuple(sorted(check_index("subset member", i) for i in self.members))
        except TypeError:
            raise ConfigInvalid(f"subset must be iterable, got {self.members!r}") from None
        if not members:
            raise ConfigInvalid("subset must contain at least one transition")
        if len(set(members)) != len(members):
            raise ConfigInvalid(f"subset members must be distinct, got {members}")
        object.__setattr__(self, "members", members)

    @property
    def n_s(self) -> int:
        return len(self.members)

    def check_against(self, n_levels: int) -> None:
        for i in self.members:
            check_level("subset member", i, n_levels)


@dataclass(frozen=True)
class CorrelationTrace:
    """A sampled g2(tau) trace and the route that computed it.

    ``source`` is one of "analytic", "spectral", "estimated". Estimated
    traces carry per-bin standard errors.
    """

    tau: np.ndarray
    values: np.ndarray
    source: str
    stderr: np.ndarray | None = None

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "values", values)
        if tau.ndim != 1 or values.shape != tau.shape:
            raise ConfigInvalid("tau and values must be 1-d arrays of equal length")
        if np.any(np.diff(tau) <= 0):
            raise ConfigInvalid("tau grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ConfigInvalid("trace values must be finite")
        if np.any(values < 0):
            raise ConfigInvalid("trace values must be non-negative")
        if self.stderr is not None:
            err = np.asarray(self.stderr, dtype=float)
            object.__setattr__(self, "stderr", err)
            if err.shape != tau.shape:
                raise ConfigInvalid("stderr length must match tau grid")


@dataclass(frozen=True)
class EventStream:
    """Emission timestamps of one trajectory, stored as a cyclic ring.

    The jump order is deterministic (level l always relaxes to (l-1) % N),
    so a trajectory is its strictly increasing ``times`` plus the label of
    the first event. Labels are source levels, as in a stream file: event i
    carries label ``(first_label - i) % N``, the level its jump leaves, and
    channel l, the events of transition ``(l - 1) % N`` (``source_level``),
    is the strided view ``times[(first_label - l) % N :: N]``.
    Label cycling, per-channel count balance, the header rule
    (``check_header``) and strict order (checked on construction, NaN
    failing) hold for every stream;
    ``from_labels`` builds a stream from outside (times, labels) input and
    rejects labels that do not cycle. A stream is always a whole ring: the
    estimator (``correlate_blocks``) picks the channels of the transitions
    it correlates.
    ``times`` is stored read-only.

    ``total_duration`` is the length of the observation window; timestamps
    may start at any origin inside a window of that length. ``seed``
    records the seed of a simulated stream when known.
    """

    times: np.ndarray
    first_label: int
    n_levels: int
    total_duration: float
    seed: int | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).view()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        header = check_header(self.n_levels, self.total_duration, self.seed, self.first_label)
        for name, value in zip(("n_levels", "seed", "first_label"), header):
            object.__setattr__(self, name, value)
        if times.ndim != 1:
            raise StreamInvariantViolation("need 1-d times")
        check_order(times)

    @classmethod
    def from_labels(cls, times, labels, n_levels: int, total_duration: float,
                    seed: int | None = None):
        """Build a stream from time-ordered events labeled as in a stream,
        by the level each jump leaves (``source_level``).

        Raises StreamInvariantViolation unless the labels pass the label
        rule (``check_labels``): whole numbers in [0, N), each one below the
        previous one, mod N.
        """
        labels = np.asarray(labels)
        n = check_index("n_levels", n_levels)
        if labels.shape != np.shape(times):
            raise StreamInvariantViolation("times and labels differ in length")
        check_labels(labels, n)
        first = int(labels[0]) if len(labels) else 0
        return cls(times, first, n, total_duration, seed=seed)

    @property
    def counts(self) -> tuple[int, ...]:
        """Events per channel, indexed by stream label (source level)."""
        n, e = self.n_levels, len(self.times)
        return tuple(level_count(e, self.first_label, n, l) for l in range(n))

    @property
    def n_events(self) -> int:
        return len(self.times)

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """Globally time-ordered (timestamps, stream labels)."""
        labels = (self.first_label - np.arange(len(self.times))) % self.n_levels
        return self.times, labels

    def check(self) -> None:
        """Raise StreamInvariantViolation if the stream is empty or outruns its window."""
        times = self.times
        check_span(times[[0, -1]] if len(times) else times, self.total_duration)
