"""Domain types, index conventions and validation shared by all modules.

Conventions (used everywhere in this package):

* Levels are zero-based and cyclic. Level ``l`` has exactly one outgoing
  transition, labeled ``l``, firing at rate ``rates[l]`` and landing in
  level ``(l - 1) % N``. Label 0 is the reload step that closes the ring
  (bottom back to top); labels ``1 .. N-1`` are the radiative ladder steps.
* Event streams label emission events by the source level of the jump.
* Correlation-pair indices in the analytic g2 functions label transitions
  by the level the jump arrives in: after detecting transition ``m`` the
  cascade occupies level ``m``, and the pair index ``n`` reads the channel
  that departs from level ``(n + 1) % N``. For equal rates the two
  labelings produce identical traces (only index differences matter); for
  unequal rates an estimated channel pair ``(m, n)`` corresponds to the
  analytic pair ``((m - 1) % N, (n - 1) % N)``.
* Delays are signed. A negative delay mirrors the swapped pair,
  ``g_{m,n}(-s) = g_{n,m}(s)``, and tau = 0 (also -0.0) is the right
  limit ``g_{m,n}(0+)``; the jump of a contiguous pair sits there. Every
  signed-delay trace applies this rule through ``signed_delay``, which
  rejects a NaN delay.

Errors: every failure is a ``CascadeError`` of one of four kinds, each
carrying the CLI exit status in ``exit_code``: ``ConfigInvalid`` (2, input
outside the domain), ``NumericalFailure`` (3, lost accuracy or routes that
disagree), ``StreamInvariantViolation`` (4, a malformed event stream) and
``InsufficientSamples`` (5, an empty channel or no peaks).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

EQUAL_RATE_RTOL = 1e-12


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


@dataclass(frozen=True)
class CascadeSpec:
    """A one-way cyclic cascade: N levels and the N transition rates.

    ``rates[0]`` is the reload rate; ``rates[j]`` for j >= 1 the relaxation
    rate out of level j. Rates carry units of inverse time.
    """

    n_levels: int
    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_levels", int(self.n_levels))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))

    @classmethod
    def equal(cls, n_levels: int, gamma: float = 1.0) -> "CascadeSpec":
        return cls(n_levels, (float(gamma),) * int(n_levels))

    @property
    def max_rate(self) -> float:
        return max(self.rates)

    @property
    def mean_rate(self) -> float:
        return sum(self.rates) / len(self.rates)

    @property
    def cycle_time(self) -> float:
        """Mean time for the excitation to go once around the ring."""
        return sum(1.0 / r for r in self.rates)

    @property
    def cycle_current(self) -> float:
        """Steady-state event rate per channel (flux balance)."""
        return 1.0 / self.cycle_time

    def is_equal_rate(self, rtol: float = EQUAL_RATE_RTOL) -> bool:
        return (self.max_rate - min(self.rates)) <= rtol * self.max_rate

    def to_json(self) -> str:
        return json.dumps({"n_levels": self.n_levels, "rates": list(self.rates)})

    @classmethod
    def from_json(cls, text: str) -> "CascadeSpec":
        data = json.loads(text)
        n = data["n_levels"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigInvalid(f"n_levels must be an integer, got {n!r}")
        spec = cls(n, tuple(data["rates"]))
        validate(spec)
        return spec


def validate(spec: CascadeSpec) -> None:
    """Raise the first violated CascadeSpec invariant; return None when valid."""
    if spec.n_levels < 1:
        raise ConfigInvalid(f"n_levels must be >= 1, got {spec.n_levels}")
    if len(spec.rates) != spec.n_levels:
        raise ConfigInvalid(
            f"expected {spec.n_levels} rates, got {len(spec.rates)}"
        )
    for j, r in enumerate(spec.rates):
        if not math.isfinite(r):
            raise ConfigInvalid(f"rates[{j}] = {r!r} is not finite")
        if r <= 0:
            raise ConfigInvalid(f"rates[{j}] = {r!r} must be > 0")


def trace_index(m: int, n: int, n_levels: int) -> int:
    """Equal-rate trace class of the pair (m, n): k = (n - m + 1) mod N.

    k = 1 is the autocorrelation class, k = 0 the contiguous-cascade class.
    """
    return (n - m + 1) % n_levels


def signed_delay(right, m: int, n: int, tau) -> float | np.ndarray:
    """Signed-delay trace of the pair (m, n) from its tau >= 0 branch.

    ``right(a, b, s)`` evaluates the pair (a, b) on an array of s >= 0.
    Delays tau >= 0 (-0.0 included) take ``right(m, n, tau)``; negative
    delays take the swapped pair, ``right(n, m, -tau)``. Each branch is
    called at most once, on its points in grid order; scalar tau returns
    a float. A NaN delay raises ConfigInvalid.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.isnan(taus).any():
        raise ConfigInvalid("tau must not be NaN")
    out = np.empty_like(taus)
    pos = taus >= 0
    if pos.any():
        out[pos] = right(m, n, taus[pos])
    if not pos.all():
        out[~pos] = right(n, m, -taus[~pos])
    return out if np.ndim(tau) else float(out[0])


@dataclass(frozen=True)
class SubsetSpec:
    """A non-empty set of transition labels detected jointly."""

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(int(i) for i in self.members))
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
            if not 0 <= i < n_levels:
                raise ConfigInvalid(f"subset member {i} outside [0, {n_levels})")


@dataclass(frozen=True)
class CorrelationTrace:
    """A sampled g2(tau) trace with provenance.

    ``source`` is one of "analytic", "spectral", "estimated". Estimated
    traces carry per-bin standard errors, the bin width and the total
    observation time.
    """

    tau: np.ndarray
    values: np.ndarray
    source: str
    spec: CascadeSpec | None = None
    pair: tuple[int, int] | None = None
    subset: SubsetSpec | None = None
    stderr: np.ndarray | None = None
    bin_width: float | None = None
    total_time: float | None = None

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
        if self.source == "estimated":
            if not (self.bin_width and self.bin_width > 0):
                raise ConfigInvalid("estimated traces need a positive bin width")
            if not (self.total_time and self.total_time > 0):
                raise ConfigInvalid("estimated traces need a positive total time")


@dataclass(frozen=True)
class EventStream:
    """Emission timestamps of one trajectory, stored as a cyclic ring.

    The jump order is deterministic (level l always relaxes to (l-1) % N),
    so a trajectory is its strictly increasing ``times`` plus the label of
    the first event: event i carries label ``(first_label - i) % N``, and
    channel l is the strided view ``times[(first_label - l) % N :: N]``.
    Label cycling and per-channel count balance hold by construction;
    ``from_labels`` builds a stream from outside (times, labels) input and
    rejects labels that do not cycle. ``times`` is stored read-only.

    ``total_duration`` is the length of the observation window; timestamps
    may start at any origin inside a window of that length. ``spec`` and
    ``seed`` record provenance when known.
    """

    times: np.ndarray
    first_label: int
    n_levels: int
    total_duration: float
    seed: int | None = None
    spec: CascadeSpec | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).view()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "first_label", int(self.first_label))
        object.__setattr__(self, "n_levels", int(self.n_levels))
        if times.ndim != 1 or not 0 <= self.first_label < self.n_levels:
            raise StreamInvariantViolation("need 1-d times and a first label in [0, N)")
        if not 0 < self.total_duration < math.inf:  # NaN fails too
            raise StreamInvariantViolation(
                f"total_duration must be finite and > 0, got {self.total_duration!r}"
            )

    @classmethod
    def from_labels(cls, times, labels, n_levels: int, total_duration: float,
                    seed: int | None = None, spec: CascadeSpec | None = None):
        """Build a stream from time-ordered events labeled by source level.

        Raises StreamInvariantViolation unless every label lies in [0, N)
        and each label is one below the previous one, mod N.
        """
        labels = np.asarray(labels)
        n = int(n_levels)
        if labels.shape != np.shape(times):
            raise StreamInvariantViolation("times and labels differ in length")
        if len(labels) and not (labels.min() >= 0 and labels.max() < n):
            raise StreamInvariantViolation("event label outside [0, N)")
        steps = np.diff(labels.astype(np.int64, copy=False))
        bad = np.flatnonzero((steps != -1) & (steps != n - 1))
        if len(bad):
            raise StreamInvariantViolation(f"label cycling broken at merged index {bad[0] + 1}")
        first = int(labels[0]) if len(labels) else 0
        return cls(times, first, n, total_duration, seed=seed, spec=spec)

    @property
    def channels(self) -> tuple[np.ndarray, ...]:
        """Per-transition timestamps: strided views into ``times``."""
        n = self.n_levels
        return tuple(self.times[(self.first_label - l) % n :: n] for l in range(n))

    @property
    def counts(self) -> tuple[int, ...]:
        n, e = self.n_levels, len(self.times)
        return tuple((e - (self.first_label - l) % n + n - 1) // n for l in range(n))

    @property
    def n_events(self) -> int:
        return len(self.times)

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """Globally time-ordered (timestamps, labels)."""
        labels = (self.first_label - np.arange(len(self.times))) % self.n_levels
        return self.times, labels

    def check(self) -> None:
        """Verify ordering and window span; raise StreamInvariantViolation."""
        times = self.times
        if len(times) == 0:
            raise StreamInvariantViolation("stream contains no events")
        if not np.all(np.diff(times) > 0):  # NaN fails too
            raise StreamInvariantViolation("simultaneous or out-of-order events")
        if not times[-1] - times[0] <= self.total_duration * (1 + 1e-9):
            raise StreamInvariantViolation("timestamps span more than total_duration")
