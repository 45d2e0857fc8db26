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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

EQUAL_RATE_RTOL = 1e-12


class CascadeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CascadeError, ValueError):
    """A CascadeSpec field invariant is violated."""


class ZeroLevels(ValidationError):
    pass


class NonPositiveRate(ValidationError):
    pass


class NonFiniteRate(ValidationError):
    pass


class RatesLengthMismatch(ValidationError):
    pass


class ImaginaryResidue(CascadeError):
    """A nominally real result kept a non-negligible imaginary part."""


class KOutOfRange(CascadeError, ValueError):
    pass


class EmptySubset(CascadeError, ValueError):
    pass


class NumericalFailure(CascadeError, ArithmeticError):
    pass


class InvalidConfig(CascadeError, ValueError):
    pass


class ConfigInvalid(CascadeError, ValueError):
    pass


class InsufficientSamples(CascadeError):
    pass


class EmptyChannel(CascadeError, ValueError):
    pass


class NoPeaksFound(CascadeError):
    pass


class StreamInvariantViolation(CascadeError, ValueError):
    """An event stream breaks a structural invariant (ordering, ties, cycling)."""


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
        spec = cls(int(data["n_levels"]), tuple(data["rates"]))
        validate(spec)
        return spec


def validate(spec: CascadeSpec) -> None:
    """Raise the first violated CascadeSpec invariant; return None when valid."""
    if spec.n_levels < 1:
        raise ZeroLevels(f"n_levels must be >= 1, got {spec.n_levels}")
    if len(spec.rates) != spec.n_levels:
        raise RatesLengthMismatch(
            f"expected {spec.n_levels} rates, got {len(spec.rates)}"
        )
    for j, r in enumerate(spec.rates):
        if not math.isfinite(r):
            raise NonFiniteRate(f"rates[{j}] = {r!r} is not finite")
        if r <= 0:
            raise NonPositiveRate(f"rates[{j}] = {r!r} must be > 0")


def trace_index(m: int, n: int, n_levels: int) -> int:
    """Equal-rate trace class of the pair (m, n): k = (n - m + 1) mod N.

    k = 1 is the autocorrelation class, k = 0 the contiguous-cascade class.
    """
    return (n - m + 1) % n_levels


@dataclass(frozen=True)
class SubsetSpec:
    """A non-empty set of transition labels detected jointly."""

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(int(i) for i in self.members))
        if not members:
            raise EmptySubset("subset must contain at least one transition")
        if len(set(members)) != len(members):
            raise EmptySubset(f"subset members must be distinct, got {members}")
        object.__setattr__(self, "members", members)

    @property
    def n_s(self) -> int:
        return len(self.members)

    def check_against(self, n_levels: int) -> None:
        for i in self.members:
            if not 0 <= i < n_levels:
                raise EmptySubset(f"subset member {i} outside [0, {n_levels})")


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
    """Per-transition sorted emission timestamps from one trajectory.

    ``total_duration`` is the length of the observation window; timestamps
    may start at any origin inside a window of that length. ``spec`` and
    ``seed`` record provenance when known.
    """

    channels: tuple[np.ndarray, ...]
    total_duration: float
    seed: int | None = None
    spec: CascadeSpec | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "channels",
            tuple(np.asarray(c, dtype=float) for c in self.channels),
        )
        if not 0 < self.total_duration < math.inf:  # NaN fails too
            raise StreamInvariantViolation(
                f"total_duration must be finite and > 0, got {self.total_duration!r}"
            )

    @property
    def n_levels(self) -> int:
        return len(self.channels)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.channels)

    @property
    def n_events(self) -> int:
        return sum(self.counts)

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """Globally time-ordered (timestamps, labels)."""
        times = np.concatenate(self.channels)
        labels = np.concatenate(
            [np.full(len(c), l, dtype=np.int64) for l, c in enumerate(self.channels)]
        )
        order = np.argsort(times, kind="stable")
        return times[order], labels[order]

    def check(self) -> None:
        """Verify all structural invariants; raise StreamInvariantViolation."""
        n = self.n_levels
        for l, c in enumerate(self.channels):
            if len(c) and np.any(np.diff(c) <= 0):
                raise StreamInvariantViolation(
                    f"channel {l} timestamps not strictly increasing"
                )
        times, labels = self.merged()
        if len(times) == 0:
            raise StreamInvariantViolation("stream contains no events")
        if np.any(np.diff(times) <= 0):
            raise StreamInvariantViolation("simultaneous or out-of-order events")
        if times[-1] - times[0] > self.total_duration * (1 + 1e-9):
            raise StreamInvariantViolation("timestamps span more than total_duration")
        if n > 0 and len(times) > 1:
            expected = (labels[:-1] - 1) % n
            if not np.array_equal(labels[1:], expected):
                bad = int(np.nonzero(labels[1:] != expected)[0][0])
                raise StreamInvariantViolation(
                    f"label cycling broken at merged index {bad + 1}"
                )
        counts = self.counts
        if max(counts) - min(counts) > 1:
            raise StreamInvariantViolation(
                f"per-channel counts spread more than 1: {counts}"
            )
