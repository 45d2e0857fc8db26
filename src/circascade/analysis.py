"""Derived results: oscillation-peak extraction, Cauchy-Schwarz violation
reports, tau = 0 discontinuity quantification.

The peak scan compares neighbours on a uniform grid. Values from the
table-driven mode sum (`analytic_equal._grid_mode_sum`) decide every
comparison their error bound can; the rest, a few percent of the points,
take `g2_equal`'s value, so the maxima found are exactly those of
`g2_equal` on the grid."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .analytic_equal import MODE_CUT, _grid_mode_sum, g2_equal, g2_equal_pair, g2_subset
from .model import (
    CascadeSpec,
    ConfigInvalid,
    InsufficientSamples,
    NumericalFailure,
    SubsetSpec,
    check_index,
    check_levels,
    check_number,
    check_pair,
    check_rate,
)
from .spectral_general import g2_general

PEAK_GRID_STEP = 0.01      # in units of 1/gamma
PEAK_REFINE_TOL = 1e-4     # in units of 1/gamma
PEAK_SCAN_WINDOW = 4096    # grid points per window of the peak scan
_INVPHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Peak:
    order: int
    tau: float
    magnitude: float


@dataclass(frozen=True)
class PeakReport:
    """Successive local maxima of one correlation trace, above the Poisson level."""

    peaks: tuple[Peak, ...]
    n_levels: int
    k: int
    gamma: float
    kind: str = "auto"

    def __post_init__(self):
        taus = [p.tau for p in self.peaks]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ConfigInvalid("peak locations must be increasing")
        if any(p.magnitude <= 1.0 for p in self.peaks):
            raise ConfigInvalid("peaks are excursions above the Poisson level")

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "n_levels": self.n_levels,
                "k": self.k,
                "gamma": self.gamma,
                "peaks": [
                    {"order": p.order, "tau": p.tau, "g2": p.magnitude}
                    for p in self.peaks
                ],
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv(self) -> str:
        lines = ["order,tau,g2"]
        lines += [f"{p.order},{p.tau:.17g},{p.magnitude:.17g}" for p in self.peaks]
        return "\n".join(lines) + "\n"


def _golden_refine(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, tol: float
) -> np.ndarray:
    """Midpoints of the golden-section maxima of f on every bracket [a_i, b_i].

    Each bracket follows the scalar update rules and leaves the active set
    once b - a <= tol; the next probes of all active brackets come from one
    call of f on an array, so f must be elementwise.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = np.split(f(np.concatenate([c, d])), 2)
    while (active := b - a > tol).any():
        left = active & (fc > fd)
        right = active & ~left
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - _INVPHI * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + _INVPHI * (b[right] - a[right])
        fc[left], fd[right] = np.split(
            f(np.concatenate([c[left], d[right]])), [np.count_nonzero(left)]
        )
    return (a + b) / 2


def _grid_brackets(n_levels: int, k: int, gamma: float) -> Iterator[tuple[float, float]]:
    """(tau_{i-1}, tau_{i+1}) around each grid maximum above 1, in tau order.

    The grid is tau_i = step + i * step, taken PEAK_SCAN_WINDOW points at a
    time with the last two points carried across each seam. It ends with
    the first window past gamma tau d_1 = MODE_CUT: the mode sum keeps no
    pair there, so g2 is exactly 1 and no maximum above 1 can follow.

    Each window's values come from `_grid_mode_sum`, each within a bound of
    g2_equal's. A point within its bound of 1, and both points of a
    neighbour pair no further apart than their two bounds, take g2_equal's
    own value; every other comparison has the sign it has on g2_equal's
    values. So the maxima are exactly those of g2_equal on the grid.
    """
    step = PEAK_GRID_STEP / gamma
    slowest = 2 * gamma * math.sin(math.pi / n_levels) ** 2  # gamma d_1, 0 if it underflows
    tau_flat = 0.0 if n_levels == 1 else MODE_CUT / slowest if slowest else math.inf
    if not tau_flat + (PEAK_SCAN_WINDOW + 1) * step < math.inf:
        raise NumericalFailure(f"gamma = {gamma!r} puts the peak scan past the float64 range")
    taus, g, err = np.empty(0), np.empty(0), np.empty(0)
    for start in itertools.count(0, PEAK_SCAN_WINDOW):
        window = step + np.arange(start, start + PEAK_SCAN_WINDOW) * step
        approx, bound = _grid_mode_sum(n_levels, k, gamma, window, step)
        taus = np.concatenate([taus[-2:], window])
        g = np.concatenate([g[-2:], approx])
        err = np.concatenate([err[-2:], bound])
        close = np.abs(np.diff(g)) <= err[:-1] + err[1:]
        doubt = np.abs(g - 1.0) <= err
        doubt[:-1] |= close
        doubt[1:] |= close
        idx = np.flatnonzero(doubt)
        if idx.size:
            g[idx], err[idx] = g2_equal(n_levels, k, gamma, taus[idx]), 0.0
        mid = g[1:-1]
        for i in np.flatnonzero((mid > g[:-2]) & (mid >= g[2:]) & (mid > 1.0)):
            yield float(taus[i]), float(taus[i + 2])
        if taus[-1] > tau_flat:
            return


def _peak_report(
    n_levels: int, gamma: float, classes: list[int], max_order: int, kind: str, missing: str
) -> PeakReport:
    """The first max_order maxima of each class's trace, keeping the larger
    peak of each order (the first class's on a tie) over the classes, each
    scanned once; InsufficientSamples(missing) when one class has none."""
    if check_index("max_order", max_order) < 1:
        raise ConfigInvalid(f"max_order must be >= 1, got {max_order}")
    sides = []
    for k in dict.fromkeys(classes):
        # zip stops at the range's end before it asks the scan for more
        found = [b for _, b in zip(range(max_order), _grid_brackets(n_levels, k, gamma))]
        if found:
            f = lambda t: g2_equal(n_levels, k, gamma, t)
            taus = _golden_refine(f, *np.array(found).T, PEAK_REFINE_TOL / gamma)
            found = list(zip(taus.tolist(), f(taus).tolist()))
        sides.append(found)
    if not all(sides):
        raise InsufficientSamples(missing)
    best = (max(tvs, key=lambda tv: tv[1]) for tvs in zip(*sides))
    peaks = tuple(Peak(order=q, tau=t, magnitude=v) for q, (t, v) in enumerate(best, 1))
    return PeakReport(peaks, n_levels, classes[0], gamma, kind=kind)


def find_peaks(n_levels: int, gamma: float, k: int, max_order: int) -> PeakReport:
    """First max_order local maxima of the class-k equal-rate trace on tau > 0.

    Maxima are located by derivative sign change on a 0.01/gamma grid,
    scanned PEAK_SCAN_WINDOW points at a time until the max_order-th
    maximum or until the trace is exactly 1. The grid values come from the
    table-driven mode sum; g2_equal re-evaluates only the points where its
    error bound leaves a comparison open, so the maxima are those of
    g2_equal. One golden section on g2_equal, batched over all of them,
    then refines each to within 1e-4/gamma. max_order < 1 raises
    ConfigInvalid; a trace without maxima raises InsufficientSamples.
    """
    n_levels, gamma = check_levels(n_levels), check_rate("gamma", gamma)
    k = check_index("k", k)
    return _peak_report(n_levels, gamma, [k % n_levels], max_order, "auto",
                        f"no oscillation maxima for N={n_levels}, k={k}")


def find_peaks_cross(n_levels: int, gamma: float, max_order: int) -> PeakReport:
    """Peaks of the opposite-transition cross trace, both delay signs.

    The positive-delay side is class k = floor((N+3)/2); the negative side
    mirrors onto class (2 - k) mod N. For odd N the sides differ and the
    larger peak of each order is reported.
    """
    n_levels, gamma = check_levels(n_levels), check_rate("gamma", gamma)
    k = (n_levels + 3) // 2 % n_levels
    return _peak_report(n_levels, gamma, [k, (2 - k) % n_levels], max_order, "cross",
                        f"no cross-trace maxima for N={n_levels}")


@dataclass(frozen=True)
class ViolationSample:
    tau: float
    rhs: float
    violated: bool


@dataclass(frozen=True)
class ViolationReport:
    """Cauchy-Schwarz check g_nn(0) g_mm(0) >= g_nm(tau)^2 over tau samples.

    The left side is 0 on a one-way ring, so any positive right side
    violates the inequality with an unbounded ratio: that is flagged
    (``infinite_ratio``), and ``max_ratio`` stays None.
    """

    pair: tuple[int, int]
    lhs: float
    samples: tuple[ViolationSample, ...]
    infinite_ratio: bool
    max_ratio: float | None

    @property
    def all_violated(self) -> bool:
        return all(s.violated for s in self.samples)

    def to_json(self) -> str:
        return json.dumps(
            {
                "pair": list(self.pair),
                "lhs": self.lhs,
                "infinite_ratio": self.infinite_ratio,
                "max_ratio": self.max_ratio,
                "samples": [
                    {"tau": s.tau, "rhs": s.rhs, "violated": s.violated}
                    for s in self.samples
                ],
            },
            indent=2,
            sort_keys=True,
        )


def _levels(spec: CascadeSpec) -> int:
    """N of the ring ``spec``; ConfigInvalid unless it is a CascadeSpec."""
    if not isinstance(spec, CascadeSpec):
        raise ConfigInvalid(f"spec must be a CascadeSpec, got {type(spec).__name__}")
    return spec.n_levels


def g2(spec: CascadeSpec, selection, tau) -> float | np.ndarray:
    """g2 of a pair (m, n) or a SubsetSpec (equal rates only) of the ring ``spec``
    at signed delays tau. Two routes: the equal-rate closed form, else
    propagation (`g2_general`), accurate relative to itself at any rates.
    The N = 3 closed form is not a route; it only cross-checks `general`."""
    n_levels = _levels(spec)
    if isinstance(selection, SubsetSpec):
        if not spec.is_equal_rate():
            raise ConfigInvalid("a subset g2 needs equal rates")
        return g2_subset(n_levels, selection, spec.rates[0], tau)
    m, n = check_pair(selection, n_levels)
    if spec.is_equal_rate():
        return g2_equal_pair(n_levels, m, n, spec.rates[0], tau)
    return g2_general(spec, m, n, tau)


def cs_check(spec: CascadeSpec, m: int, n: int, tau_samples: Sequence[float]) -> ViolationReport:
    """Report where g_nm(tau)^2 exceeds the classical bound g_nn(0) g_mm(0);
    a square past the float range raises NumericalFailure."""
    m, n = check_pair((m, n), _levels(spec))
    if m == n:
        raise ConfigInvalid("Cauchy-Schwarz check needs two distinct transitions")
    # 0 on every ring: each transition is perfectly antibunched
    lhs = g2(spec, (n, n), 0.0) * g2(spec, (m, m), 0.0)
    # one route call per sample, squared as a Python float: numpy's ** 2
    # can differ by an ulp, and no sample may depend on the others
    taus = [check_number("tau", tau) for tau in tau_samples]
    try:
        rhs = np.array([g2(spec, (n, m), tau) ** 2 for tau in taus], dtype=float)
    except OverflowError:
        raise NumericalFailure("a Cauchy-Schwarz term lies past the float64 range") from None
    violated = rhs > lhs
    samples = tuple(map(ViolationSample, taus, rhs.tolist(), violated.tolist()))
    return ViolationReport((m, n), lhs, samples, bool(violated.any()), None)


def discontinuity(spec: CascadeSpec, m: int, n: int) -> tuple[float, float, float]:
    """(left limit, right limit, jump) of the pair (m, n) trace at tau = 0.

    Both limits are exact tau = 0 values on the route `cs_check` uses: the
    left limit of g_{m,n} is the right limit of the swapped pair g_{n,m}.
    """
    right, left = g2(spec, (m, n), 0.0), g2(spec, (n, m), 0.0)
    return left, right, right - left
