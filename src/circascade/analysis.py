"""Derived results: oscillation-peak extraction, Cauchy-Schwarz violation
reports, tau = 0 discontinuity quantification."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analytic_equal import g2_equal, g2_equal_pair
from .model import (
    CascadeSpec,
    ConfigInvalid,
    InsufficientSamples,
    check_index,
    check_levels,
    check_rate,
    validate,
)
from .spectral_general import g2_general, g2_three_level

PEAK_GRID_STEP = 0.01      # in units of 1/gamma
PEAK_REFINE_TOL = 1e-4     # in units of 1/gamma


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

    def magnitudes(self) -> list[float]:
        return [p.magnitude for p in self.peaks]

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


def _golden_refine(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    invphi = (math.sqrt(5) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


def _scan_peaks(
    n_levels: int, k: int, gamma: float, max_order: int
) -> list[tuple[float, float]]:
    if check_index("max_order", max_order) < 1:
        raise ConfigInvalid(f"max_order must be >= 1, got {max_order}")
    step = PEAK_GRID_STEP / gamma
    found: list[tuple[float, float]] = []
    lo = step
    hi = (max_order + 2) * n_levels / gamma
    for _ in range(2):  # extend the scan once if the range came up short
        taus = np.arange(lo, hi, step)
        if len(taus) < 3:
            break
        g = np.atleast_1d(g2_equal(n_levels, k, gamma, taus))
        rising = g[1:-1] > g[:-2]
        falling = g[1:-1] >= g[2:]
        above = g[1:-1] > 1.0
        for i in np.nonzero(rising & falling & above)[0] + 1:
            f = lambda t: g2_equal(n_levels, k, gamma, t)
            tp = _golden_refine(f, taus[i - 1], taus[i + 1], PEAK_REFINE_TOL / gamma)
            found.append((tp, float(f(tp))))
            if len(found) >= max_order:
                return found
        lo, hi = hi - 2 * step, 2 * hi  # overlap so no seam point is skipped
    return found


def find_peaks(n_levels: int, gamma: float, k: int, max_order: int) -> PeakReport:
    """First max_order local maxima of the class-k equal-rate trace on tau > 0.

    Maxima are located by derivative sign change on a 0.01/gamma grid and
    refined by golden section to within 1e-4/gamma. max_order < 1 raises
    ConfigInvalid; a trace without maxima raises InsufficientSamples.
    """
    n_levels, gamma = check_levels(n_levels), check_rate("gamma", gamma)
    k = check_index("k", k)
    found = _scan_peaks(n_levels, k % n_levels, gamma, max_order)
    if not found:
        raise InsufficientSamples(f"no oscillation maxima for N={n_levels}, k={k}")
    peaks = tuple(
        Peak(order=q + 1, tau=t, magnitude=v) for q, (t, v) in enumerate(found)
    )
    return PeakReport(peaks, n_levels, k % n_levels, gamma, kind="auto")


def find_peaks_cross(n_levels: int, gamma: float, max_order: int) -> PeakReport:
    """Peaks of the opposite-transition cross trace, both delay signs.

    The positive-delay side is class k = floor((N+3)/2); the negative side
    mirrors onto class (2 - k) mod N. For odd N the sides differ and the
    larger peak of each order is reported.
    """
    n_levels, gamma = check_levels(n_levels), check_rate("gamma", gamma)
    k = (n_levels + 3) // 2
    k_mirror = (2 - k) % n_levels
    sides = [_scan_peaks(n_levels, k % n_levels, gamma, max_order)]
    if k_mirror != k % n_levels:
        sides.append(_scan_peaks(n_levels, k_mirror, gamma, max_order))
    n_orders = min(len(s) for s in sides)
    if n_orders == 0:
        raise InsufficientSamples(f"no cross-trace maxima for N={n_levels}")
    peaks = []
    for q in range(min(n_orders, max_order)):
        t, v = max((side[q] for side in sides), key=lambda tv: tv[1])
        peaks.append(Peak(order=q + 1, tau=t, magnitude=v))
    return PeakReport(tuple(peaks), n_levels, k % n_levels, gamma, kind="cross")


@dataclass(frozen=True)
class ViolationSample:
    tau: float
    rhs: float
    violated: bool


@dataclass(frozen=True)
class ViolationReport:
    """Cauchy-Schwarz check g_nn(0) g_mm(0) >= g_nm(tau)^2 over tau samples.

    When the left side vanishes, any positive right side violates the
    inequality with an unbounded ratio; that case is flagged categorically
    instead of reported as a number.
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


def _pair_evaluator(spec: CascadeSpec) -> Callable[[int, int, float], float]:
    if not isinstance(spec, CascadeSpec):
        raise ConfigInvalid(f"spec must be a CascadeSpec, got {type(spec).__name__}")
    validate(spec)
    if spec.is_equal_rate():
        gamma = spec.rates[0]
        return lambda m, n, tau: float(g2_equal_pair(spec.n_levels, m, n, gamma, tau))
    if spec.n_levels == 3:
        return lambda m, n, tau: float(g2_three_level(*spec.rates, m, n, tau))
    return lambda m, n, tau: float(g2_general(spec, m, n, tau))


def cs_check(spec: CascadeSpec, m: int, n: int, tau_samples: Sequence[float]) -> ViolationReport:
    """Report where g_nm(tau)^2 exceeds the classical bound g_nn(0) g_mm(0)."""
    m, n = check_index("m", m), check_index("n", n)
    if m == n:
        raise ConfigInvalid("Cauchy-Schwarz check needs two distinct transitions")
    g = _pair_evaluator(spec)
    lhs = g(n, n, 0.0) * g(m, m, 0.0)
    samples = []
    max_ratio: float | None = None
    infinite = False
    for tau in tau_samples:
        rhs = g(n, m, float(tau)) ** 2
        if lhs > 0:
            violated = rhs > lhs + 1e-12
            if violated:
                ratio = rhs / lhs
                max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
        else:
            violated = rhs > 0.0
            if violated:
                infinite = True
        samples.append(ViolationSample(float(tau), rhs, violated))
    return ViolationReport((m, n), lhs, tuple(samples), infinite, max_ratio)


def discontinuity(spec: CascadeSpec, m: int, n: int) -> tuple[float, float, float]:
    """(left limit, right limit, jump) of the pair (m, n) trace at tau = 0.

    Both limits are exact tau = 0 values on the route `cs_check` uses: the
    left limit of g_{m,n} is the right limit of the swapped pair g_{n,m}.
    """
    g = _pair_evaluator(spec)
    left, right = g(n, m, 0.0), g(m, n, 0.0)
    return left, right, right - left
