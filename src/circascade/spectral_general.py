"""General-rate machinery: generator matrix, stepped-expm
propagation, g2 for arbitrary rates, and the exact N = 3 closed form with
its oscillation regime. No g2 route calls `decompose`; it remains a
standalone eigendecomposition of the generator.

The N = 3 closed form is one expression for all nine pairs, fixed by the
value and slope at tau = 0 of the read level's two decaying modes. It
holds only to eps / p_ss[r] absolute, so it is no route of `analysis.g2`
(the equal-rate form, else `g2_general`); its one job in the package is
the `general` command's N = 3 consistency check.

Propagation needs numpy only. The generator is essentially nonnegative,
so `_expm` shifts it to a nonnegative matrix and sums a Taylor series
with repeated squaring: no terms of opposite sign meet, and every
probability is accurate relative to itself, even deep in the antibunching
dip (Xue and Ye, "Computing exponentials of essentially non-negative
matrices entrywise to high relative accuracy", Math. Comp. 82, 2013).
A negative propagated probability is therefore a failure, not rounding.

Sign convention: the generator Q (columns sum to zero) has eigenvalues
-mu_j with decay rates mu_j >= 0; for equal rates mu_j = gamma (1 - z^j).
Every eigenvalue lambda solves prod_i(lambda + gamma_i) = prod_i gamma_i,
which is the characteristic polynomial of Q and keeps lambda = 0 a root
for every N.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CascadeSpec,
    NumericalFailure,
    check_delays,
    check_level,
    check_pair,
    check_rate,
    flux_weights,
    signed_delay,
    source_level,
    steady_state,
)

DEGENERACY_RTOL = 1e-8


def _rates(*gammas: float) -> tuple[float, ...]:
    """The rate rule applied to the arguments gamma0, gamma1, ..."""
    return tuple(check_rate(f"gamma{i}", g) for i, g in enumerate(gammas))


def generator_matrix(spec: CascadeSpec) -> np.ndarray:
    """N x N generator Q of the cyclic relaxation process: dp/dt = Q p.

    Q[l, l] = -rates[l]; Q[(l-1) % N, l] = +rates[l]; zero elsewhere.
    """
    n = spec.n_levels
    q = np.zeros((n, n))
    for l, r in enumerate(spec.rates):
        q[l, l] -= r
        q[(l - 1) % n, l] += r
    return q


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen data of the generator plus conditioning diagnostics."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse_vectors: np.ndarray
    condition: float
    degenerate: bool


def characteristic_residuals(spec: CascadeSpec, eigvals: np.ndarray) -> np.ndarray:
    """|prod(lam + g_i) - prod(g_i)| / prod(|lam| + g_i); no factor exceeds 1."""
    rates = np.asarray(spec.rates, dtype=float)
    scale = np.abs(eigvals)[:, None] + rates
    return np.abs(np.prod((eigvals[:, None] + rates) / scale, 1) - np.prod(rates / scale, 1))


@functools.lru_cache(maxsize=128)
def decompose(spec: CascadeSpec) -> SpectralDecomposition:
    """Eigendecomposition of the generator, cached per spec.

    Raises NumericalFailure if the solver fails, an eigenvalue acquires a
    positive real part beyond rounding, or the characteristic-polynomial
    residual prod(lambda + gamma_i) - prod(gamma_i) is out of tolerance.
    """
    q = generator_matrix(spec)
    gmax = spec.max_rate
    try:
        eigvals, vectors = np.linalg.eig(q)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigen solver failed: {exc}") from None

    if np.any(eigvals.real > 1e-10 * gmax):
        raise NumericalFailure("generator eigenvalue with positive real part")

    # pin the zero mode exactly; it always exists (det Q = 0)
    zero_idx = int(np.argmin(np.abs(eigvals)))
    if abs(eigvals[zero_idx]) > 1e-8 * gmax * spec.n_levels:
        raise NumericalFailure("no eigenvalue numerically at zero")
    eigvals = eigvals.copy()
    eigvals[zero_idx] = 0.0

    if spec.n_levels > 1:
        diffs = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(diffs, np.inf)
        degenerate = bool(diffs.min() < DEGENERACY_RTOL * gmax)
    else:
        degenerate = False

    try:
        inverse = np.linalg.inv(vectors)
        condition = float(np.linalg.cond(vectors))
    except np.linalg.LinAlgError:
        inverse = np.full_like(vectors, np.nan)
        condition = np.inf
    # an exactly degenerate spectrum splits its computed eigenvalues at the
    # sqrt(eps) scale, past the gap rule; ill conditioning catches those
    if condition > 1e6:
        degenerate = True

    if not degenerate:
        residuals = characteristic_residuals(spec, eigvals)
        worst = int(np.argmax(residuals))  # the first NaN, if any
        if not residuals[worst] <= 1e-8 * spec.n_levels:  # NaN fails too
            raise NumericalFailure(
                f"characteristic residual {residuals[worst]:.3e} "
                f"for eigenvalue {eigvals[worst]}"
            )

    return SpectralDecomposition(eigvals, vectors, inverse, condition, degenerate)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of an essentially nonnegative a (a ring generator times
    t >= 0), accurate entry by entry relative to itself (Xue and Ye 2013).

    With s = max(-a[i, i]), B = a + s I >= 0, so exp(a) = e^-s exp(B)
    sums no terms of opposite sign: a Taylor polynomial of B / 2^k, k =
    ceil(log2(N - 1 + s)), of the least degree m with 2^k / (m + 1)! <=
    2^-53, times e^(-s / 2^k), then k squarings. Each squaring divides
    every column by its sum, since exp(a) has unit column sums; without
    that the squarings drift by about 2^k eps. A matrix with a NaN or inf
    entry, or a B whose 1-norm overflows, returns all NaN.
    """
    n = len(a)
    shift = float(-a.diagonal().min(initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        b = a + shift * np.eye(n)
        norm = float(np.abs(b).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    k = math.ceil(math.log2(max(1.0, n - 1 + shift)))
    degree = 1
    while math.lgamma(degree + 2) < (k + 53) * math.log(2):  # log (m + 1)!
        degree += 1
    b = np.ldexp(b, -k)
    e = np.eye(n)
    for j in range(degree, 0, -1):  # Horner: T = I + B T / j
        e = np.eye(n) + b @ e / j
    e *= math.exp(-math.ldexp(shift, -k))
    for _ in range(k):
        e = e @ e
        e /= e.sum(axis=0)
    return e


def _clean_probabilities(p: np.ndarray, steps: int) -> np.ndarray:
    """Rows of probabilities over N levels, each the product of at most
    ``steps`` `_expm` step matrices and a unit vector, divided by their sums.

    Every step matrix has column sums 1 +- N eps (`_expm` renormalises
    them), and a product of nonnegative terms is rounded by at most
    another N eps relative, so a row sum may drift by 2 N eps per step;
    the guard allows that and no more. Measured drift is at most a quarter
    of it, and does not grow with the squarings 2^k of the steps (N = 2 to
    160, rates over 10^+-3, k up to 27). A negative or NaN entry, or a row
    sum past the drift, raises NumericalFailure.
    """
    if not p.min() >= 0.0:  # NaN fails too
        raise NumericalFailure(f"propagated probability {p.min():.3e} is not >= 0")
    s = p.sum(axis=-1, keepdims=True)
    drift = 2 * p.shape[-1] * (steps + 1) * np.finfo(float).eps
    if not np.all(np.abs(s - 1.0) <= drift):
        raise NumericalFailure("propagated probabilities do not sum to 1")
    return p / s


def _propagate_grid(spec: CascadeSpec, initial_level: int, taus: np.ndarray) -> np.ndarray:
    """exp(Q tau) e_s for an array of tau >= 0; rows are tau points, stepped
    through the stably sorted taus with one `_expm(Q gap)` per distinct
    gap. Each step multiplies a nonnegative vector by a nonnegative
    matrix, so the relative accuracy of every entry survives the steps."""
    n = spec.n_levels
    initial_level = check_level("initial_level", initial_level, n)
    taus = check_delays(taus, signed=False)
    q = generator_matrix(spec)
    order = np.argsort(taus, kind="stable")
    gaps = np.diff(taus[order], prepend=0.0).tolist()
    with np.errstate(over="ignore"):  # an overflowed step is all NaN and raises below
        steps = {gap: _expm(q * gap) for gap in set(gaps) if gap}
    p = np.eye(n)[initial_level]
    out = np.empty((len(taus), n))
    for row, gap in zip(order, gaps):
        if gap:  # a zero gap repeats the previous row
            p = steps[gap] @ p
        out[row] = p
    return _clean_probabilities(out, len(gaps) - gaps.count(0.0))


def g2_general(spec: CascadeSpec, m: int, n: int, tau) -> float | np.ndarray:
    """Correlation between transition pair (m, n) for arbitrary rates: the
    route of `analysis.g2` for every ring without equal rates, N = 3 included.

    Pair indices name transitions by the level they arrive in (see model
    module): for tau >= 0 the trace is p(level r at tau | level m at 0) / p_ss[r],
    r = source_level(n, N);
    negative delays mirror the swapped pair; tau = 0 is the right limit.
    Rounding depends on the whole stepped array: pass a grid in one call.
    A read level whose occupation is 0, below the float range, raises
    NumericalFailure.
    """
    m, n = check_pair((m, n), spec.n_levels)
    pss = steady_state(spec)

    def right(a, b, s):
        read = source_level(b, spec.n_levels)
        _check_occupation(pss[read], read)
        return _propagate_grid(spec, a, s)[:, read] / pss[read]

    return signed_delay(right, m, n, tau)


def _check_occupation(p: float, level: int) -> None:
    """Raise NumericalFailure unless the stationary occupation ``p`` of the
    read ``level``, the divisor of its g2, is finite and > 0."""
    if not 0 < p < math.inf:
        raise NumericalFailure(f"occupation {float(p):g} of level {level} is outside float64")


# ---------------------------------------------------------------------------
# N = 3 closed forms


def _zeta_squared(*rates: float) -> tuple[float, tuple[float, ...], int]:
    """(zeta^2, rates) of three rates in units of 2^e, and e, where 2^e is
    the power of two at the largest rate: every rate lies below 1 in these
    units, so no square overflows, and the rescaling is exact unless a
    rate goes subnormal. zeta^2 = g0^2 + g1^2 + g2^2 - 2 (g0 g1 + g0 g2 +
    g1 g2), summed in the order given."""
    e = math.frexp(max(rates))[1]
    g0, g1, g2 = (math.ldexp(r, -e) for r in rates)
    return g0 ** 2 + g1 ** 2 + g2 ** 2 - 2 * (g0 * g1 + g0 * g2 + g1 * g2), (g0, g1, g2), e


def g2_three_level(
    gamma0: float, gamma1: float, gamma2: float, m: int, n: int, tau
) -> float | np.ndarray:
    """Three-level closed form for any transition pair and signed tau.

    At tau = s >= 0 the pair (m, n) starts in level a = m and reads level
    r = source_level(n, 3). f(s) = p_r(s) - p_ss[r] lies in the span of the two
    decaying modes (-S +- zeta) / 2, S = g0 + g1 + g2, so its value
    c0 = [a = r] - p_ss[r] and slope d = Q[r, a] at s = 0 fix it:

        f = exp(-S s / 2) [c0 cosh(zeta s / 2) + (d + c0 S / 2) sinh(zeta s / 2) / (zeta / 2)]

    and g = 1 + f / p_ss[r], in real arithmetic: cos and sinc for
    zeta^2 <= 0 (exact at zeta = 0), the slow mode factored out through
    expm1 for zeta^2 > 0. S, zeta^2 and the weights come from the sorted
    rates, so rotating the rates with the pair gives the same bits.
    Negative delays mirror the swapped pair, g_{m,n}(tau) = g_{n,m}(-tau);
    tau = 0 evaluates the right limit.

    Rates and delays are taken in units of the power of two at the
    fastest rate (``_zeta_squared``), p_ss[r] from ``flux_weights``: exact
    rescalings, so no square or reciprocal overflows. A slowest rate more
    than 2^1022 below the fastest is subnormal in those units and loses
    digits; a p_ss[r] of 0 raises NumericalFailure.

    The form is accurate to about eps / p_ss[r] absolute, not relative to
    g. When r is the one fast level and tau has outlived the fast mode,
    the bracket cancels to O(p_ss[r]): at rates (0.001, 1000, 0.001),
    pair (1, 0), tau = 0.1, g = 1.96e-4 is off by 2.2e-10 (1.1e-6
    relative). `g2_general` is accurate entry by entry there, so
    `analysis.g2` propagates and this form cross-checks `general` only.
    """
    rates = _rates(gamma0, gamma1, gamma2)
    m, n = check_pair((m, n), 3)
    z2, (lo, mid, hi), e = _zeta_squared(*sorted(rates))
    units = [math.ldexp(r, -e) for r in rates]
    total = lo + mid + hi
    weights = flux_weights(rates).tolist()
    inverse_sum = sum(sorted(weights, reverse=True))  # 1/lo + 1/mid + 1/hi

    def right(a, b, s):
        r = source_level(b, 3)
        p = weights[r] / inverse_sum
        _check_occupation(p, r)
        c0 = (a == r) - p
        d = -units[a] if r == a else units[a] if r == (a - 1) % 3 else 0.0
        v = d + c0 * total / 2
        s = np.ldexp(s, e)
        if z2 <= 0:
            w = math.sqrt(-z2) / 2
            decay = np.exp(-total / 2 * s)
            f = decay * (c0 * np.cos(w * s) + v * s * np.sinc(w * s / math.pi))
            f[decay == 0] = 0.0  # decayed: the bracket is NaN at s = inf
        else:
            h = math.sqrt(z2) / 2
            slow = (lo * mid + lo * hi + mid * hi) / (total / 2 + h)  # S/2 - h, no cancellation
            em1 = np.expm1(-2 * h * s)
            f = np.exp(-slow * s) * (c0 * (1 + em1 / 2) - v * em1 / (2 * h))
        return 1.0 + f / p

    return signed_delay(right, m, n, tau)


class OscillationRegime(enum.Enum):
    OSCILLATORY = "oscillatory"
    OVERDAMPED = "overdamped"
    BOUNDARY = "boundary"


def oscillation_condition(gamma0: float, gamma1: float, gamma2: float) -> OscillationRegime:
    """Decay regime of the three-level correlations from the sign of zeta^2.

    zeta^2 < 0 (equivalently (sqrt(g0)-sqrt(g1))^2 < g2 < (sqrt(g0)+sqrt(g1))^2)
    gives oscillations; the condition is symmetric in all rate permutations.
    """
    z2, units, _ = _zeta_squared(*_rates(gamma0, gamma1, gamma2))
    if abs(z2) <= 1e-12 * max(units) ** 2:
        return OscillationRegime.BOUNDARY
    return OscillationRegime.OSCILLATORY if z2 < 0 else OscillationRegime.OVERDAMPED
