"""General-rate machinery: generator matrix, steady state, stepped-expm
propagation, g2 for arbitrary rates, and the exact N = 2 and N = 3 closed
forms with their limit expressions. No g2 route calls `decompose`; it
remains a standalone eigendecomposition of the generator.

Sign convention: the generator Q (columns sum to zero) has eigenvalues
-mu_j with decay rates mu_j >= 0; for equal rates mu_j = gamma (1 - z^j).
Every eigenvalue lambda solves prod_i(lambda + gamma_i) = prod_i gamma_i,
which is the characteristic polynomial of Q and keeps lambda = 0 a root
for every N.
"""

from __future__ import annotations

import cmath
import enum
import functools
from dataclasses import dataclass

import numpy as np

from .model import CascadeSpec, ConfigInvalid, NumericalFailure, signed_delay, validate

IMAG_TOL = 1e-10
DEGENERACY_RTOL = 1e-8
NEGATIVE_CLAMP = 1e-12


def generator_matrix(spec: CascadeSpec) -> np.ndarray:
    """N x N generator Q of the cyclic relaxation process: dp/dt = Q p.

    Q[l, l] = -rates[l]; Q[(l-1) % N, l] = +rates[l]; zero elsewhere.
    """
    validate(spec)
    n = spec.n_levels
    q = np.zeros((n, n))
    for l, r in enumerate(spec.rates):
        q[l, l] -= r
        q[(l - 1) % n, l] += r
    return q


def steady_state(spec: CascadeSpec) -> np.ndarray:
    """Stationary occupation: p[l] proportional to 1/rates[l] (flux balance)."""
    validate(spec)
    w = 1.0 / np.asarray(spec.rates, dtype=float)
    return w / w.sum()


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
    validate(spec)
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


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    if not p.min() >= -NEGATIVE_CLAMP:  # NaN fails too
        raise NumericalFailure(f"propagated probability {p.min():.3e} is not >= -1e-12")
    p = np.clip(p, 0.0, None)
    s = p.sum(axis=-1, keepdims=True)
    if not np.all(np.abs(s - 1.0) <= 1e-10):
        raise NumericalFailure("propagated probabilities do not sum to 1")
    return p / s


def _propagate_grid(spec: CascadeSpec, initial_level: int, taus: np.ndarray) -> np.ndarray:
    """exp(Q tau) e_s for an array of tau >= 0; rows are tau points, stepped
    through the stably sorted taus with one expm(Q gap) per distinct gap."""
    from scipy.linalg import expm  # deferred: only propagation needs scipy

    n = spec.n_levels
    if not 0 <= initial_level < n:
        raise ConfigInvalid(f"initial_level {initial_level} outside [0, {n})")
    if not np.all(taus >= 0):  # NaN fails too
        raise ConfigInvalid("tau must be >= 0")
    q = generator_matrix(spec)
    order = np.argsort(taus, kind="stable")
    gaps = np.diff(taus[order], prepend=0.0).tolist()
    steps = {gap: expm(q * gap) for gap in set(gaps) if gap}
    p = np.eye(n)[initial_level]
    out = np.empty((len(taus), n))
    for row, gap in zip(order, gaps):
        if gap:  # a zero gap repeats the previous row
            p = steps[gap] @ p
        out[row] = p
    return _clean_probabilities(out)


def propagate(spec: CascadeSpec, initial_level: int, tau: float) -> np.ndarray:
    """Occupation probabilities after time tau from one level: expm(Q tau)[:, s]."""
    return _propagate_grid(spec, initial_level, np.atleast_1d(float(tau)))[0]


def g2_general(spec: CascadeSpec, m: int, n: int, tau) -> float | np.ndarray:
    """Correlation between transition pair (m, n) for arbitrary rates.

    Pair indices are arrival-labeled (see model module): for tau >= 0 the
    trace is p(level (n+1) % N at tau | level m % N at 0) / p_ss[(n+1) % N];
    negative delays mirror the swapped pair; tau = 0 is the right limit.
    Rounding depends on the whole stepped array: pass a grid in one call.
    """
    validate(spec)
    nlev = spec.n_levels
    pss = steady_state(spec)

    def right(a, b, s):
        read = (b + 1) % nlev
        return _propagate_grid(spec, a, s)[:, read] / pss[read]

    return signed_delay(right, m % nlev, n % nlev, tau)


# ---------------------------------------------------------------------------
# N = 2 closed forms


def g2_two_level(gamma0: float, gamma1: float, m: int, n: int, tau) -> float | np.ndarray:
    """Two-level closed forms, with arrival-labeled pairs as in g2_general.

    Autocorrelations (m == n): 1 - exp(-(g0+g1)|tau|). The cross pair
    (1, 0) starts and reads level 1: 1 + (g1/g0) exp(-(g0+g1) tau) for
    tau >= 0, and 1 + (g0/g1) exp(-(g0+g1)|tau|) for tau < 0, where it
    mirrors (0, 1). tau = 0 is the right limit.
    """
    if gamma0 <= 0 or gamma1 <= 0:
        raise ConfigInvalid("rates must be > 0")

    def right(a, b, s):
        decay = np.exp(-(gamma0 + gamma1) * s)
        if a == b:
            return 1.0 - decay
        return 1.0 + (gamma1 / gamma0 if a == 1 else gamma0 / gamma1) * decay

    return signed_delay(right, m % 2, n % 2, tau)


# ---------------------------------------------------------------------------
# N = 3 closed forms


@dataclass(frozen=True)
class ZetaValue:
    """Discriminant of the three-level decay pair: zeta^2 and its root."""

    zeta_squared: float
    zeta: complex


def zeta_value(gamma0: float, gamma1: float, gamma2: float) -> ZetaValue:
    z2 = (
        gamma0 ** 2 + gamma1 ** 2 + gamma2 ** 2
        - 2 * (gamma0 * gamma1 + gamma0 * gamma2 + gamma1 * gamma2)
    )
    return ZetaValue(z2, cmath.sqrt(complex(z2)))


def _real_checked(vals: np.ndarray) -> np.ndarray:
    residue = np.abs(vals.imag).max() if vals.size else 0.0
    if residue > IMAG_TOL:
        raise NumericalFailure(f"imaginary residue {residue:.3e}")
    out = vals.real.copy()
    out[(out < 0) & (out > -1e-12)] = 0.0
    return out


def _three_auto(g0: float, g1: float, g2v: float, seps: np.ndarray) -> np.ndarray:
    """Autocorrelation at s = |tau|, identical for all three transitions."""
    total = g0 + g1 + g2v
    zv = zeta_value(g0, g1, g2v)
    if abs(zv.zeta) < 1e-12 * total:
        # coalescing decay rates: limit of the two-exponential form
        return 1.0 - (1.0 + total * seps / 2) * np.exp(-total * seps / 2)
    z = zv.zeta
    vals = (
        1.0
        + (total - z) / (2 * z) * np.exp(-(total + z) / 2 * seps)
        - (total + z) / (2 * z) * np.exp(-(total - z) / 2 * seps)
    )
    return _real_checked(np.atleast_1d(vals))


def _three_cross_pos(g0: float, g1: float, g2v: float, taus: np.ndarray) -> np.ndarray:
    """Contiguous cross trace at tau >= 0 (pair (2, 1) with these rates)."""
    total = g0 + g1 + g2v
    zv = zeta_value(g0, g1, g2v)
    c = -g0 + g1 + g2v
    if abs(zv.zeta) < 1e-12 * total:
        d0 = (g0 - g1) * g1 + (2 * g0 + g1) * g2v
        lim = (d0 + c * g1 - c * d0 * taus / 2) * np.exp(-total * taus / 2)
        return np.atleast_1d(1.0 + lim / (2 * g0 * g1))
    z = zv.zeta
    dp = (g0 - g1 + z) * g1 + (2 * g0 + g1) * g2v
    dm = (g0 - g1 - z) * g1 + (2 * g0 + g1) * g2v
    vals = 1.0 + (
        (c + z) * dp * np.exp(-(total + z) / 2 * taus)
        - (c - z) * dm * np.exp(-(total - z) / 2 * taus)
    ) / (4 * z * g0 * g1)
    return _real_checked(np.atleast_1d(vals))


def _three_cross_neg(g0: float, g1: float, g2v: float, seps: np.ndarray) -> np.ndarray:
    """Contiguous cross trace at tau < 0, as a function of s = |tau|."""
    total = g0 + g1 + g2v
    zv = zeta_value(g0, g1, g2v)
    a = g0 - g1 + g2v
    if abs(zv.zeta) < 1e-12 * total:
        b0 = g1 ** 2 + g2v ** 2 - g0 * (g1 + g2v)
        p1 = -b0 - a * (g1 + g2v)
        lim = (p1 - a * b0 * seps / 2) * np.exp(-total * seps / 2)
        return np.atleast_1d(1.0 + lim / (2 * g2v ** 2))
    z = zv.zeta
    bp = g1 ** 2 + g2v ** 2 - (g0 + z) * (g1 + g2v)
    bm = g1 ** 2 + g2v ** 2 - (g0 - z) * (g1 + g2v)
    vals = 1.0 + (
        (a - z) * bp * np.exp(-(total + z) / 2 * seps)
        - (a + z) * bm * np.exp(-(total - z) / 2 * seps)
    ) / (4 * z * g2v ** 2)
    return _real_checked(np.atleast_1d(vals))


# rate rotations mapping each cross pair onto the base (2, 1) trace
_THREE_ROTATIONS = {
    (2, 1): lambda g: (g[0], g[1], g[2]),
    (1, 0): lambda g: (g[2], g[0], g[1]),
    (0, 2): lambda g: (g[1], g[2], g[0]),
}


def g2_three_level(
    gamma0: float, gamma1: float, gamma2: float, m: int, n: int, tau
) -> float | np.ndarray:
    """Three-level closed forms for any transition pair and signed tau.

    Autocorrelations share one trace. The contiguous cross pair (2, 1) is
    the base form; (1, 0) and (0, 2) follow by rotating the rates. On
    tau >= 0 a swapped pair (1, 2), (0, 1) or (2, 0) is the base pair's
    negative-delay branch, and negative delays mirror the swapped pair,
    g_{m,n}(tau) = g_{n,m}(-tau). tau = 0 evaluates the right limit.
    """
    if min(gamma0, gamma1, gamma2) <= 0:
        raise ConfigInvalid("rates must be > 0")
    rates = (gamma0, gamma1, gamma2)

    def right(a, b, s):
        if a == b:
            return _three_auto(*rates, s)
        if (a, b) in _THREE_ROTATIONS:
            return _three_cross_pos(*_THREE_ROTATIONS[(a, b)](rates), s)
        return _three_cross_neg(*_THREE_ROTATIONS[(b, a)](rates), s)

    return signed_delay(right, m % 3, n % 3, tau)


class OscillationRegime(enum.Enum):
    OSCILLATORY = "oscillatory"
    OVERDAMPED = "overdamped"
    BOUNDARY = "boundary"


def oscillation_condition(gamma0: float, gamma1: float, gamma2: float) -> OscillationRegime:
    """Decay regime of the three-level correlations from the sign of zeta^2.

    zeta^2 < 0 (equivalently (sqrt(g0)-sqrt(g1))^2 < g2 < (sqrt(g0)+sqrt(g1))^2)
    gives oscillations; the condition is symmetric in all rate permutations.
    """
    if min(gamma0, gamma1, gamma2) <= 0:
        raise ConfigInvalid("rates must be > 0")
    z2 = zeta_value(gamma0, gamma1, gamma2).zeta_squared
    scale = max(gamma0, gamma1, gamma2) ** 2
    if abs(z2) <= 1e-12 * scale:
        return OscillationRegime.BOUNDARY
    return OscillationRegime.OSCILLATORY if z2 < 0 else OscillationRegime.OVERDAMPED


def g2_limit_low_pump(gamma0: float, gamma1: float, gamma2: float, tau) -> float | np.ndarray:
    """Small-excitation limit of the contiguous three-level cross trace.

    1 - exp(gamma1 tau) for tau < 0; 1 + (gamma2/gamma0) exp(-gamma2 tau)
    for tau >= 0.
    """

    def right(a, b, s):
        if (a, b) == (2, 1):
            return 1.0 + (gamma2 / gamma0) * np.exp(-gamma2 * s)
        return 1.0 - np.exp(-gamma1 * s)

    return signed_delay(right, 2, 1, tau)


def g2_limit_high_pump(gamma0: float, gamma1: float, gamma2: float, tau) -> float | np.ndarray:
    """High-pumping limit of the contiguous three-level cross trace.

    tau < 0: 1 + (g1/g2) exp((g1+g2) tau) - (1 + g1/g2) exp(g0 tau);
    tau >= 0: 1 + (g2/g1) exp(-(g1+g2) tau).
    """

    def right(a, b, s):
        decay = np.exp(-(gamma1 + gamma2) * s)
        if (a, b) == (2, 1):
            return 1.0 + (gamma2 / gamma1) * decay
        return 1.0 + (gamma1 / gamma2) * decay - (1.0 + gamma1 / gamma2) * np.exp(-gamma0 * s)

    return signed_delay(right, 2, 1, tau)


def g2_phenomenological(p: float, gamma1: float, gamma2: float, tau) -> float | np.ndarray:
    """Reference cascade model with a Poissonian heralding stream.

    1 + (1-p)(g2/g1) exp(g2 tau) for tau < 0 and 1 + p (g2/g1) exp(-g2 tau)
    for tau >= 0, where p is the probability of good time ordering.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigInvalid("p must be in [0, 1]")
    if gamma1 <= 0 or gamma2 <= 0:
        raise ConfigInvalid("rates must be > 0")
    ratio = gamma2 / gamma1
    # pair (1, 0) is the good order, its mirror (0, 1) the reversed one
    return signed_delay(
        lambda a, b, s: 1.0 + (p if a == 1 else 1.0 - p) * ratio * np.exp(-gamma2 * s),
        1, 0, tau,
    )
