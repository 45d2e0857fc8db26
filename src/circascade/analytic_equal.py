"""Closed-form correlation functions for the equal-rate cascade.

For N equal rates gamma the positive-tau correlation between any two
transitions depends only on the trace class k = (n - m + 1) mod N:

    g2_k(tau) = 1 + sum_{j=1}^{N-1} z^(j k) exp(-gamma tau (1 - z^j)),
    z = exp(2 i pi / N).

Modes j and N - j are complex conjugates, so the sum is evaluated in real
arithmetic over the pairs j = 1 .. floor((N-1)/2), plus the real mode
j = N/2 when N is even:

    g2_k = 1 + 2 sum_j exp(-x d_j) cos(x sin(theta_j) + 2 pi (j k mod N) / N)
             [+ (-1)^k exp(-2 x)],
    x = gamma tau,  theta_j = 2 pi j / N,  d_j = 1 - cos(theta_j) = 2 sin^2(theta_j / 2),

with d_j in the half-angle form so that small decays keep full relative
precision. d_j grows with j, so at each point only the prefix of pairs
with x d_j <= MODE_CUT is summed: the dropped tail is at most
N exp(-MODE_CUT), about N * 4e-18, below the N * eps rounding of the sum.
The number of pairs kept depends on the point's own x alone, so each
value is a pure function of (N, k, x) and comes out bit-identical however
a grid is split into calls.

The same function has an exact renewal form (the jump chain is a Poisson
process of rate gamma when all rates are equal):

    g2_k(tau) = N e^(-x) sum_{c>=0} x^(d + c N) / (d + c N)!,
    d = (N - k) % N,

which is used for small x where the mode sum loses all significant digits
to cancellation.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .model import (
    ConfigInvalid,
    NumericalFailure,
    SubsetSpec,
    check_delays,
    check_index,
    check_levels,
    check_rate,
    signed_delay,
    trace_index,
)

# below this value of gamma*tau the Poisson series is used instead of the mode sum
SERIES_SWITCH = 1.0
# mode pairs with gamma*tau*d_j above this weigh less than exp(-40) ~ 4e-18
MODE_CUT = 40.0
# negative values down to this many N eps are rounding and clamped to 0
NEGATIVE_ROUNDING = 16
# elements per temporary (points x modes) block of the mode sum
_BLOCK = 1 << 16
_EPS = float(np.finfo(float).eps)


def root_of_unity(n_levels: int) -> complex:
    """exp(2 i pi / N), the primitive N-th root of unity."""
    return cmath.exp(2j * math.pi / check_levels(n_levels))


@functools.lru_cache(maxsize=64)
def _mode_pairs(n_levels: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_j, sin theta_j, class-k phase) of the pairs j = 1 .. floor((N-1)/2)."""
    j = np.arange(1, (n_levels + 1) // 2)
    theta = 2 * np.pi * j / n_levels
    table = (
        2 * np.sin(theta / 2) ** 2,
        np.sin(theta),
        2 * np.pi * ((j * k) % n_levels) / n_levels,
    )
    for column in table:
        column.flags.writeable = False
    return table


def _mode_sum(n_levels: int, k: int, x: np.ndarray) -> np.ndarray:
    decay, freq, phase = _mode_pairs(n_levels, k)
    out = np.ones_like(x)
    if n_levels % 2 == 0:
        out += (-1) ** k * np.exp(-2 * x)
    kept = np.searchsorted(decay, MODE_CUT / x, side="right")
    order = np.argsort(kept, kind="stable")
    # order[ends[m - 1]:ends[m]] are the points that keep m pairs
    ends = np.cumsum(np.bincount(kept)).tolist()
    for m in range(1, len(ends)):
        step = max(1, _BLOCK // m)
        for lo in range(ends[m - 1], ends[m], step):
            idx = order[lo:min(lo + step, ends[m])]
            xs = x[idx, None]
            terms = np.exp(-xs * decay[:m]) * np.cos(xs * freq[:m] + phase[:m])
            out[idx] += 2 * terms.sum(axis=1)
    return out


def _poisson_series(n_levels: int, k: int, x: np.ndarray) -> np.ndarray:
    d = (n_levels - k) % n_levels
    with np.errstate(divide="ignore"):
        logx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
    if d == 0:
        term = np.ones_like(x)
    else:
        term = np.exp(d * logx - math.lgamma(d + 1))
    acc = term.copy()
    j = d
    for _ in range(300):
        step = np.exp(n_levels * logx)
        for i in range(1, n_levels + 1):
            step = step / (j + i)
        term = term * step
        j += n_levels
        acc += term
        if np.all(term <= 1e-18 * np.maximum(acc, 1e-300)):
            break
    return n_levels * np.exp(-x) * acc


def g2_equal(n_levels: int, k: int, gamma: float, tau) -> float | np.ndarray:
    """Equal-rate trace g2 of class k at delay tau >= 0.

    k is reduced mod N. N = 1 returns exactly 1 (Poisson stream).
    Negative rounding down to NEGATIVE_ROUNDING * N * eps is clamped to 0;
    a value below that raises NumericalFailure.
    """
    n_levels, gamma = check_levels(n_levels), check_rate("gamma", gamma)
    taus = check_delays(tau, signed=False)  # signed delays: g2_equal_pair
    k = check_index("k", k) % n_levels
    if n_levels == 1:
        out = np.ones_like(taus)
    else:
        x = gamma * taus
        out = np.empty_like(x)
        small = x < SERIES_SWITCH
        if small.any():
            out[small] = _poisson_series(n_levels, k, x[small])
        if (~small).any():
            out[~small] = _mode_sum(n_levels, k, x[~small])
        bound = NEGATIVE_ROUNDING * n_levels * _EPS
        if np.any(out < -bound):
            raise NumericalFailure(
                f"g2 value {out.min():.3e} below the rounding bound -{bound:.1e}"
            )
        out[out < 0] = 0.0
    return out if np.ndim(tau) else float(out[0])


def g2_equal_pair(n_levels: int, m: int, n: int, gamma: float, tau) -> float | np.ndarray:
    """Signed-delay correlation between transitions m and n (equal rates).

    Negative delays mirror the swapped pair: g_{m,n}(tau) = g_{n,m}(-tau);
    tau = 0 is the right limit.
    """
    n_levels, gamma = check_levels(n_levels), check_rate("gamma", gamma)
    m, n = check_index("m", m), check_index("n", n)
    return signed_delay(
        lambda a, b, s: g2_equal(n_levels, trace_index(a, b, n_levels), gamma, s),
        m, n, tau,
    )


def small_tau_leading(n_levels: int, k: int, gamma: float, tau) -> float | np.ndarray:
    """Leading small-tau behavior of class k, for 1 <= k <= N.

    k < N: N (gamma tau)^(N-k) / (N-k)!   (rise of the suppressed classes)
    k = N: N exp(-gamma tau)              (decay of the contiguous class)

    Where the direct form leaves the float range it is taken in log space;
    a value past that range raises NumericalFailure.
    """
    n_levels, gamma = check_levels(n_levels), check_rate("gamma", gamma)
    k = check_index("k", k)
    if not 1 <= k <= n_levels:
        raise ConfigInvalid(f"k must be in [1, {n_levels}], got {k}")
    taus = check_delays(tau, signed=False)
    with np.errstate(over="ignore", divide="ignore"):  # an inf is raised below; log(0) is -inf
        x = gamma * taus
        if k == n_levels:
            out = n_levels * np.exp(-x)
        else:
            p = n_levels - k  # (N-k)! fits a float up to 170!
            out = n_levels * x ** p / math.factorial(p) if p <= 170 else np.full_like(x, np.inf)
            big = ~np.isfinite(out)
            out[big] = np.exp(math.log(n_levels) + p * np.log(x[big]) - math.lgamma(p + 1))
    if not np.all(np.isfinite(out)):
        raise NumericalFailure(
            f"small_tau_leading exceeds the float64 range at N = {n_levels}, k = {k}")
    return out if np.ndim(tau) else float(out[0])


def g2_subset(n_levels: int, subset: SubsetSpec, gamma: float, tau) -> float | np.ndarray:
    """Correlation of the merged emission from a transition subset (equal rates).

    (1/n_S^2) sum_{i,j in S} g_{i,j}(tau); symmetric in tau. Only the class
    multiplicities matter, so the double sum collapses to one pass over the
    N trace classes.
    """
    n_levels, gamma = check_levels(n_levels), check_rate("gamma", gamma)
    if not isinstance(subset, SubsetSpec):
        subset = SubsetSpec(subset)
    subset.check_against(n_levels)
    members = np.asarray(subset.members)
    classes = (members[None, :] - members[:, None] + 1) % n_levels
    counts = np.bincount(classes.ravel(), minlength=n_levels)

    taus = check_delays(tau)
    acc = np.zeros_like(taus)
    for k in np.flatnonzero(counts):
        # the pair (0, k - 1) is of class k; its mirror is class (2 - k) mod N
        acc += counts[k] * g2_equal_pair(n_levels, 0, k - 1, gamma, taus)
    out = acc / subset.n_s ** 2
    return out if np.ndim(tau) else float(out[0])


def bundle_peak(n_levels: int, n_s: int) -> float:
    """Central superbunching value N (n_S - 1) / n_S^2 of a contiguous bundle."""
    n_levels, n_s = check_levels(n_levels), check_index("n_s", n_s)
    if not 1 <= n_s <= n_levels:
        raise ConfigInvalid(f"bundle size n_s = {n_s} outside [1, {n_levels}]")
    return n_levels * (n_s - 1) / n_s ** 2
