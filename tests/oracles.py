"""Independent oracles for the test suite.

Everything here is built from first principles (dense matrix exponential,
60-digit mpmath exponentials and series, brute-force double sums) and
deliberately avoids the package's own spectral or closed-form code paths.
"""

import functools
import math

import mpmath
import numpy as np
from scipy.linalg import expm


def generator_bruteforce(rates):
    n = len(rates)
    q = np.zeros((n, n))
    for l, g in enumerate(rates):
        q[l, l] -= g
        q[(l - 1) % n, l] += g
    return q


def steady_state_nullspace(rates):
    """Steady state as the null vector of the generator, not flux balance.

    Solves Q p = 0 with the last row replaced by sum(p) = 1, refining a
    double-precision solve with residuals taken in 50-digit mpmath until
    the error is far below the smallest occupation, so a tiny occupation
    is accurate relative to itself once rounded to double.
    """
    return np.array(_nullspace(tuple(float(r) for r in rates)))


@functools.lru_cache(maxsize=None)  # the pair oracles ask again for every tau
def _nullspace(rates, digits=50, refinements=4):
    n = len(rates)
    bordered = generator_bruteforce(rates)
    bordered[n - 1, :] = 1.0
    with mpmath.workdps(digits):
        bordered_mp = _mp_generator(rates)
        rhs = mpmath.zeros(n, 1)
        for j in range(n):
            bordered_mp[n - 1, j] = 1
        rhs[n - 1] = 1
        p = mpmath.zeros(n, 1)
        for _ in range(refinements):
            residual = rhs - bordered_mp * p
            step = np.linalg.solve(bordered, [float(x) for x in residual])
            p += mpmath.matrix(step.tolist())
        return tuple(float(x) for x in p)


def propagate_expm(rates, initial_level, tau):
    q = generator_bruteforce(rates)
    p0 = np.zeros(len(rates))
    p0[initial_level] = 1.0
    return expm(q * tau) @ p0


def g2_pair_expm(rates, m, n, tau):
    """Arrival-labeled pair correlation via dense matrix exponential."""
    nlev = len(rates)
    if tau < 0:
        return g2_pair_expm(rates, n, m, -tau)
    pss = steady_state_nullspace(rates)
    read = (n + 1) % nlev
    return propagate_expm(rates, m % nlev, tau)[read] / pss[read]


def _mp_generator(rates):
    n = len(rates)
    q = mpmath.zeros(n, n)
    for l, g in enumerate(rates):
        q[l, l] -= mpmath.mpf(g)
        q[(l - 1) % n, l] += mpmath.mpf(g)
    return q


def propagate_mpmath(rates, initial_level, step, steps, digits=60):
    """Occupations at step, 2 step, ..., steps * step from one level, each
    entry accurate far below double precision relative to itself.

    One 60-digit mpmath expm of the shifted generator (Q + s I) step >= 0,
    s the largest rate, times e^(-s step): a sum of positive terms, so
    even the tiniest occupation keeps its digits. Returns an array of
    shape (steps, N).
    """
    with mpmath.workdps(digits):
        shift = max(mpmath.mpf(g) for g in rates)
        h = mpmath.mpf(step)
        b = (_mp_generator(rates) + shift * mpmath.eye(len(rates))) * h
        jump = mpmath.expm(b) * mpmath.exp(-shift * h)
        p = mpmath.zeros(len(rates), 1)
        p[initial_level] = 1
        rows = []
        for _ in range(steps):
            p = jump * p
            rows.append([float(x) for x in p])
    return np.array(rows)


def g2_pair_mpmath(rates, m, n, tau):
    """Arrival-labeled pair correlation for tau >= 0 from `propagate_mpmath`."""
    nlev = len(rates)
    read = (n + 1) % nlev
    inverse = [1 / mpmath.mpf(g) for g in rates]
    p = propagate_mpmath(rates, m % nlev, tau, 1)[0, read]
    return p * float(sum(inverse) / inverse[read])


def g2_equal_poisson(n_levels, m, n, gamma, tau, digits=60):
    """Equal-rate pair correlation for tau >= 0 from the Poisson series.

    The excitation takes j steps down the ring by time tau with Poisson
    probability e^(-gamma tau) (gamma tau)^j / j!, so level m reaches the
    read level (n + 1) % N after d, d + N, d + 2N, ... steps, d = (m - n -
    1) mod N; every term is positive, so the sum keeps its digits.
    """
    with mpmath.workdps(digits):
        x = mpmath.mpf(gamma) * mpmath.mpf(tau)
        j = (m - n - 1) % n_levels
        total, term = mpmath.mpf(0), mpmath.exp(-x) * x ** j / mpmath.factorial(j)
        while term > total * mpmath.mpf(10) ** -(digits - 5) or j < 4 * n_levels:
            total += term
            for i in range(j + 1, j + n_levels + 1):
                term *= x / i
            j += n_levels
        return float(n_levels * total)


def g2_subset_bruteforce(n_levels, members, gamma, tau):
    """Literal double sum over the subset, one expm evaluation per pair."""
    rates = [gamma] * n_levels
    total = 0.0
    for i in members:
        for j in members:
            total += g2_pair_expm(rates, (i - 1) % n_levels, (j - 1) % n_levels, tau)
    return total / len(members) ** 2


def pair_histogram_bruteforce(src, dst, bin_width, n_side, same_channel):
    """Coincidence counts by the literal pair rule, one entry per (i, j).

    With W = n_side * bin_width, the pair (i, j) counts when
    fl(src_i - W) <= dst_j < fl(src_i + W), in bin
    floor((dst_j - src_i) / bin_width) + n_side if that lies in
    [0, 2 n_side). With same_channel an event is not paired with itself:
    times are strictly increasing, so those are the pairs with equal times.
    """
    src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
    window = n_side * bin_width
    inside = (dst[:, None] >= src - window) & (dst[:, None] < src + window)
    if same_channel:
        inside &= dst[:, None] != src
    bins = np.floor(np.subtract.outer(dst, src) / bin_width) + n_side
    keep = inside & (bins >= 0) & (bins < 2 * n_side)
    return np.bincount(bins[keep].astype(int), minlength=2 * n_side)


def golden_section_max(f, a, b, tol):
    """Textbook scalar golden-section search for a maximum of f on [a, b].

    Shrinks the bracket one probe at a time (a tie keeps the right part)
    and returns the midpoint of the first bracket no wider than tol.
    """
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
