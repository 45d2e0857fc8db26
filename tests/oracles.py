"""Independent oracles for the test suite.

Everything here is built from first principles (dense matrix exponential,
60-digit mpmath exponentials and series, brute-force double sums, the
two-level closed form and the three-level pump limits as plain numpy
formulas) and deliberately avoids the package's own spectral or closed-form code paths.
The occupancy and dwell checks of the simulator take a ring as plain
(times, first label, N, T): event i carries label (first - i) mod N.
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


def g2_two_level(gamma0, gamma1, m, n, tau):
    """Two-level pair correlation from its closed form, arrival-labeled:
    1 - exp(-(g0 + g1)|tau|) for m == n (mod 2); the cross pair (1, 0)
    starts and reads level 1, 1 + (g1/g0) exp(-(g0 + g1) tau) for tau >= 0,
    and mirrors (0, 1), 1 + (g0/g1) exp(-(g0 + g1)|tau|), below 0. tau = 0,
    -0.0 included, is the right limit."""
    tau = np.asarray(tau, dtype=float)
    decay = np.exp(-(gamma0 + gamma1) * np.abs(tau))
    if m % 2 == n % 2:
        return 1.0 - decay
    return 1.0 + np.where((m % 2 == 1) == (tau >= 0), gamma1 / gamma0, gamma0 / gamma1) * decay


def g2_limit_low_pump(gamma0, gamma1, gamma2, tau):
    """Small-excitation (gamma0 -> 0) limit of the three-level pair (2, 1):
    1 + (g2/g0) exp(-g2 tau) for tau >= 0, 1 - exp(g1 tau) below 0."""
    tau = np.asarray(tau, dtype=float)
    s = np.abs(tau)
    right = 1.0 + gamma2 / gamma0 * np.exp(-gamma2 * s)
    return np.where(tau >= 0, right, 1.0 - np.exp(-gamma1 * s))


def g2_limit_high_pump(gamma0, gamma1, gamma2, tau):
    """High-pumping (gamma0 -> inf) limit of the three-level pair (2, 1):
    1 + (g2/g1) exp(-(g1 + g2) tau) for tau >= 0, and
    1 + (g1/g2) exp((g1 + g2) tau) - (1 + g1/g2) exp(g0 tau) below 0."""
    tau = np.asarray(tau, dtype=float)
    s = np.abs(tau)
    decay = np.exp(-(gamma1 + gamma2) * s)
    left = 1.0 + gamma1 / gamma2 * decay - (1.0 + gamma1 / gamma2) * np.exp(-gamma0 * s)
    return np.where(tau >= 0, 1.0 + gamma2 / gamma1 * decay, left)


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
            total += g2_pair_expm(rates, i, j, tau)
    return total / len(members) ** 2


def selection_of(channels, n_levels):
    """The selection that names the stream channels ``channels`` (stream
    labels, the levels the jumps leave): each transition by the level it
    arrives in, one below its label on the ring."""
    return tuple((c - 1) % n_levels for c in channels)


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


def dwell_segments(times, first_label, n_levels, total):
    """(durations, levels) of every occupation segment of a ring, censored
    ends included: segment i is the dwell that event i ends (the window
    end T cuts off the last one), so its level is the label of event i."""
    times = np.asarray(times, dtype=float)
    tail_end = max(float(total), float(times[-1]))
    durations = np.diff(np.concatenate(([0.0], times, [tail_end])))
    levels = (first_label - np.arange(len(times) + 1)) % n_levels
    return durations, levels


def time_weighted_occupancy(times, first_label, n_levels, total):
    """Fraction of the window spent in each level; ValueError when a level
    never emits."""
    durations, levels = dwell_segments(times, first_label, n_levels, total)
    empty = np.flatnonzero(np.bincount(levels[:-1], minlength=n_levels) == 0)
    if len(empty):
        raise ValueError(f"levels never visited: channels {empty.tolist()} empty")
    totals = np.bincount(levels, weights=durations, minlength=n_levels)
    return totals / totals.sum()


def occupancy_block_estimates(times, first_label, n_levels, total, n_blocks=100):
    """Occupancy of each of n_blocks contiguous runs of segments, one row
    per block: the row standard deviation / sqrt(n_blocks) is the
    batch-means standard error of the occupancy."""
    durations, levels = dwell_segments(times, first_label, n_levels, total)
    usable = (len(durations) // n_blocks) * n_blocks
    if usable < n_blocks * n_levels:
        raise ValueError("too few events for the requested block count")
    block = np.repeat(np.arange(n_blocks), usable // n_blocks)
    occ = np.bincount(
        block * n_levels + levels[:usable], weights=durations[:usable],
        minlength=n_blocks * n_levels,
    ).reshape(n_blocks, n_levels)
    return occ / occ.sum(axis=1, keepdims=True)


def simulate_in_chunks(rates, seed, start, total_events=None, duration=None, burn_in=0.0,
                       chunk=1 << 14):
    """(label of the first recorded event, times) of one run of a one-way
    ring with each chunk of ``chunk`` draws held whole: ``np.sum`` and
    ``np.cumsum`` over one array per chunk, the chunk offsets accumulated
    with Kahan compensation. Visit v sits in level (start - v) % N;
    ``start`` None draws it from p proportional to 1 / rates. The stamps
    recorded lie in (burn_in, burn_in + duration] or are the first
    ``total_events`` past burn_in, shifted by -burn_in, and a stamp not
    above its predecessor is raised to one ulp above it. None when nothing
    is recorded."""
    rates = np.asarray(rates, dtype=float)
    n = len(rates)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))
    if start is None:
        weights = 1.0 / rates
        start = int(rng.choice(n, p=weights / weights.sum()))
    horizon = np.inf if duration is None else burn_in + duration
    kept, visit, base, comp, count = [], 0, 0.0, 0.0, 0
    while True:
        visits = visit + np.arange(chunk)
        dwells = rng.standard_exponential(chunk) / rates[(start - visits) % n]
        stamps = np.cumsum(dwells) - comp + base
        y = float(dwells.sum()) - comp
        t = base + y
        comp, base = (t - base) - y, t
        inside = (stamps > burn_in) & (stamps <= horizon)
        kept.append((visits[inside], stamps[inside]))
        count += int(inside.sum())
        visit += chunk
        if stamps[-1] > horizon or (total_events is not None and count >= total_events):
            break
    visits = np.concatenate([v for v, _ in kept])[:total_events]
    if len(visits) == 0:
        return None
    times = np.concatenate([s for _, s in kept])[:total_events] - burn_in
    return (start - int(visits[0])) % n, nudged_in_sequence(times, -math.inf)


def nudged_in_sequence(times, previous):
    """``times`` with each stamp not above the one before it (``previous``
    before the first) raised to one ulp above it, one stamp at a time:
    t_i <- max(t_i, nextafter(t_(i-1), inf))."""
    out = np.asarray(times, dtype=float).tolist()
    for i, t in enumerate(out):
        out[i] = max(t, math.nextafter(previous if i == 0 else out[i - 1], math.inf))
    return np.array(out)


def exact_stamps(rates, seed, start, n_draws):
    """The first ``n_draws`` jump times of a one-way ring started in level
    ``start``, each the exact sum of the dwell times before it rounded once:
    the dwells are kept as Shewchuk's nonoverlapping partials (the algorithm
    of ``math.fsum``), which ``math.fsum`` rounds correctly."""
    rates = np.asarray(rates, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))
    dwells = rng.standard_exponential(n_draws) / rates[(start - np.arange(n_draws)) % len(rates)]
    partials, stamps = [], []
    for x in dwells.tolist():
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        stamps.append(math.fsum(partials))
    return np.array(stamps)
