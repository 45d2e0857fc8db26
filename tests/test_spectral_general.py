import ast
import functools
import inspect
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circascade
from circascade import (
    CascadeError,
    CascadeSpec,
    ConfigInvalid,
    EventStream,
    HistogramConfig,
    OscillationRegime,
    SimConfig,
    SubsetSpec,
    block_bootstrap_stderr,
    bundle_peak,
    correlate,
    correlate_blocks,
    cs_check,
    decompose,
    discontinuity,
    find_peaks,
    find_peaks_cross,
    g2,
    g2_equal,
    g2_equal_pair,
    g2_general,
    g2_subset,
    g2_three_level,
    generator_matrix,
    oscillation_condition,
    simulate,
    small_tau_leading,
    steady_state,
    trace_index,
)
from circascade.model import NumericalFailure
from circascade import spectral_general
from circascade.spectral_general import (
    _expm,
    _propagate_grid,
    _zeta_squared,
    characteristic_residuals,
)

from oracles import (
    expm,
    g2_equal_poisson,
    g2_limit_high_pump,
    g2_limit_low_pump,
    g2_pair_expm,
    g2_pair_mpmath,
    g2_two_level,
    generator_bruteforce,
    propagate_expm,
    propagate_mpmath,
    steady_state_nullspace,
)

# frozen: level 0 at tau = 1 from level 2 of the N = 3 equal ring, dense-expm verified
P_N3_LEVEL0 = 0.18701451580993642

UNBALANCED = (1.0, 1.1, 0.025)


def random_spec(rng, n=None):
    n = n or rng.integers(2, 9)
    return CascadeSpec(int(n), tuple(10 ** rng.uniform(-2, 2, int(n))))


def test_generator_matrix_structure():
    rng = np.random.default_rng(0)
    for _ in range(20):
        spec = random_spec(rng)
        q = generator_matrix(spec)
        np.testing.assert_allclose(q.sum(axis=0), 0.0, atol=1e-12)
        off = q - np.diag(np.diag(q))
        assert np.all(off >= 0)
        assert np.all((off > 0).sum(axis=0) == 1)


def test_steady_state_equal_rates():
    for n in (1, 2, 5, 11):
        np.testing.assert_allclose(
            steady_state(CascadeSpec.equal(n, 2.0)), np.full(n, 1 / n), atol=1e-14
        )


def test_steady_state_unbalanced_three_level():
    p = steady_state(CascadeSpec(3, (1.0, 2.0, 4.0)))
    np.testing.assert_allclose(p, [4 / 7, 2 / 7, 1 / 7], atol=1e-14)


def test_steady_state_flux_balance_and_nullspace():
    rng = np.random.default_rng(1)
    for _ in range(25):
        spec = random_spec(rng)
        p = steady_state(spec)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        current = np.asarray(spec.rates) * p
        assert np.ptp(current) / current.max() <= 1e-10
        q = generator_matrix(spec)
        assert np.abs(q @ p).max() <= 1e-12 * spec.max_rate
        np.testing.assert_allclose(p, steady_state_nullspace(spec.rates), atol=1e-9)


def test_nullspace_oracle_keeps_small_occupations_accurate():
    # flux balance in exact rationals: p[l] is proportional to 1/rates[l]
    rates = (1, 1, 1000)
    weights = [Fraction(1, r) for r in rates]
    exact = np.array([float(w / sum(weights)) for w in weights])
    p = steady_state_nullspace(rates)
    np.testing.assert_allclose(p, exact, rtol=1e-15, atol=0)


def test_decompose_equal_rate_eigenvalues():
    for n in (2, 4, 8, 16, 32):
        gamma = 1.7
        dec = decompose(CascadeSpec.equal(n, gamma))
        expected = -gamma * (1 - np.exp(2j * np.pi * np.arange(n) / n))
        got = sorted(dec.eigenvalues, key=lambda z: (round(z.real, 9), z.imag))
        want = sorted(expected, key=lambda z: (round(z.real, 9), z.imag))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * gamma)
        assert not dec.degenerate


def test_decompose_four_level_explicit():
    dec = decompose(CascadeSpec.equal(4, 1.0))
    expected = {0j, -1 + 1j, -2 + 0j, -1 - 1j}
    for w in expected:
        assert min(abs(dec.eigenvalues - w)) < 1e-10


def test_decompose_two_level():
    dec = decompose(CascadeSpec(2, (0.7, 2.4)))
    vals = sorted(dec.eigenvalues, key=lambda z: z.real)
    assert vals[1] == pytest.approx(0.0, abs=1e-14)
    assert vals[0] == pytest.approx(-3.1, abs=1e-12)


def test_decompose_single_level():
    dec = decompose(CascadeSpec(1, (1.0,)))
    assert dec.eigenvalues.tolist() == [0.0]


def test_decompose_stability_and_zero_mode():
    rng = np.random.default_rng(2)
    for _ in range(25):
        spec = random_spec(rng)
        dec = decompose(spec)
        assert np.all(dec.eigenvalues.real <= 1e-10 * spec.max_rate)
        assert np.min(np.abs(dec.eigenvalues)) == 0.0


def test_degenerate_flag_on_boundary_rates():
    # (1, 1, 4) has a double decay rate 3: the spectral path must step aside
    assert decompose(CascadeSpec(3, (1.0, 1.0, 4.0))).degenerate


def test_decompose_residual_check_survives_wide_rate_spread():
    # rates over 10^+-3 at N = 160 overflowed the unscaled products to NaN,
    # which slipped past a `residual > tol` guard
    rates = 10 ** np.random.default_rng(163).uniform(-3, 3, 160)
    spec = CascadeSpec(160, tuple(rates))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            dec = decompose(spec)
        except NumericalFailure:
            return
        residuals = characteristic_residuals(spec, dec.eigenvalues)
    assert np.all(np.isfinite(residuals))


def test_characteristic_residuals_flag_roots_only():
    spec = CascadeSpec.equal(4, 1.0)
    roots = np.array([0.0, -1 + 1j, -2.0, -1 - 1j])
    assert characteristic_residuals(spec, roots).max() <= 1e-15
    # (1/3)^4 - (2/3)^4 at lambda = -1/2
    assert characteristic_residuals(spec, np.array([-0.5]))[0] == pytest.approx(15 / 81)


def _spread_case(n, decades, seed):
    rates = tuple(10 ** np.random.default_rng(seed).uniform(-decades, decades, n))
    span = 3.0 * sum(1.0 / r for r in rates)  # three mean cycle times
    return CascadeSpec(n, rates), np.linspace(-span, span, 601)


def _oracle_gap(spec, m, k, taus, values, rng, samples=12):
    rows = rng.choice(len(taus), samples, replace=False)
    return max(
        abs(values[i] - g2_pair_expm(spec.rates, m, k, taus[i])) for i in rows
    )


@pytest.mark.parametrize(
    "n, decades", [(80, 1), (80, 2), (160, 1), (160, 2)],
)
def test_g2_general_stepped_grid_matches_expm_oracle(n, decades):
    spec, taus = _spread_case(n, decades, seed=100 * n + decades)
    values = g2_general(spec, 2, 1, taus)
    assert np.all(np.isfinite(values)) and np.all(values >= 0)
    rng = np.random.default_rng(n + decades)
    assert _oracle_gap(spec, 2, 1, taus, values, rng) <= 1e-10


def test_g2_general_order_independent_on_shuffled_grid():
    rng = np.random.default_rng(12)
    spec = CascadeSpec(7, tuple(10 ** rng.uniform(-1, 1, 7)))
    taus = np.concatenate([rng.uniform(-20, 20, 60), [0.0, 0.0, 3.5, 3.5, -3.5]])
    taus = np.concatenate([taus, taus[:10]])  # duplicates
    rng.shuffle(taus)
    order = np.argsort(taus)
    shuffled = g2_general(spec, 3, 1, taus)
    ordered = g2_general(spec, 3, 1, taus[order])
    np.testing.assert_array_equal(shuffled[order], ordered)
    assert _oracle_gap(spec, 3, 1, taus, shuffled, rng, samples=20) <= 1e-10


def test_g2_general_stiff_spread_is_checked_or_raises():
    spec, taus = _spread_case(160, 3, seed=163)
    try:
        values = g2_general(spec, 2, 1, taus)
    except NumericalFailure:
        return
    rng = np.random.default_rng(3)
    assert _oracle_gap(spec, 2, 1, taus, values, rng) <= 1e-8


@pytest.mark.parametrize("seed", [163, 1163])
def test_g2_general_stiff_spread_passes_the_row_sum_guard(seed):
    # N = 160, rates over 10^+-3: row sums drift by about 3e-15, inside the
    # guard's 2 N eps per step (4.3e-11 over these 600 steps)
    spec, taus = _spread_case(160, 3, seed=seed)
    values = g2_general(spec, 2, 1, taus)
    assert np.all(np.isfinite(values)) and np.all(values >= 0)
    assert _oracle_gap(spec, 2, 1, taus, values, np.random.default_rng(seed)) <= 1e-8


@pytest.mark.parametrize("n, decades", [(8, 1), (160, 3)])
def test_a_propagation_off_by_1e_8_raises(monkeypatch, n, decades):
    # every step matrix's columns then sum to 1 + 1e-8
    spec, taus = _spread_case(n, decades, seed=163)
    exact = spectral_general._expm
    monkeypatch.setattr(spectral_general, "_expm", lambda a: exact(a) * (1 + 1e-8))
    with pytest.raises(NumericalFailure, match="do not sum to 1"):
        g2_general(spec, 2, 1, taus)


def test_propagate_identity_at_zero():
    spec = CascadeSpec(4, (1.0, 0.5, 2.0, 3.0))
    for level in range(4):
        p = _propagate_grid(spec, level, np.array([0.0]))[0]
        expected = np.zeros(4)
        expected[level] = 1.0
        np.testing.assert_allclose(p, expected, atol=1e-12)


def test_propagate_ergodic_limit_equal_rates():
    spec = CascadeSpec.equal(3, 1.0)
    np.testing.assert_allclose(
        _propagate_grid(spec, 2, np.array([200.0]))[0], steady_state(spec), atol=1e-8
    )


def test_propagate_ergodic_limit_random_rates():
    rng = np.random.default_rng(3)
    for _ in range(10):
        spec = random_spec(rng, n=5)
        slowest = min(
            -z.real for z in decompose(spec).eigenvalues if abs(z) > 1e-12
        )
        tau = 25.0 / slowest
        np.testing.assert_allclose(
            _propagate_grid(spec, 2, np.array([tau]))[0], steady_state(spec), atol=1e-8
        )


def test_propagate_frozen_value():
    p = _propagate_grid(CascadeSpec.equal(3, 1.0), 2, np.array([1.0]))[0]
    assert p[0] == pytest.approx(P_N3_LEVEL0, abs=1e-12)
    np.testing.assert_allclose(p, propagate_expm([1, 1, 1], 2, 1.0), atol=1e-12)


def test_propagate_simplex_preservation():
    rng = np.random.default_rng(4)
    for _ in range(15):
        spec = random_spec(rng)
        tau = rng.uniform(0, 20) * spec.n_levels / sum(spec.rates)
        p = _propagate_grid(spec, int(rng.integers(spec.n_levels)), np.array([tau]))[0]
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_propagate_degenerate_path_matches_expm():
    spec = CascadeSpec(3, (1.0, 1.0, 4.0))
    for tau in (0.3, 1.7, 6.0):
        np.testing.assert_allclose(
            _propagate_grid(spec, 1, np.array([tau]))[0], propagate_expm(spec.rates, 1, tau),
            atol=1e-10,
        )


# s t, s the largest rate, just below the 1-norm thresholds theta_m / 2 of
# the Pade degrees 3, 5, 7, 9 and 13 (a ring generator's 1-norm is 2 s),
# then at 4 and 1000 theta_13 / 2
SHIFTED_JUMPS = [0.999 * theta / 2 for theta in (1.496e-2, 0.2539, 0.9504, 2.098, 5.372)]
SHIFTED_JUMPS += [4 * 5.372 / 2, 1000 * 5.372 / 2]


def _pade_cases(n, decades):
    """A ring generator times t for each of SHIFTED_JUMPS, and for 1 and 30
    mean cycle times."""
    rates = 10 ** np.random.default_rng(n + decades).uniform(-decades, decades, n)
    q = generator_bruteforce(rates)
    times = [jump / rates.max() for jump in SHIFTED_JUMPS]
    times += [sum(1 / rates), 30 * sum(1 / rates)]
    return [q * t for t in times]


# the gap at 10^+-2 and 10^+-3 is the oracle's own squaring drift: measured
# 2.7e-12 and 2.0e-10, while _expm keeps its column sums within 7.8e-16
@pytest.mark.parametrize("decades, tol", [(1, 1e-13), (2, 1e-11), (3, 1e-9)])
@pytest.mark.parametrize("n", [3, 12, 48, 160])
def test_expm_matches_the_dense_oracle_on_every_pade_branch(n, decades, tol):
    for a in _pade_cases(n, decades):
        got = _expm(a)
        assert np.abs(got - expm(a)).max() <= tol
        assert np.abs(got.sum(axis=0) - 1.0).max() <= 1e-12


def test_expm_of_the_zero_matrix_and_of_one_by_one_matrices():
    np.testing.assert_array_equal(_expm(np.zeros((4, 4))), np.eye(4))
    assert _expm(generator_matrix(CascadeSpec(1, (2.0,)))).tolist() == [[1.0]]


DIP_GRID = np.linspace(0.0, 8.0, 1601)


def _relative_gap(got, ref):
    ref = np.asarray(ref)
    return np.abs(got - ref) / np.where(ref > 0, ref, 1.0)  # exact where ref == 0


@pytest.mark.parametrize("nlev", range(3, 13))
def test_equal_rate_dip_of_every_pair_is_relatively_accurate(nlev):
    # g2 ~ tau^d near 0 for a pair whose read level is d steps away: an
    # absolute error of eps would swamp it
    spec, taus = CascadeSpec.equal(nlev, 1.0), DIP_GRID[:41]
    for k in range(nlev):
        ref = [g2_equal_poisson(nlev, 0, k, 1.0, t) for t in taus]
        for m in range(nlev):
            got = g2_general(spec, m, (m + k) % nlev, taus)
            assert _relative_gap(got, ref).max() <= 1e-13, (m, k)


def test_eight_level_autocorrelation_is_relatively_accurate_on_its_grid():
    ref = [g2_equal_poisson(8, 1, 1, 1.0, t) for t in DIP_GRID]
    got = g2_general(CascadeSpec.equal(8, 1.0), 1, 1, DIP_GRID)
    assert _relative_gap(got, ref).max() <= 1e-13


STIFF3 = (0.001, 1000.0, 0.001)


@pytest.mark.parametrize("m, n", [(1, 0), (2, 0), (0, 0), (0, 1)])
def test_stiff_three_level_pairs_match_mpmath(m, n):
    # read level r = (n + 1) % 3; for (1, 0) it is the fast level, where the
    # closed form holds only eps / p_ss[r] absolute; propagation, the route
    # g2 takes, stays relative
    ref = g2_pair_mpmath(STIFF3, m, n, 0.1)
    assert abs(g2_general(CascadeSpec(3, STIFF3), m, n, 0.1) - ref) <= 1e-13 * ref
    assert abs(g2(CascadeSpec(3, STIFF3), (m, n), 0.1) - ref) <= 1e-13 * ref
    assert abs(g2_three_level(*STIFF3, m, n, 0.1) - ref) <= 1e-9


@given(
    rates=st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), min_size=2, max_size=12),
    data=st.data(),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_stepped_propagation_is_relatively_accurate(rates, data):
    # up to 8 exact steps of a power of two, ending within three fast
    # lifetimes, where levels behind slow ones hold tiny occupations
    nlev, fast = len(rates), max(rates)
    steps = data.draw(st.integers(1, 8))
    span = 10.0 ** data.draw(st.floats(-3.0, math.log10(3.0))) / fast
    step = 2.0 ** math.floor(math.log2(span / steps))
    m = data.draw(st.integers(0, nlev - 1))
    ref = propagate_mpmath(rates, m, step, steps)
    pss = 1 / np.array(rates) / sum(1 / np.array(rates))  # flux balance, to a few eps
    spec = CascadeSpec(nlev, tuple(rates))
    for n in range(nlev):
        read = (n + 1) % nlev
        got = g2_general(spec, m, n, step * np.arange(1, steps + 1))
        assert _relative_gap(got, ref[:, read] / pss[read]).max() <= 1e-15 * nlev * steps


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_expm_of_a_matrix_with_a_non_finite_norm_is_nan(bad):
    # no OverflowError from log2(inf) and no warning (the suite raises on both);
    # two entries of 1e308 overflow the column sum
    a = generator_matrix(SPEC4) * 2.0
    a[1, 2] = a[2, 2] = bad
    assert np.isnan(_expm(a)).all()


def test_a_ring_whose_generator_norm_overflows_still_propagates():
    # the columns of Q = [[-g, g], [g, -g]] sum past the float range at
    # g = 1e308, but those of the Taylor matrix B = Q + g I = [[0, g], [g, 0]]
    # do not; g tau fully decays both modes, so g2 takes its limits
    spec = CascadeSpec(2, (1e308, 1e308))
    eps = np.finfo(float).eps
    np.testing.assert_allclose(g2_general(spec, 0, 0, [0.0, 1.0]), [0.0, 1.0],
                               rtol=0, atol=4 * eps)
    np.testing.assert_allclose(g2_general(spec, 0, 1, [-1.0, 0.0, 1.0]), [1.0, 2.0, 1.0],
                               rtol=0, atol=8 * eps)
    assert np.isfinite(_expm(generator_matrix(spec))).all()


def test_g2_general_matches_equal_rate_closed_form():
    rng = np.random.default_rng(5)
    for n in (2, 5, 12):
        spec = CascadeSpec.equal(n, 1.3)
        taus = rng.uniform(-10 * n, 10 * n, 40) / 1.3
        for m in range(min(n, 4)):
            for k in range(min(n, 4)):
                mine = g2_general(spec, m, k, taus)
                ref = g2_equal_pair(n, m, k, 1.3, taus)
                np.testing.assert_allclose(mine, ref, atol=1e-10)


def test_g2_general_unbalanced_limits():
    spec = CascadeSpec(3, UNBALANCED)
    assert g2_general(spec, 2, 1, -1e-6) == pytest.approx(0.0, abs=1e-4)
    expected = 1 + (1 / UNBALANCED[0] + 1 / UNBALANCED[1]) * UNBALANCED[2]
    assert g2_general(spec, 2, 1, 1e-9) == pytest.approx(expected, abs=1e-6)


def test_two_level_autocorrelation():
    spec = CascadeSpec.equal(2, 1.0)
    assert g2_general(spec, 1, 1, 0.0) == 0.0
    assert g2_general(spec, 0, 0, 0.4) == pytest.approx(1 - math.exp(-0.8))


def test_two_level_cross_examples():
    # equal rates: bunching of 2 at the origin, consistent with g2(0) = N
    assert g2_general(CascadeSpec.equal(2, 1.0), 1, 0, 1e-14) == pytest.approx(2.0, abs=1e-9)
    # arrival labels: (1, 0) starts and reads level 1, so the ratio is g1/g0
    assert g2_general(CascadeSpec(2, (2.0, 1.0)), 1, 0, 0.3) == pytest.approx(
        1 + 0.5 * math.exp(-0.9))


def test_two_level_mirror():
    # away from the tau = 0 discontinuity point the mirror identity is exact
    spec = CascadeSpec(2, (2.0, 0.5))
    taus = np.concatenate([np.linspace(-4, -0.1, 15), np.linspace(0.1, 4, 15)])
    np.testing.assert_allclose(
        g2_general(spec, 0, 1, taus),
        g2_general(spec, 1, 0, -taus),
        atol=1e-14,
    )


def test_three_level_unbalanced_limits():
    g0, g1, g2v = UNBALANCED
    assert g2_three_level(g0, g1, g2v, 2, 1, -1e-6) == pytest.approx(0.0, abs=1e-4)
    assert g2_three_level(g0, g1, g2v, 2, 1, 1e-12) == pytest.approx(
        1 + (1 / g0 + 1 / g1) * g2v, abs=1e-9
    )


def test_three_level_equal_rates_match_closed_form():
    rng = np.random.default_rng(6)
    taus = rng.uniform(-12, 12, 100)
    for m in range(3):
        for n in range(3):
            mine = g2_three_level(1.0, 1.0, 1.0, m, n, taus)
            ref = g2_equal_pair(3, m, n, 1.0, taus)
            np.testing.assert_allclose(mine, ref, atol=1e-10)


def test_three_level_matches_propagation():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        rates = tuple(10 ** rng.uniform(-2, 2, 3))
        spec = CascadeSpec(3, rates)
        tau = rng.uniform(-10, 10) / np.mean(rates)
        for m in range(3):
            for n in range(3):
                a = g2_three_level(*rates, m, n, tau)
                b = g2_general(spec, m, n, tau)
                worst = max(worst, abs(a - b))
    assert worst <= 1e-11


def test_three_level_tau_zero_is_the_right_limit_of_every_pair():
    # at tau = 0 each swapped pair takes its own right limit, not the base pair's
    spec = CascadeSpec(3, UNBALANCED)
    for m in range(3):
        for n in range(3):
            exact = g2_general(spec, m, n, 0.0)
            for zero in (0.0, -0.0):
                assert abs(g2_three_level(*UNBALANCED, m, n, zero) - exact) <= 1e-9


RATE = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
# delay in mean lifetimes 1 / mean(rates): both zeros, the approach to the
# tau = 0 jump from either side, and the bulk of the trace
DELAY = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]),
    st.floats(-10.0, 10.0),
)


@pytest.mark.parametrize("nlev, closed, tol", [
    (2, g2_two_level, 1e-10),
    (3, g2_three_level, 1e-11),
])
@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_closed_forms_match_propagation(nlev, closed, tol, data):
    rates = tuple(data.draw(st.lists(RATE, min_size=nlev, max_size=nlev)))
    tau = data.draw(DELAY) / np.mean(rates)
    spec = CascadeSpec(nlev, rates)
    for m in range(nlev):
        for n in range(nlev):
            g = g2_general(spec, m, n, tau)
            assert abs(closed(*rates, m, n, tau) - g) <= tol * max(1.0, abs(g))


# delay in lifetimes 1 / gamma: both zeros, either side of the tau = 0 jump,
# and up to two cycles of the largest ring
LIFETIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9]), st.floats(-128.0, 128.0)
)


@given(
    nlev=st.integers(2, 64),
    gamma=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
    data=st.data(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_equal_rate_closed_form_matches_propagation(nlev, gamma, data):
    m, n = data.draw(st.tuples(st.integers(0, nlev - 1), st.integers(0, nlev - 1)))
    tau = data.draw(LIFETIMES) / gamma
    g = g2_general(CascadeSpec.equal(nlev, gamma), m, n, tau)
    assert abs(g2_equal_pair(nlev, m, n, gamma, tau) - g) <= 1e-14 * nlev * max(1.0, abs(g))


@given(rates=st.lists(RATE, min_size=2, max_size=5), data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_negative_delay_mirrors_the_swapped_pair_bitwise(rates, data):
    nlev = len(rates)
    m, n = data.draw(st.tuples(st.integers(0, nlev - 1), st.integers(0, nlev - 1)))
    s = data.draw(st.floats(1e-12, 10.0)) / np.mean(rates)
    spec = CascadeSpec(nlev, tuple(rates))
    routes = [
        lambda a, b, t: g2_equal_pair(nlev, a, b, rates[0], t),
        lambda a, b, t: g2_general(spec, a, b, t),
    ]
    if nlev == 3:
        routes.append(lambda a, b, t: g2_three_level(*rates, a, b, t))
    for g in routes:
        assert g(m, n, -s) == g(n, m, s)
        assert g(m, n, -0.0) == g(m, n, 0.0)


NAN = float("nan")
SPEC4 = CascadeSpec(4, (0.5, 1.0, 2.0, 3.0))
DELAY_ROUTES = {
    "g2_equal": lambda t: g2_equal(6, 1, 1.0, t),
    "g2_equal_pair": lambda t: g2_equal_pair(6, 2, 1, 1.0, t),
    "g2_subset": lambda t: g2_subset(6, SubsetSpec((1, 2)), 1.0, [0.5, t]),
    # the two-level ring is g2_general at N = 2
    "g2_two_level": lambda t: g2_general(CascadeSpec(2, (1.0, 2.0)), 1, 0, t),
    "g2_three_level": lambda t: g2_three_level(1.0, 1.1, 0.025, 2, 1, t),
    "g2_general": lambda t: g2_general(SPEC4, 2, 1, [t, 0.5]),
    "g2": lambda t: g2(SPEC4, (2, 1), [t, 0.5]),
    "cs_check": lambda t: cs_check(CascadeSpec.equal(6, 1.0), 3, 1, [0.1, t]),
    "small_tau_leading": lambda t: small_tau_leading(6, 2, 1.0, [0.5, t]),
}
# a NaN case keeps the bare route name as its id
NONFINITE_DELAYS = {"": NAN, "-inf": math.inf, "--inf": -math.inf}


@pytest.mark.parametrize(
    "route, tau",
    [(r, t) for r in DELAY_ROUTES.values() for t in NONFINITE_DELAYS.values()],
    ids=[name + suffix for name in DELAY_ROUTES for suffix in NONFINITE_DELAYS],
)
def test_nan_delay_raises(route, tau):
    """Every delay route rejects NaN, inf and -inf with the one delay rule."""
    with pytest.raises(ConfigInvalid, match="tau must be finite"):
        route(tau)


BAD_RATES = (NAN, math.inf, -math.inf, 0.0, -1.0, "a", None)
BAD_LEVEL_COUNTS = (0, 3.9, True)

# every raw-argument entry point with valid arguments; an int argument is a
# level count, a float argument a rate
RING_CALLS = {
    "g2_equal": (lambda n, g: g2_equal(n, 1, g, 0.5), (6, 1.0)),
    "g2_equal_pair": (lambda n, g: g2_equal_pair(n, 2, 1, g, 0.5), (6, 1.0)),
    "g2_subset": (lambda n, g: g2_subset(n, SubsetSpec((1, 2)), g, 0.5), (6, 1.0)),
    "small_tau_leading": (lambda n, g: small_tau_leading(n, 2, g, 0.5), (6, 1.0)),
    "bundle_peak": (lambda n: bundle_peak(n, 2), (6,)),
    "trace_index": (lambda n: trace_index(2, 1, n), (6,)),
    "g2_two_level": (lambda a, b: g2_general(CascadeSpec(2, (a, b)), 1, 0, 0.5), (1.0, 2.0)),
    "g2_three_level": (lambda *g: g2_three_level(*g, 2, 1, 0.5), UNBALANCED),
    "oscillation_condition": (oscillation_condition, UNBALANCED),
    "find_peaks": (lambda n, g: find_peaks(n, g, 1, 2), (6, 1.0)),
    "find_peaks_cross": (lambda n, g: find_peaks_cross(n, g, 2), (6, 1.0)),
    "correlate_blocks": (
        lambda n: correlate_blocks([(0, np.arange(1.0, 60.0))], n, 100.0,
                                   HistogramConfig(0.5, 2.0)),
        (6,),
    ),
}

# each route swaps one argument of its valid call for one bad value
BAD_RING_ROUTES = {
    f"{name}[{i}]={bad!r}": functools.partial(call, *args[:i], bad, *args[i + 1:])
    for name, (call, args) in RING_CALLS.items()
    for i, good in enumerate(args)
    for bad in (BAD_LEVEL_COUNTS if isinstance(good, int) else BAD_RATES)
}

# entry points that take a CascadeSpec: a bad rate raises when the spec is built
SPEC_ROUTES = {
    "generator_matrix": generator_matrix,
    "steady_state": steady_state,
    "decompose": decompose,
    "g2_general": lambda spec: g2_general(spec, 2, 1, 0.5),
    "g2": lambda spec: g2(spec, (2, 1), 0.5),
    "discontinuity": lambda spec: discontinuity(spec, 2, 1),
    "cs_check": lambda spec: cs_check(spec, 2, 1, [0.5]),
}


@pytest.mark.parametrize("name", RING_CALLS)
def test_ring_route_accepts_its_valid_call(name):
    call, args = RING_CALLS[name]
    assert call(*args) is not None


@pytest.mark.parametrize("route", BAD_RING_ROUTES.values(), ids=BAD_RING_ROUTES.keys())
def test_bad_ring_argument_raises(route):
    with pytest.raises(ConfigInvalid, match="n_levels must|gamma|rates"):
        route()


@pytest.mark.parametrize("bad", BAD_RATES)
@pytest.mark.parametrize("route", SPEC_ROUTES.values(), ids=SPEC_ROUTES.keys())
def test_spec_route_rejects_a_bad_rate(route, bad):
    with pytest.raises(ConfigInvalid, match=r"rates\[1\]"):
        route(CascadeSpec(3, (1.0, bad, 2.0)))


def test_every_ring_entry_point_applies_the_domain_rule():
    # a public function that takes a level count, a rate or a spec must be
    # covered by BAD_RING_ROUTES or SPEC_ROUTES
    uncovered = []
    for name in dir(circascade):
        obj = getattr(circascade, name)
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        params = inspect.signature(obj).parameters
        if any(p in ("n_levels", "spec") or p.startswith("gamma") for p in params):
            if name not in RING_CALLS and name not in SPEC_ROUTES:
                uncovered.append(name)
    assert not uncovered


BAD_INDICES = (1.5, True, "1")

# every public function that takes a class, pair, level or order index:
# (its valid call as a function of the indices, the indices, the result of
# that call before the index rule existed)
INDEX_CALLS = {
    "g2_equal": (lambda k: g2_equal(6, k, 1.0, 0.5), (1,), 0.0009477042003172148),
    "g2_equal_pair": (lambda m, n: g2_equal_pair(6, m, n, 1.0, 0.5), (2, 1), 3.6392629336239715),
    "small_tau_leading": (lambda k: small_tau_leading(6, k, 1.0, 0.5), (2,), 0.015625),
    "bundle_peak": (lambda n_s: bundle_peak(6, n_s), (2,), 1.5),
    "trace_index": (lambda m, n: trace_index(m, n, 6), (2, 1), 0),
    "g2_subset": (lambda i, j: g2_subset(6, (i, j), 1.0, 0.5), (1, 2), 0.9126588461404932),
    "find_peaks": (lambda k, order: find_peaks(6, 1.0, k, order).peaks[-1].magnitude, (1, 2),
                   1.0030306184479763),
    "find_peaks_cross": (lambda order: find_peaks_cross(6, 1.0, order).peaks[-1].magnitude, (2,),
                         1.018586742614836),
    # g2_general at N = 2: 1 + 2 exp(-1.5) to 1 ulp (60-digit mpmath)
    "g2_two_level": (lambda m, n: g2_general(CascadeSpec(2, (1.0, 2.0)), m, n, 0.5), (1, 0),
                     1.4462603202968598),
    "g2_three_level": (lambda m, n: g2_three_level(*UNBALANCED, m, n, 0.5), (2, 1),
                       1.035174040832137),
    # the shifted Taylor kernel's values: 60-digit mpmath puts both within
    # 2 eps relative (1.9e-16 and 3.4e-16)
    "g2_general": (lambda m, n: g2_general(SPEC4, m, n, 0.5), (2, 1), 2.8464197325395326),
    "g2": (lambda m, n: g2(SPEC4, (m, n), 0.5), (2, 1), 2.8464197325395326),
    "cs_check": (lambda m, n: cs_check(CascadeSpec.equal(6), m, n, [0.1]).samples[0].rhs, (3, 1),
                 8.187307531050577e-07),
    "discontinuity": (lambda m, n: discontinuity(CascadeSpec(3, UNBALANCED), m, n)[2], (2, 1),
                      1.0477272727272726),
}
INDEX_PARAMETERS = {"m", "n", "k", "n_s", "level", "initial_level", "max_order"}


@pytest.mark.parametrize("name", INDEX_CALLS)
def test_integer_indices_give_the_frozen_result(name):
    call, args, frozen = INDEX_CALLS[name]
    assert call(*args) == frozen
    assert call(*map(np.int64, args)) == frozen


@pytest.mark.parametrize("bad", BAD_INDICES, ids=repr)
@pytest.mark.parametrize("name", INDEX_CALLS)
def test_a_non_integer_index_raises(name, bad):
    call, args, _ = INDEX_CALLS[name]
    for i in range(len(args)):
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            call(*args[:i], bad, *args[i + 1:])


def test_every_index_entry_point_applies_the_index_rule():
    uncovered = [
        name for name in dir(circascade)
        if not name.startswith("_") and callable(getattr(circascade, name))
        and not isinstance(getattr(circascade, name), type)
        and INDEX_PARAMETERS & set(inspect.signature(getattr(circascade, name)).parameters)
        and name not in INDEX_CALLS
    ]
    assert not uncovered


RING6_BLOCKS = [(0, np.arange(1.0, 60.0))]
RING6_STREAM = EventStream(np.arange(1.0, 60.0), 0, 6, 100.0)
# every public function that takes a pair of transitions: (its valid call as
# a function of the pair, the level count N of its ring)
PAIR_CALLS = {
    "g2_equal_pair": (lambda m, n: g2_equal_pair(6, m, n, 1.0, 0.5), 6),
    "g2_general": (lambda m, n: g2_general(SPEC4, m, n, 0.5), 4),
    "g2_three_level": (lambda m, n: g2_three_level(*UNBALANCED, m, n, 0.5), 3),
    "g2": (lambda m, n: g2(SPEC4, (m, n), 0.5), 4),
    "trace_index": (lambda m, n: trace_index(m, n, 6), 6),
    "cs_check": (lambda m, n: cs_check(CascadeSpec.equal(6), m, n, [0.5]), 6),
    "discontinuity": (lambda m, n: discontinuity(CascadeSpec(3, UNBALANCED), m, n), 3),
    "correlate_blocks": (
        lambda m, n: correlate_blocks(RING6_BLOCKS, 6, 100.0, HistogramConfig(0.5, 2.0), (m, n)),
        6,
    ),
    "correlate": (lambda m, n: correlate(RING6_STREAM, (m, n), HistogramConfig(0.5, 2.0)), 6),
    "block_bootstrap_stderr": (
        lambda m, n: block_bootstrap_stderr(RING6_STREAM, (m, n), HistogramConfig(0.5, 2.0)),
        6,
    ),
}
PAIR_PARAMETERS = {"m", "n", "pair", "selection"}
OUTSIDE_PAIRS = {"(0, N)": lambda nlev: (0, nlev), "(-1, 0)": lambda nlev: (-1, 0),
                 "(N, 1)": lambda nlev: (nlev, 1), "(1, -N)": lambda nlev: (1, -nlev)}


@pytest.mark.parametrize("outside", OUTSIDE_PAIRS.values(), ids=OUTSIDE_PAIRS.keys())
@pytest.mark.parametrize("name", PAIR_CALLS)
def test_a_pair_outside_the_ring_raises(name, outside):
    # these calls reduced the pair mod N and answered for another pair
    call, nlev = PAIR_CALLS[name]
    m, n = outside(nlev)
    with pytest.raises(ConfigInvalid, match=rf"channel pair \({m}, {n}\) outside \[0, {nlev}\)"):
        call(m, n)


def test_every_pair_entry_point_applies_the_pair_rule():
    uncovered = [
        name for name in dir(circascade)
        if not name.startswith("_") and callable(getattr(circascade, name))
        and not isinstance(getattr(circascade, name), type)
        and PAIR_PARAMETERS & set(inspect.signature(getattr(circascade, name)).parameters)
        and name not in PAIR_CALLS
    ]
    assert not uncovered


def test_cs_check_does_not_compare_a_transition_with_itself():
    # (0, 6) wrapped to (0, 0) on a six-level ring: it passed the distinct-
    # transitions guard and reported pair (0, 6) violated with lhs = 0
    with pytest.raises(ConfigInvalid, match=r"channel pair \(0, 6\) outside \[0, 6\)"):
        cs_check(CascadeSpec.equal(6), 0, 6, [0.5])


# expm(Q * inf) would be NaN: the delay rule rejects inf before any step,
# without a numpy warning
def test_infinite_delay_is_rejected_before_propagation():
    with pytest.raises(ConfigInvalid, match="tau must be finite"):
        g2_general(SPEC4, 2, 1, math.inf)


def test_three_level_rotations_are_exact():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g0, g1, g2v = 10 ** rng.uniform(-1, 1, 3)
        tau = rng.uniform(-5, 5)
        assert g2_three_level(g0, g1, g2v, 1, 0, tau) == g2_three_level(
            g2v, g0, g1, 2, 1, tau
        )
        assert g2_three_level(g0, g1, g2v, 0, 2, tau) == g2_three_level(
            g1, g2v, g0, 2, 1, tau
        )


def test_three_level_mirror_is_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g0, g1, g2v = 10 ** rng.uniform(-1, 1, 3)
        tau = rng.uniform(-5, 5)
        for m, n in ((1, 2), (0, 1), (2, 0)):
            assert g2_three_level(g0, g1, g2v, m, n, tau) == g2_three_level(
                g0, g1, g2v, n, m, -tau
            )


def test_three_level_boundary_rates_match_propagation():
    # zeta = 0 exactly: the cos/sinc branch is exact there, with no limit case
    spec = CascadeSpec(3, (1.0, 1.0, 4.0))
    for tau in (-3.0, -0.6, 0.0, 0.4, 2.0):
        a = g2_three_level(1.0, 1.0, 4.0, 2, 1, tau)
        b = g2_general(spec, 2, 1, tau)
        assert a == pytest.approx(b, abs=1e-12)


def _spread_and_near_boundary_rates():
    # rates in 10^+-3, each with the triples that sit a relative 10^-k off
    # either side of either oscillation boundary g2 = (sqrt(g0) +- sqrt(g1))^2
    rng = np.random.default_rng(12)
    for _ in range(8):
        g0, g1, g2v = 10 ** rng.uniform(-3, 3, 3)
        yield g0, g1, g2v
        for sign in (1.0, -1.0):
            edge = (math.sqrt(g0) + sign * math.sqrt(g1)) ** 2
            for k in (1, 4, 8, 12):
                for side in (1.0, -1.0):
                    yield g0, g1, edge * (1 + side * 10.0 ** -k)


def test_three_level_spread_and_near_boundary_rates_match_propagation():
    for rates in _spread_and_near_boundary_rates():
        spec = CascadeSpec(3, rates)
        s = np.logspace(-2, 6, 9) / sum(rates)  # from the fastest to the slowest mode
        taus = np.concatenate([-s[::-1], [0.0], s])
        for m in range(3):
            for n in range(3):
                g = g2_general(spec, m, n, taus)
                gap = np.abs(g2_three_level(*rates, m, n, taus) - g)
                assert np.all(gap <= 1e-11 * np.maximum(1.0, np.abs(g))), (rates, m, n)


def test_zeta_value():
    # zeta^2 in units of the power of two at the fastest rate (4 = 2^3 / 2)
    assert _zeta_squared(1.0, 1.0, 4.0) == (0.0, (0.125, 0.125, 0.5), 3)
    assert _zeta_squared(1.0, 1.0, 1.0) == (-0.75, (0.5, 0.5, 0.5), 1)
    # 1e308 squared overflows outside these units; inside, zeta^2 is the
    # tiny -4 g0 g2 up to the rounding of the squares, eps g0^2
    z2, (g0, _, _), e = _zeta_squared(1e308, 1e308, 1.0)
    assert e == 1024 and abs(z2) <= np.finfo(float).eps * g0 ** 2


def test_oscillation_condition_examples():
    assert oscillation_condition(1.0, 1.0, 1.0) is OscillationRegime.OSCILLATORY
    assert oscillation_condition(1.0, 1.0, 4.0) is OscillationRegime.BOUNDARY
    assert oscillation_condition(1.0, 1.0, 4.1) is OscillationRegime.OVERDAMPED


def test_oscillation_condition_permutation_invariant():
    import itertools

    for rates in ((1.0, 1.0, 4.0), (1.0, 1.0, 4.1), (0.3, 1.7, 0.9)):
        regimes = {
            oscillation_condition(*perm) for perm in itertools.permutations(rates)
        }
        assert len(regimes) == 1


def test_oscillation_condition_equals_sqrt_window():
    rng = np.random.default_rng(10)
    for _ in range(200):
        g0, g1, g2v = 10 ** rng.uniform(-1.5, 1.5, 3)
        lo = (math.sqrt(g0) - math.sqrt(g1)) ** 2
        hi = (math.sqrt(g0) + math.sqrt(g1)) ** 2
        regime = oscillation_condition(g0, g1, g2v)
        if regime is OscillationRegime.OSCILLATORY:
            assert lo < g2v < hi
        elif regime is OscillationRegime.OVERDAMPED:
            assert g2v < lo * (1 + 1e-9) or g2v > hi * (1 - 1e-9)


# the limit oracles keep the package's sign convention: tau = 0 is the right
# limit, and the left branch starts at 0
def test_low_pump_limit_values():
    assert g2_limit_low_pump(0.01, 1.0, 1.0, -1e-12) == pytest.approx(0.0, abs=1e-9)
    assert g2_limit_low_pump(0.01, 2.0, 1.0, 0.0) == pytest.approx(101.0)


def test_high_pump_limit_left_of_zero_vanishes():
    assert g2_limit_high_pump(50.0, 1.0, 2.0, -1e-14) == pytest.approx(0.0, abs=1e-9)
    assert g2_limit_high_pump(50.0, 1.0, 2.0, 0.0) == pytest.approx(3.0)


def test_low_pump_limit_tracks_exact_form():
    g0, g1, g2v = 1e-3, 1.0, 1.0
    mean = (g0 + g1 + g2v) / 3
    for at in np.linspace(0.1, 5, 25):
        for s in (1.0, -1.0):
            tau = s * at / mean
            exact = g2_three_level(g0, g1, g2v, 2, 1, tau)
            approx = g2_limit_low_pump(g0, g1, g2v, tau)
            assert abs(approx - exact) <= 0.05 * abs(exact)


def test_high_pump_limit_tracks_exact_form():
    g0, g1, g2v = 1e3, 1.0, 1.3
    for tau in np.concatenate([np.linspace(0.05, 4, 15), -np.linspace(0.05, 4, 15)]):
        exact = g2_three_level(g0, g1, g2v, 2, 1, tau)
        approx = g2_limit_high_pump(g0, g1, g2v, tau)
        assert abs(approx - exact) <= 0.05 * abs(exact) + 1e-3


def test_oracles_import_nothing_from_the_package():
    # the oracles are an independent route only while they share no code with it
    source = (Path(__file__).parent / "oracles.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not any(
        name.split(".")[0] in ("circascade", "") for name in imported
    ), imported


# the three-level closed form is accurate to about eps / p_ss[r] absolute
# (its docstring), so it may dip that far below 0; c states the margin
THREE_LEVEL_ABS_C = 8
RATES_3 = st.tuples(*[st.floats(-3, 3).map(lambda e: 10.0**e)] * 3)
SIGNED_TAU = st.one_of(
    st.sampled_from([0.0, 1e-12, -1e-12]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-12, 3)),
)


@given(RATES_3, st.integers(0, 2), st.integers(0, 2), SIGNED_TAU)
@example((1.0, 1.1, 0.025), 1, 1, 1.5885651294280526e-09)  # fig5 rates: -eps, not clamped
@settings(max_examples=300, deadline=None)
def test_small_ring_routes_are_finite_and_nonnegative(rates, m, n, tau):
    general = float(g2_general(CascadeSpec(3, rates), m, n, tau))
    closed = float(g2_three_level(*rates, m, n, tau))
    assert math.isfinite(general) and general >= 0
    # g_{m,n}(tau) reads level (n + 1) % 3, and mirrors g_{n,m}(-tau) below 0
    read = (n + 1) % 3 if tau >= 0 else (m + 1) % 3
    p_read = steady_state(CascadeSpec(3, rates))[read]
    assert math.isfinite(closed)
    assert closed >= -THREE_LEVEL_ABS_C * np.finfo(float).eps / p_read



# every public route and steady_state as a function of four rates, a level
# count N in [1, 4], a signed delay and two indices in [0, 4): a ring route
# takes the first N rates, an equal-rate route N and the first rate, and a
# delay >= 0 route the delay's magnitude; each returns its numbers
def _spec(rates, nlev):
    return CascadeSpec(nlev, rates[:nlev])


FLOAT_RANGE_ROUTES = {
    "steady_state": lambda r, nlev, t, m, n: steady_state(_spec(r, nlev)),
    "g2_general": lambda r, nlev, t, m, n: g2_general(_spec(r, nlev), m, n, [t, 0.0]),
    "g2": lambda r, nlev, t, m, n: g2(_spec(r, nlev), (m, n), [t, 0.0]),
    "cs_check": lambda r, nlev, t, m, n: [
        s.rhs for s in cs_check(_spec(r, nlev), m, m + 1, [t]).samples],
    "discontinuity": lambda r, nlev, t, m, n: discontinuity(_spec(r, nlev), m, n),
    "simulate": lambda r, nlev, t, m, n: simulate(
        SimConfig(_spec(r, nlev), seed=m, total_events=64)).times,
    "g2_equal": lambda r, nlev, t, m, n: g2_equal(nlev, m, r[0], abs(t)),
    "g2_equal_pair": lambda r, nlev, t, m, n: g2_equal_pair(nlev, m, n, r[0], t),
    "g2_subset": lambda r, nlev, t, m, n: g2_subset(nlev, range(nlev), r[0], t),
    "small_tau_leading": lambda r, nlev, t, m, n: small_tau_leading(
        nlev, m % nlev + 1, r[0], abs(t)),
    "find_peaks": lambda r, nlev, t, m, n: [
        x for p in find_peaks(nlev, r[0], m, 2).peaks for x in (p.tau, p.magnitude)],
    "find_peaks_cross": lambda r, nlev, t, m, n: [
        x for p in find_peaks_cross(nlev, r[0], 2).peaks for x in (p.tau, p.magnitude)],
    "g2_two_level": lambda r, nlev, t, m, n: g2_general(_spec(r, 2), m, n, t),
    "g2_three_level": lambda r, nlev, t, m, n: g2_three_level(*r[:3], m, n, t),
    "oscillation_condition": lambda r, nlev, t, m, n: [
        oscillation_condition(*r[:3]) is not None],
}


@pytest.mark.parametrize("name", FLOAT_RANGE_ROUTES)
@given(
    rates=st.tuples(*[st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)] * 4),
    nlev=st.integers(1, 4),
    tau=st.floats(allow_nan=False, allow_infinity=False),
    m=st.integers(0, 3),
    n=st.integers(0, 3),
)
@example(rates=(1e300, 1e300, 1.0, 1.0), nlev=3, tau=0.5, m=1, n=1)  # squares past the range
@example(rates=(1e-300, 1.0, 1e300, 1.0), nlev=3, tau=0.25, m=1, n=1)  # p_ss[2] underflows
@example(rates=(1e-300, 1e300, 1.0, 1.0), nlev=2, tau=0.5, m=1, n=0)  # ratio past the range
@example(rates=(1.0, 1.0, 1.0, 1.0), nlev=4, tau=1e308, m=1, n=1)  # gamma tau past the range
# past [1e-300, 1e300]: an event rate and rate sums that overflow, and a
# peak-scan step of inf
@example(rates=(1.7976931348623153e308, 1e308, 1e308, 1.0), nlev=1, tau=1.0, m=0, n=0)
@example(rates=(5e-324, 1.0, 1.0, 1.0), nlev=2, tau=0.5, m=1, n=1)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rates_and_delays_across_the_float_range_give_finite_values(name, rates, nlev, tau, m, n):
    """Every route returns finite numbers or raises a CascadeError for rates
    anywhere in [1e-300, 1e300] and any finite delay: no NaN, no inf, no
    other exception and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.asarray(FLOAT_RANGE_ROUTES[name](rates, nlev, tau, m, n), dtype=float)
        except CascadeError:
            return
    assert np.isfinite(values).all(), values
