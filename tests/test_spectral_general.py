import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circascade import (
    CascadeSpec,
    ConfigInvalid,
    OscillationRegime,
    SubsetSpec,
    cs_check,
    decompose,
    g2_equal,
    g2_equal_pair,
    g2_general,
    g2_limit_high_pump,
    g2_limit_low_pump,
    g2_phenomenological,
    g2_subset,
    g2_three_level,
    g2_two_level,
    generator_matrix,
    oscillation_condition,
    propagate,
    steady_state,
    zeta_value,
)
from circascade.model import NumericalFailure
from circascade.spectral_general import characteristic_residuals

from oracles import g2_pair_expm, propagate_expm, steady_state_nullspace

# frozen: propagate(N=3 equal, from level 2, tau=1)[0], dense-expm verified
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


def test_propagate_identity_at_zero():
    spec = CascadeSpec(4, (1.0, 0.5, 2.0, 3.0))
    for level in range(4):
        p = propagate(spec, level, 0.0)
        expected = np.zeros(4)
        expected[level] = 1.0
        np.testing.assert_allclose(p, expected, atol=1e-12)


def test_propagate_ergodic_limit_equal_rates():
    spec = CascadeSpec.equal(3, 1.0)
    np.testing.assert_allclose(
        propagate(spec, 2, 200.0), steady_state(spec), atol=1e-8
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
            propagate(spec, 2, tau), steady_state(spec), atol=1e-8
        )


def test_propagate_frozen_value():
    p = propagate(CascadeSpec.equal(3, 1.0), 2, 1.0)
    assert p[0] == pytest.approx(P_N3_LEVEL0, abs=1e-12)
    np.testing.assert_allclose(p, propagate_expm([1, 1, 1], 2, 1.0), atol=1e-12)


def test_propagate_simplex_preservation():
    rng = np.random.default_rng(4)
    for _ in range(15):
        spec = random_spec(rng)
        tau = rng.uniform(0, 20) / spec.mean_rate
        p = propagate(spec, int(rng.integers(spec.n_levels)), tau)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_propagate_degenerate_path_matches_expm():
    spec = CascadeSpec(3, (1.0, 1.0, 4.0))
    for tau in (0.3, 1.7, 6.0):
        np.testing.assert_allclose(
            propagate(spec, 1, tau), propagate_expm(spec.rates, 1, tau), atol=1e-10
        )


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
    assert g2_two_level(1.0, 1.0, 1, 1, 0.0) == 0.0
    assert g2_two_level(1.0, 1.0, 0, 0, 0.4) == pytest.approx(1 - math.exp(-0.8))


def test_two_level_cross_examples():
    # equal rates: bunching of 2 at the origin, consistent with g2(0) = N
    assert g2_two_level(1.0, 1.0, 1, 0, 1e-14) == pytest.approx(2.0, abs=1e-9)
    # arrival labels: (1, 0) starts and reads level 1, so the ratio is g1/g0
    assert g2_two_level(2.0, 1.0, 1, 0, 0.3) == pytest.approx(1 + 0.5 * math.exp(-0.9))


def test_two_level_mirror():
    # away from the tau = 0 discontinuity point the mirror identity is exact
    taus = np.concatenate([np.linspace(-4, -0.1, 15), np.linspace(0.1, 4, 15)])
    np.testing.assert_allclose(
        g2_two_level(2.0, 0.5, 0, 1, taus),
        g2_two_level(2.0, 0.5, 1, 0, -taus),
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
    assert worst <= 1e-8


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
    (3, g2_three_level, 1e-7),  # loses digits to cancellation near tau = 0
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
    if nlev == 2:
        routes.append(lambda a, b, t: g2_two_level(*rates, a, b, t))
    if nlev == 3:
        routes.append(lambda a, b, t: g2_three_level(*rates, a, b, t))
    for g in routes:
        assert g(m, n, -s) == g(n, m, s)
        assert g(m, n, -0.0) == g(m, n, 0.0)


NAN = float("nan")
SPEC4 = CascadeSpec(4, (0.5, 1.0, 2.0, 3.0))
NAN_DELAY_ROUTES = {
    "g2_equal": lambda: g2_equal(6, 1, 1.0, NAN),
    "g2_equal_pair": lambda: g2_equal_pair(6, 2, 1, 1.0, NAN),
    "g2_subset": lambda: g2_subset(6, SubsetSpec((1, 2)), 1.0, [0.5, NAN]),
    "g2_two_level": lambda: g2_two_level(1.0, 2.0, 1, 0, NAN),
    "g2_three_level": lambda: g2_three_level(1.0, 1.1, 0.025, 2, 1, NAN),
    "g2_general": lambda: g2_general(SPEC4, 2, 1, [NAN, 0.5]),
    "propagate": lambda: propagate(SPEC4, 0, NAN),
    "cs_check": lambda: cs_check(CascadeSpec.equal(6, 1.0), 3, 1, [0.1, NAN]),
}


@pytest.mark.parametrize("route", NAN_DELAY_ROUTES.values(), ids=NAN_DELAY_ROUTES.keys())
def test_nan_delay_raises(route):
    with pytest.raises(ConfigInvalid, match="tau must"):
        route()


# expm(Q * inf) is NaN; the probability guards must catch it
@pytest.mark.filterwarnings("ignore:invalid value")
def test_infinite_delay_fails_the_probability_guards():
    with pytest.raises(NumericalFailure, match="propagated probability nan"):
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
    # zeta = 0 exactly: the closed form takes its coalescing-rate limit
    spec = CascadeSpec(3, (1.0, 1.0, 4.0))
    for tau in (-3.0, -0.6, 0.0, 0.4, 2.0):
        a = g2_three_level(1.0, 1.0, 4.0, 2, 1, tau)
        b = g2_general(spec, 2, 1, tau)
        assert a == pytest.approx(b, abs=1e-9)


def test_zeta_value():
    zv = zeta_value(1.0, 1.0, 4.0)
    assert zv.zeta_squared == pytest.approx(0.0, abs=1e-14)
    zv = zeta_value(1.0, 1.0, 1.0)
    assert zv.zeta_squared == pytest.approx(-3.0)
    assert zv.zeta.imag == pytest.approx(math.sqrt(3))


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


def test_phenomenological_model():
    taus = np.linspace(-5, -0.01, 9)
    np.testing.assert_allclose(g2_phenomenological(1.0, 1.0, 2.0, taus), 1.0)
    assert g2_phenomenological(1.0, 1.0, 1.0, 0.0) == pytest.approx(2.0)
    assert g2_phenomenological(0.5, 1.0, 2.0, 1e-14) == pytest.approx(2.0)
    assert g2_phenomenological(0.5, 1.0, 2.0, -1e-14) == pytest.approx(2.0)
