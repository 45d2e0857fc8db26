import math
import signal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circascade import (
    ConfigInvalid,
    NumericalFailure,
    SubsetSpec,
    bundle_peak,
    g2_equal,
    g2_equal_pair,
    g2_subset,
    small_tau_leading,
    trace_index,
)

from circascade import analytic_equal
from circascade.analytic_equal import _mode_sum, _poisson_series
from oracles import g2_pair_expm, g2_subset_bruteforce

# frozen expected value, computed with the dense matrix-exponential oracle:
# g2 of the autocorrelation class at N=3, gamma=1, tau=1
G2_N3_K1_TAU1 = 0.5610435474298092


def test_maximum_antibunching_at_zero():
    for n in range(2, 13):
        for k in range(1, n):
            assert g2_equal(n, k, 1.0, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_contiguous_bunching_equals_level_count():
    for n in range(2, 13):
        assert g2_equal(n, 0, 1.0, 0.0) == pytest.approx(n, abs=1e-10)


def test_single_level_is_poisson():
    taus = np.linspace(0, 30, 7)
    assert np.all(g2_equal(1, 0, 1.0, taus) == 1.0)


def test_value_against_matrix_exponential_oracle():
    assert g2_equal(3, 1, 1.0, 1.0) == pytest.approx(G2_N3_K1_TAU1, abs=1e-12)
    oracle = g2_pair_expm([1.0, 1.0, 1.0], 0, 0, 1.0)
    assert g2_equal(3, 1, 1.0, 1.0) == pytest.approx(oracle, abs=1e-12)


def test_matches_oracle_across_classes():
    rng = np.random.default_rng(3)
    for n in (2, 4, 7):
        rates = [1.3] * n
        for _ in range(10):
            tau = rng.uniform(0, 3 * n)
            for k in range(n):
                mine = g2_equal(n, k, 1.3, tau)
                # oracle pair of class k: arrival-labeled (0, k-1)
                other = g2_pair_expm(rates, 0, (k - 1) % n, tau)
                assert mine == pytest.approx(other, abs=5e-11)


def test_pair_autocorrelation_mirror_symmetry():
    for tau in (0.7, -0.7):
        assert g2_equal_pair(6, 1, 1, 1.0, tau) == pytest.approx(
            g2_equal_pair(6, 1, 1, 1.0, -tau), abs=1e-14
        )


def test_pair_contiguous_discontinuity():
    assert g2_equal_pair(6, 2, 1, 1.0, 1e-12) == pytest.approx(6.0, abs=1e-9)
    assert g2_equal_pair(6, 2, 1, 1.0, -1e-12) == pytest.approx(0.0, abs=1e-9)


def test_pair_two_level_closed_form():
    # N=2 autocorrelation is 1 - exp(-2 gamma |tau|)
    assert g2_equal_pair(2, 1, 1, 1.0, 0.5) == pytest.approx(1 - math.exp(-1.0), abs=1e-12)


def test_pair_negative_tau_mirrors_swapped_pair():
    taus = np.linspace(0.05, 11, 23)
    left = g2_equal_pair(5, 3, 1, 2.0, -taus)
    right = g2_equal_pair(5, 1, 3, 2.0, taus)
    np.testing.assert_allclose(left, right, atol=1e-13)


def test_small_tau_leading_examples():
    assert small_tau_leading(6, 1, 1.0, 0.1) == pytest.approx(5e-7, rel=1e-12)
    assert small_tau_leading(6, 6, 1.0, 0.0) == pytest.approx(6.0)
    assert small_tau_leading(2, 1, 1.0, 0.01) == pytest.approx(0.02)
    # compare against the exact rise of the N=2 antibunching dip
    assert g2_equal(2, 1, 1.0, 0.01) == pytest.approx(1 - math.exp(-0.02), abs=1e-12)


@pytest.mark.parametrize("n_levels, k, tau", [
    (200, 1, 0.5),     # (N-k)! past the float range: the value underflows to 0
    (150, 1, 1000.0),  # x^(N-k) past it: the value is about 4e188
    (200, 1, 500.0),
    (400, 3, 300.0),
])
def test_small_tau_leading_past_the_direct_form_is_taken_in_log_space(n_levels, k, tau):
    p = n_levels - k
    exact = float(n_levels * mpmath.mpf(tau) ** p / mpmath.factorial(p))
    assert small_tau_leading(n_levels, k, 1.0, tau) == pytest.approx(exact, rel=1e-11, abs=0)


def test_small_tau_leading_keeps_the_direct_form_where_it_fits():
    taus = np.array([0.0, 1.0, 10.0, 1000.0])
    got = small_tau_leading(150, 1, 1.0, taus)
    assert np.array_equal(got[:3], 150 * taus[:3] ** 149 / math.factorial(149))
    assert got[3] == small_tau_leading(150, 1, 1.0, 1000.0)


def test_small_tau_leading_past_the_float_range_raises():
    with pytest.raises(NumericalFailure, match="float64 range"):
        small_tau_leading(150, 1, 1.0, 1e6)
    with pytest.raises(NumericalFailure, match="float64 range"):
        small_tau_leading(400, 1, 1.0, np.array([0.5, 1e4]))
    with pytest.raises(NumericalFailure, match="float64 range"):
        small_tau_leading(6, 2, 1e300, 1e300)  # gamma tau itself overflows
    assert small_tau_leading(6, 6, 1e300, 1e300) == 0.0


def test_small_tau_leading_rejects_bad_class():
    with pytest.raises(ConfigInvalid, match=r"k must be in \[1, 6\], got 0"):
        small_tau_leading(6, 0, 1.0, 0.1)
    with pytest.raises(ConfigInvalid, match=r"k must be in \[1, 6\], got 7"):
        small_tau_leading(6, 7, 1.0, 0.1)


def test_small_tau_leading_agreement_band():
    for n in range(2, 11):
        for k in range(1, n):
            ratio = g2_equal(n, k, 1.0, 0.1) / small_tau_leading(n, k, 1.0, 0.1)
            assert abs(ratio - 1) <= 0.15


def test_subset_bundle_value():
    assert g2_subset(50, SubsetSpec((1, 2)), 1.0, 0.0) == pytest.approx(12.5, abs=1e-10)


def test_subset_single_transition_collapses_to_autocorrelation():
    taus = np.linspace(-9, 9, 41)
    sub = g2_subset(12, SubsetSpec((4,)), 1.0, taus)
    auto = g2_equal_pair(12, 4, 4, 1.0, taus)
    np.testing.assert_allclose(sub, auto, atol=1e-13)


def test_subset_is_tau_symmetric():
    for tau in (3.0, 0.4, 17.0):
        assert g2_subset(50, SubsetSpec((1, 2)), 1.0, tau) == pytest.approx(
            g2_subset(50, SubsetSpec((1, 2)), 1.0, -tau), abs=1e-12
        )


def test_subset_against_bruteforce_double_sum():
    members = (1, 2, 5)
    for tau in (0.0, 0.8, -2.5):
        mine = g2_subset(9, SubsetSpec(members), 1.0, tau)
        brute = g2_subset_bruteforce(9, members, 1.0, tau)
        assert mine == pytest.approx(brute, abs=1e-10)


def test_subset_empty_rejected():
    with pytest.raises(ConfigInvalid, match="at least one transition"):
        g2_subset(10, (), 1.0, 0.0)


def test_subset_that_is_not_iterable_rejected():
    with pytest.raises(ConfigInvalid, match="subset must be iterable"):
        g2_subset(6, 3, 1.0, 0.5)
    assert g2_subset(6, [1, 2], 1.0, 0.5) == g2_subset(6, SubsetSpec((1, 2)), 1.0, 0.5)


def test_bundle_peak_values():
    assert bundle_peak(50, 2) == pytest.approx(12.5)
    assert bundle_peak(50, 1) == 0.0
    assert bundle_peak(12, 3) == pytest.approx(12 * 2 / 9)
    # a bundle holds at most the N transitions of the ring
    assert bundle_peak(3, 3) == pytest.approx(3 * 2 / 9)
    for n_s in (0, 4, 7):
        with pytest.raises(ConfigInvalid, match=rf"bundle size n_s = {n_s} outside \[1, 3\]"):
            bundle_peak(3, n_s)


def test_bundle_peak_matches_contiguous_subset():
    for n, k in ((50, 2), (12, 3), (40, 4)):
        sub = g2_subset(n, SubsetSpec(tuple(range(1, k + 1))), 1.0, 0.0)
        assert sub == pytest.approx(bundle_peak(n, k), abs=1e-10)


def test_long_time_limit_is_poisson():
    for n in (2, 5, 9):
        for k in range(n):
            val = g2_equal(n, k, 1.0, 20.0 * n)
            assert abs(val - 1) < 1e-6


def test_non_negative_on_dense_grid():
    taus = np.linspace(0, 40, 4001)
    for n in (2, 3, 6, 25):
        for k in range(n if n < 7 else 7):
            assert np.all(g2_equal(n, k, 1.0, taus) >= 0)


def test_cyclicity_in_class_index():
    taus = np.linspace(0, 12, 25)
    for k in range(6):
        np.testing.assert_array_equal(
            g2_equal(6, k, 1.0, taus), g2_equal(6, k + 6, 1.0, taus)
        )


@given(st.integers(2, 10), st.integers(0, 9), st.floats(0.01, 50.0), st.floats(0.0, 20.0))
@settings(max_examples=150, deadline=None)
def test_rate_rescaling_collapse(n, k, c, x):
    # g2(N, k, gamma, tau) depends on gamma and tau only through gamma*tau
    base = g2_equal(n, k % n, 1.0, x)
    scaled = g2_equal(n, k % n, c, x / c)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_distinct_all_tau_traces_modulo_mirror():
    # classes k and (2 - k) mod N are time mirrors; orbit count is N//2 + 1
    for n in (3, 6, 25):
        orbits = {frozenset({k, (2 - k) % n}) for k in range(n)}
        assert len(orbits) == n // 2 + 1


def _complex_mode_sum(n, k, x):
    """The mode sum as written, over all N - 1 complex modes."""
    j = np.arange(1, n)
    z = np.exp(2j * np.pi * j / n)
    w = np.exp(2j * np.pi * j * k / n)
    return (1.0 + (w * np.exp(-x[:, None] * (1.0 - z))).sum(axis=1)).real


def test_mode_sum_matches_poisson_series_on_overlap():
    # two independent routes to the same function, compared where both hold
    x = np.linspace(1.0, 6.0, 201)
    for n in range(2, 65):
        for k in range(n):
            np.testing.assert_allclose(
                _mode_sum(n, k, x), _poisson_series(n, k, x), rtol=0, atol=1e-12,
                err_msg=f"N={n} k={k}",
            )


@pytest.mark.parametrize("n", [6, 25, 50, 200])
def test_mode_sum_matches_complex_form(n):
    x = np.linspace(1.0, 10.0 * n, 2001)
    for k in sorted(set(range(0, n, max(1, n // 25))) | {n - 1}):
        np.testing.assert_allclose(
            _mode_sum(n, k, x), _complex_mode_sum(n, k, x), rtol=0, atol=1e-12 * n,
            err_msg=f"k={k}",
        )


def test_negative_beyond_rounding_raises(monkeypatch):
    bound = analytic_equal.NEGATIVE_ROUNDING * 40 * np.finfo(float).eps
    monkeypatch.setattr(analytic_equal, "_mode_sum", lambda n, k, x: np.full_like(x, -bound / 2))
    assert g2_equal(40, 1, 1.0, 5.0) == 0.0
    monkeypatch.setattr(analytic_equal, "_mode_sum", lambda n, k, x: np.full_like(x, -2 * bound))
    with pytest.raises(NumericalFailure):
        g2_equal(40, 1, 1.0, 5.0)


def test_poisson_series_stops_dividing_once_its_step_underflows():
    # each term of the series divides x^N by N factors; once x^N is 0 no
    # division is made, so a ring of 2^62 levels returns at once
    def expire(signum, frame):
        raise TimeoutError("g2_equal(2**62, ...) did not return within 10 s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        vals = g2_equal(2**62, 1, 1.0, [0.0, 0.5, 0.999])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert vals.tolist() == [0.0, 0.0, 0.0]


@given(
    st.integers(2, 10**4),
    st.integers(-10**5, 10**5),
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=256),
)
@settings(max_examples=60, deadline=None)
def test_finite_and_non_negative_up_to_large_n(n, k, u):
    # u is gamma*tau in units of N; the mode sum sits near 0 over most of it
    vals = g2_equal(n, k, 1.0, n * np.asarray(u))
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0)
