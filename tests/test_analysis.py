import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circascade import (
    CascadeSpec,
    ConfigInvalid,
    InsufficientSamples,
    NumericalFailure,
    SubsetSpec,
    cs_check,
    discontinuity,
    find_peaks,
    find_peaks_cross,
    g2,
    g2_equal,
    g2_equal_pair,
    g2_general,
    g2_subset,
    steady_state,
)
from circascade import analysis, analytic_equal
from circascade.analytic_equal import _grid_mode_sum as grid_mode_sum
from oracles import golden_section_max

UNBALANCED = CascadeSpec(3, (1.0, 1.1, 0.025))
STIFF3 = CascadeSpec(3, (0.001, 1000.0, 0.001))


def test_first_peak_n6():
    report = find_peaks(6, 1.0, 1, 1)
    assert report.peaks[0].magnitude == pytest.approx(1.10, abs=0.03)
    assert 5.0 < report.peaks[0].tau < 7.0


def test_second_peak_reaches_ten_percent_at_n13():
    report = find_peaks(13, 1.0, 1, 2)
    assert report.peaks[1].magnitude == pytest.approx(1.10, abs=0.03)


def test_n50_seventh_and_eighth_peaks():
    report = find_peaks(50, 1.0, 1, 8)
    assert report.peaks[6].magnitude == pytest.approx(1.13, abs=0.03)
    assert report.peaks[7].magnitude == pytest.approx(1.09, abs=0.03)


def test_no_peaks_for_two_level():
    with pytest.raises(InsufficientSamples, match="no oscillation maxima for N=2"):
        find_peaks(2, 1.0, 1, 1)
    # the message names the class as given, not reduced mod N
    with pytest.raises(InsufficientSamples) as info:
        find_peaks(2, 1.0, 7, 3)
    assert str(info.value) == "no oscillation maxima for N=2, k=7"


@pytest.mark.parametrize("max_order", [0, -1])
def test_peak_order_below_one_rejected(max_order):
    with pytest.raises(ConfigInvalid, match="max_order must be >= 1"):
        find_peaks(6, 1.0, 1, max_order)
    with pytest.raises(ConfigInvalid, match="max_order must be >= 1"):
        find_peaks_cross(6, 1.0, max_order)


def test_peak_locations_near_multiples_of_round_trip_time():
    report = find_peaks(9, 1.0, 1, 4)
    for peak in report.peaks:
        expected = peak.order * 9.0
        assert abs(peak.tau - expected) <= 0.3 * expected


def test_peak_gamma_rescaling():
    slow = find_peaks(6, 1.0, 1, 2)
    fast = find_peaks(6, 4.0, 1, 2)
    for a, b in zip(slow.peaks, fast.peaks):
        assert b.tau == pytest.approx(a.tau / 4.0, abs=2e-4)
        assert b.magnitude == pytest.approx(a.magnitude, abs=1e-7)


def test_cross_trace_even_n_is_symmetric():
    # even N: the opposite-transition trace mirrors onto itself
    k = (6 + 3) // 2
    taus = np.linspace(0.1, 18, 50)
    fwd = g2_equal(6, k, 1.0, taus)
    mirror = g2_equal(6, (2 - k) % 6, 1.0, taus)
    np.testing.assert_allclose(fwd, mirror, atol=1e-10)
    report = find_peaks_cross(6, 1.0, 2)
    assert len(report.peaks) == 2


def test_cross_gap_half_width_scale_n25():
    report = find_peaks_cross(25, 1.0, 1)
    assert report.peaks[0].tau == pytest.approx(25 / 2, rel=0.3)


def test_cross_peaks_exceed_auto_peaks_n25():
    auto = find_peaks(25, 1.0, 1, 3)
    cross = find_peaks_cross(25, 1.0, 3)
    for a, c in zip(auto.peaks, cross.peaks):
        assert c.magnitude > a.magnitude


def test_cross_odd_n_takes_larger_mirror_peak():
    n = 25
    k = (n + 3) // 2
    report = find_peaks_cross(n, 1.0, 2)
    side_a = find_peaks(n, 1.0, k, 2)
    side_b = find_peaks(n, 1.0, (2 - k) % n, 2)
    for q in range(2):
        expected = max(side_a.peaks[q].magnitude, side_b.peaks[q].magnitude)
        assert report.peaks[q].magnitude == pytest.approx(expected, abs=1e-10)


def test_peak_report_serialization():
    report = find_peaks(6, 1.0, 1, 2)
    payload = json.loads(report.to_json())
    assert payload["n_levels"] == 6
    assert len(payload["peaks"]) == 2
    csv = report.to_csv().splitlines()
    assert csv[0] == "order,tau,g2"
    assert len(csv) == 3


SEAM_CASES = [(5, 1, 1.0, 3), (6, 2, 2.5, 3), (9, 1, 0.5, 2), (4, 0, 1.0, 2), (7, 3, 1.3, 2)]


@pytest.mark.parametrize("window", [3, 7, 64])
def test_scan_window_does_not_change_peaks(monkeypatch, window):
    default = [
        (find_peaks(n, gamma, k, orders), find_peaks_cross(n, gamma, orders))
        for n, k, gamma, orders in SEAM_CASES
    ]
    monkeypatch.setattr(analysis, "PEAK_SCAN_WINDOW", window)
    for (n, k, gamma, orders), (auto, cross) in zip(SEAM_CASES, default):
        assert find_peaks(n, gamma, k, orders) == auto
        assert find_peaks_cross(n, gamma, orders) == cross


@given(st.floats(0.05, 4.0), st.integers(1, 8), st.sampled_from([64, 4096]))
@settings(max_examples=25, deadline=None)
def test_scan_grid_is_the_arange_grid(gamma, max_order, window):
    # N = 2, class 1 has no maximum above 1, so the scan runs until the trace
    # is flat: whole windows of step + i * step, the last one past tau_flat
    seen = []

    def record(n_levels, k, gamma_, taus, step):
        seen.append(np.array(taus))
        return grid_mode_sum(n_levels, k, gamma_, taus, step)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_grid_mode_sum", record)
        mp.setattr(analysis, "PEAK_SCAN_WINDOW", window)
        with pytest.raises(InsufficientSamples):
            find_peaks(2, gamma, 1, max_order)
    step = analysis.PEAK_GRID_STEP / gamma
    tau_flat = analysis.MODE_CUT / (2 * gamma)  # gamma tau d_1 = MODE_CUT, d_1 = 2
    scanned = np.concatenate(seen)
    expected = step + np.arange(len(scanned)) * step
    assert scanned.tobytes() == expected.tobytes()
    assert [len(w) for w in seen] == [window] * len(seen)
    assert [w[-1] > tau_flat for w in seen] == [False] * (len(seen) - 1) + [True]


def exact_brackets(n_levels, k, gamma, g2=g2_equal):
    """The scan with every grid point through g2 (g2_equal), as it was
    before `_grid_mode_sum` decided the comparisons it can."""
    step = analysis.PEAK_GRID_STEP / gamma
    slowest = 2 * gamma * math.sin(math.pi / n_levels) ** 2
    tau_flat = 0.0 if n_levels == 1 else analysis.MODE_CUT / slowest if slowest else math.inf
    taus, g = np.empty(0), np.empty(0)
    for start in itertools.count(0, analysis.PEAK_SCAN_WINDOW):
        window = step + np.arange(start, start + analysis.PEAK_SCAN_WINDOW) * step
        taus = np.concatenate([taus[-2:], window])
        g = np.concatenate([g[-2:], g2(n_levels, k, gamma, window)])
        mid = g[1:-1]
        for i in np.flatnonzero((mid > g[:-2]) & (mid >= g[2:]) & (mid > 1.0)):
            yield float(taus[i]), float(taus[i + 2])
        if taus[-1] > tau_flat:
            return


def assert_same_scan(n_levels, k, gamma, orders=None):
    scans = [list(itertools.islice(scan(n_levels, k, gamma), orders))
             for scan in (analysis._grid_brackets, exact_brackets)]
    assert np.array(scans[0]).tobytes() == np.array(scans[1]).tobytes()


@given(st.integers(1, 64), st.integers(0, 127), st.floats(-3.0, 3.0),
       st.sampled_from([3, 7, 64, 4096]), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_filtered_scan_is_the_exact_scan(n_levels, k, log_gamma, window, orders):
    # the exact scan makes one g2_equal call per window: whole scans in
    # windows of 4096, the first few maxima in smaller ones
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "PEAK_SCAN_WINDOW", window)
        assert_same_scan(n_levels, k % n_levels, 10.0 ** log_gamma,
                         None if window == 4096 else orders)


# whole scans, out to where the trace is exactly 1: (6, 1, 1.0) reports 26
# maxima and (3, 0, 0.37) 6, most of them rounding ripples of one lobe
@pytest.mark.parametrize("n_levels, k, gamma, window", [
    (6, 1, 1.0, 4096), (3, 0, 0.37, 4096), (6, 1, 1.0, 7), (3, 0, 0.37, 3),
    (2, 1, 1.0, 64), (1, 0, 2.0, 7), (13, 1, 1e300, 4096), (12, 7, 1e-300, 4096),
    (25, 14, 1e300, 64), (50, 1, 1e-300, 4096), (64, 33, 0.01, 4096),
])
def test_whole_filtered_scan_is_the_exact_scan(monkeypatch, n_levels, k, gamma, window):
    monkeypatch.setattr(analysis, "PEAK_SCAN_WINDOW", window)
    assert_same_scan(n_levels, k, gamma)


@given(st.integers(1, 24), st.integers(0, 63), st.floats(-1.0, 1.0),
       st.sampled_from([3, 7, 4096]), st.floats(-15.0, -3.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scan_is_exact_for_any_values_within_their_bounds(
        n_levels, k, log_gamma, window, log_bound, seed):
    # the scan may trust no more than the bound: values off g2_equal by up to
    # a loose bound, in random directions, still give the exact brackets
    rng = np.random.default_rng(seed)

    def loose(n_levels_, k_, gamma_, taus, step):
        exact = g2_equal(n_levels_, k_, gamma_, taus)
        series = gamma_ * taus < analytic_equal.SERIES_SWITCH  # no bound there
        off = np.where(series, 1.0, 10.0 ** log_bound) * rng.choice([-0.99, 0.99], len(taus))
        approx = exact + off
        # a bound that the rounding of exact + off cannot exceed
        bound = np.maximum(10.0 ** log_bound, np.abs(approx - exact))
        return approx, np.where(series, np.inf, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "PEAK_SCAN_WINDOW", window)
        mp.setattr(analysis, "_grid_mode_sum", loose)
        assert_same_scan(n_levels, k % n_levels, 10.0 ** log_gamma,
                         None if window == 4096 else 3)


def test_scan_takes_the_exact_value_of_a_maximum_near_1(monkeypatch):
    # every third point a maximum within its bound of 1, its neighbours far
    # below it: no neighbour pair is close, so only the test against 1 can
    # send it to the exact value
    bound = 1e-9

    def trace(n_levels, k, gamma, taus):
        i = np.rint(gamma * taus / analysis.PEAK_GRID_STEP).astype(int)
        return 1.0 + np.where(i % 3 == 0, 0.5, -3.0) * bound

    def low(n_levels, k, gamma, taus, step):
        return trace(n_levels, k, gamma, taus) - 0.99 * bound, np.full(len(taus), bound)

    monkeypatch.setattr(analysis, "g2_equal", trace)
    monkeypatch.setattr(analysis, "_grid_mode_sum", low)
    found = list(itertools.islice(analysis._grid_brackets(6, 1, 1.0), 5))
    assert found == list(itertools.islice(exact_brackets(6, 1, 1.0, trace), 5))
    assert len(found) == 5


@pytest.mark.parametrize("n_levels, gamma, k, max_order", [(6, 1.0, 1, 2000), (3, 0.37, 0, 9)])
def test_ripple_reports_are_those_of_the_exact_scan(monkeypatch, n_levels, gamma, k, max_order):
    report = find_peaks(n_levels, gamma, k, max_order)
    monkeypatch.setattr(analysis, "_grid_brackets", exact_brackets)
    assert report == find_peaks(n_levels, gamma, k, max_order)
    assert len(report.peaks) == {6: 26, 3: 6}[n_levels]


@given(st.integers(2, 64), st.integers(0, 63), st.floats(-3.0, 3.0), st.floats(0.0, 1.0),
       st.integers(1, 4096))
@example(2001, 5, 0.0, 0.0, 4096)  # 1,000 pairs: 32-row blocks, four products
@settings(max_examples=150, deadline=None)
def test_grid_mode_sum_is_within_its_bound(n_levels, k, log_gamma, where, length):
    # windows of the scan grid anywhere up to the flat point gamma tau d_1 = MODE_CUT
    gamma = 10.0 ** log_gamma
    step = analysis.PEAK_GRID_STEP / gamma
    flat = analysis.MODE_CUT / (2 * math.sin(math.pi / n_levels) ** 2) / analysis.PEAK_GRID_STEP
    start = int(where * flat)
    taus = step + np.arange(start, start + length) * step
    approx, bound = grid_mode_sum(n_levels, k % n_levels, gamma, taus, step)
    exact = g2_equal(n_levels, k, gamma, taus)
    finite = bound < np.inf
    assert np.array_equal(finite, gamma * taus >= 1.0)
    assert np.all(np.abs(approx - exact)[finite] <= bound[finite])


def _plateaus(centre):
    # a step function of the distance to centre: probes often tie
    return lambda x: -np.floor(np.abs(np.asarray(x) - centre) * 8.0)


@given(
    st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 5.0)), min_size=1, max_size=8),
    st.floats(-50.0, 50.0),
    st.floats(1e-6, 0.1),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_batched_golden_section_matches_scalar_reference(brackets, centre, tol, smooth):
    if smooth:
        f = lambda x: np.cos(np.asarray(x) - centre) - 1e-3 * np.asarray(x) ** 2
    else:
        f = _plateaus(centre)
    a = np.array([lo for lo, _ in brackets])
    b = a + np.array([width for _, width in brackets])
    batched = analysis._golden_refine(f, a, b, tol)
    scalar = lambda t: float(f(np.array([t]))[0])
    expected = [golden_section_max(scalar, float(lo), float(hi), tol) for lo, hi in zip(a, b)]
    assert batched.tobytes() == np.array(expected).tobytes()


@given(st.integers(3, 30), st.integers(0, 29), st.floats(5.0, 400.0))
@settings(max_examples=40, deadline=None)
def test_batched_golden_section_on_g2_matches_scalar_reference(n, k, centre):
    f = lambda t: g2_equal(n, k, 1.0, t)
    a = centre + np.array([0.0, 1.5, 7.25])
    b = a + 0.02
    batched = analysis._golden_refine(f, a, b, 1e-4)
    expected = [golden_section_max(f, float(lo), float(hi), 1e-4) for lo, hi in zip(a, b)]
    assert batched.tobytes() == np.array(expected).tobytes()


def test_peak_scan_makes_few_g2_calls(monkeypatch):
    calls = []

    def count(*args):
        calls.append(args)
        return g2_equal(*args)

    monkeypatch.setattr(analysis, "g2_equal", count)
    report = find_peaks(50, 1.0, 1, 8)
    assert len(report.peaks) == 8
    assert len(calls) <= 24
    # the scan covers 40,960 grid points, the golden section about 12 x 8
    assert sum(np.size(args[3]) for args in calls) <= 4096


@pytest.mark.parametrize("scan", [lambda: find_peaks(64, 1.0, 1, 8),
                                  lambda: find_peaks_cross(63, 1.0, 7)], ids=["auto", "cross"])
def test_peak_scan_memory_is_small(scan):
    analytic_equal._step_table.cache_clear()  # the table is built inside the traced scan
    tracemalloc.start()
    try:
        scan()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_huge_order_count_stops_where_the_trace_is_flat():
    # past gamma tau d_1 > MODE_CUT the trace is exactly 1: no more maxima
    bounded = find_peaks(6, 1.0, 1, 2000)
    assert len(bounded.peaks) == 26
    tracemalloc.start()
    try:
        huge = find_peaks(6, 1.0, 1, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert huge.peaks == bounded.peaks
    assert peak < 4 * 2**20
    # an order count past the float range: the scan never converts it
    assert find_peaks(6, 1.0, 1, 10**400).peaks == bounded.peaks


@pytest.mark.parametrize("scan", [find_peaks, lambda n, g, *_: find_peaks_cross(n, g, 2)],
                         ids=["auto", "cross"])
def test_a_subnormal_gamma_raises_before_the_scan(scan, monkeypatch):
    # the grid step 0.01 / gamma is inf; it was multiplied by 0 in the scan
    monkeypatch.setattr(analysis, "g2_equal", None)
    with pytest.raises(NumericalFailure, match="gamma = 5e-324"):
        scan(2, 5e-324, 1, 2)


@pytest.mark.parametrize("n_levels, gamma", [(6, 5e-324), (12, 1e-323)])
def test_a_flat_point_that_underflows_raises_before_the_scan(n_levels, gamma, monkeypatch):
    # 2 gamma sin^2(pi / N) underflows to 0: the flat point was 40 / 0, a
    # ZeroDivisionError
    monkeypatch.setattr(analysis, "g2_equal", None)
    with pytest.raises(NumericalFailure, match="past the float64 range"):
        find_peaks(n_levels, gamma, 1, 2)


def test_cs_check_equal_rates_always_violated():
    report = cs_check(CascadeSpec.equal(6, 1.0), 3, 1, [0.1])
    assert report.lhs == 0.0
    assert report.infinite_ratio
    assert report.max_ratio is None
    assert report.all_violated


# two of this ring's samples square to one ulp apart under numpy's ** 2
RING5 = CascadeSpec(5, tuple(10.0 ** np.random.default_rng(9).uniform(-2, 2, 5)))


@pytest.mark.parametrize("spec", [CascadeSpec.equal(6), UNBALANCED, RING5],
                         ids=["equal6", "fig5", "ring5"])
def test_cs_check_squares_each_sample_alone(spec):
    """Every rhs is the route's value at that tau alone, squared as a
    Python float, bit for bit; the flags and the ratio follow from it."""
    route = lambda m, n, tau: analysis.g2(spec, (m, n), tau)
    taus = np.linspace(0.005, 0.3, 9)
    for m in range(spec.n_levels):
        for n in range(spec.n_levels):
            if m == n:
                continue
            report = cs_check(spec, m, n, taus)
            assert report.lhs == route(n, n, 0.0) * route(m, m, 0.0)
            assert [s.tau for s in report.samples] == taus.tolist()
            for sample in report.samples:
                alone = cs_check(spec, m, n, [sample.tau]).samples[0]
                assert sample.rhs == route(n, m, sample.tau) ** 2 == alone.rhs
                assert sample.violated == alone.violated
            rhs = [s.rhs for s in report.samples]
            assert report.lhs == 0.0
            assert report.infinite_ratio == any(r > 0.0 for r in rhs)
            assert report.max_ratio is None
            assert [s.violated for s in report.samples] == [r > 0.0 for r in rhs]


@given(n_levels=st.integers(2, 40), spread=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_auto_pair_vanishes_at_zero(n_levels, spread, seed):
    """Each transition of a one-way ring is perfectly antibunched: g_nn(0+)
    is exactly 0 on both routes, so the left side of cs_check is 0."""
    rng = np.random.default_rng(seed)
    spec = (CascadeSpec(n_levels, tuple(10.0 ** rng.uniform(-3, 3, n_levels))) if spread
            else CascadeSpec.equal(n_levels, 10.0 ** rng.uniform(-3, 3)))
    assert [g2(spec, (n, n), 0.0) for n in range(n_levels)] == [0.0] * n_levels


def test_cs_check_rejects_degenerate_pair():
    with pytest.raises(ConfigInvalid):
        cs_check(CascadeSpec.equal(6, 1.0), 2, 2, [0.1])


def test_cs_check_every_pair_and_sample():
    for n in (3, 6, 10):
        spec = CascadeSpec.equal(n, 1.0)
        taus = np.linspace(0.01, 0.1, 5)
        for m in range(n):
            for k in range(n):
                if m == k:
                    continue
                assert cs_check(spec, m, k, taus).all_violated, (n, m, k)


def test_cs_check_unbalanced_three_level():
    report = cs_check(UNBALANCED, 2, 1, np.linspace(0.005, 0.1, 6))
    assert report.lhs == 0.0
    assert report.all_violated


def test_cs_check_takes_a_spec_only():
    with pytest.raises(ConfigInvalid, match="spec must be a CascadeSpec"):
        cs_check(lambda m, n, tau: 1.0, 1, 0, [0.3])


def test_discontinuity_equal_contiguous():
    for n in (3, 6, 25):
        left, right, jump = discontinuity(CascadeSpec.equal(n, 1.0), 2, 1)
        assert (left, right, jump) == (0.0, float(n), float(n))


def test_discontinuity_equal_noncontiguous_is_continuous():
    left, right, jump = discontinuity(CascadeSpec.equal(6, 1.0), 3, 1)
    assert (left, right, jump) == (0.0, 0.0, 0.0)


def test_discontinuity_unbalanced_three_level():
    left, right, jump = discontinuity(UNBALANCED, 2, 1)
    expected = 1 + (1 / 1.0 + 1 / 1.1) * 0.025
    assert left == pytest.approx(0.0, abs=1e-4)
    assert right == pytest.approx(expected, abs=1e-4)
    assert jump == pytest.approx(expected, abs=2e-4)


def test_discontinuity_general_rates_uses_numeric_limits():
    spec = CascadeSpec(4, (0.5, 1.0, 2.0, 3.0))
    left, right, _ = discontinuity(spec, 2, 1)
    assert left == pytest.approx(0.0, abs=1e-6)
    # contiguous pair: right limit is 1 / p_ss[read level]
    from circascade import steady_state

    assert right == pytest.approx(1 / steady_state(spec)[2], rel=1e-6)


def test_discontinuity_returns_exact_limits():
    spec = CascadeSpec(4, (0.5, 1.0, 2.0, 3.0))
    right = 1 / steady_state(spec)[2]
    assert discontinuity(spec, 2, 1) == pytest.approx((0.0, right, right), rel=1e-12, abs=0)
    # N = 3 rings propagate too: a contiguous pair (m, m - 1) reads the level m it starts in
    for spec in (UNBALANCED, STIFF3):
        for m in range(3):
            right = 1 / steady_state(spec)[m]
            assert discontinuity(spec, m, (m - 1) % 3) == (0.0, right, right), (spec, m)


RINGS = st.one_of(
    st.builds(CascadeSpec.equal, st.integers(1, 12), st.floats(0.1, 10.0)),
    st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3).map(lambda r: CascadeSpec(3, r)),
    st.integers(2, 8).flatmap(lambda n: st.lists(
        st.floats(0.01, 100.0), min_size=n, max_size=n).map(lambda r: CascadeSpec(n, r))),
)


@given(RINGS, st.data())
@settings(max_examples=60, deadline=None)
def test_g2_takes_the_route_its_ring_names(spec, data):
    """A pair goes to the equal-rate form, else to propagation (N = 3
    included), and returns that route's bits."""
    n = spec.n_levels
    m, k = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="pair")
    taus = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6),
                              label="taus"))
    if spec.is_equal_rate():
        route = lambda t: g2_equal_pair(n, m, k, spec.rates[0], t)
    else:
        route = lambda t: g2_general(spec, m, k, t)
    assert g2(spec, (m, k), taus).tobytes() == route(taus).tobytes()
    scalar = g2(spec, (m, k), float(taus[0]))
    assert type(scalar) is float and scalar == route(float(taus[0]))


def test_g2_of_a_subset_is_the_equal_rate_subset_form():
    taus = np.linspace(-4.0, 4.0, 81)
    spec = CascadeSpec.equal(7, 0.8)
    subset = SubsetSpec((1, 2, 5))
    assert g2(spec, subset, taus).tobytes() == g2_subset(7, subset, 0.8, taus).tobytes()


@pytest.mark.parametrize("spec", [UNBALANCED, CascadeSpec(4, (0.5, 1.0, 2.0, 3.0))])
def test_g2_of_a_subset_needs_equal_rates(spec):
    with pytest.raises(ConfigInvalid, match="equal rates"):
        g2(spec, SubsetSpec((0, 1)), 0.5)


@pytest.mark.parametrize("selection", [3, None, "1", (1, 2, 3)])
def test_g2_takes_a_pair_or_a_subset_only(selection):
    with pytest.raises(ConfigInvalid):
        g2(CascadeSpec.equal(4), selection, 0.5)


def test_g2_takes_a_spec_only():
    with pytest.raises(ConfigInvalid, match="spec must be a CascadeSpec"):
        g2((4, 1.0), (1, 0), 0.5)
