import json

import numpy as np
import pytest

from circascade import (
    CascadeSpec,
    ConfigInvalid,
    InsufficientSamples,
    cs_check,
    discontinuity,
    find_peaks,
    find_peaks_cross,
    g2_equal,
    steady_state,
)

UNBALANCED = CascadeSpec(3, (1.0, 1.1, 0.025))


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


def test_cs_check_equal_rates_always_violated():
    report = cs_check(CascadeSpec.equal(6, 1.0), 3, 1, [0.1])
    assert report.lhs == 0.0
    assert report.infinite_ratio
    assert report.max_ratio is None
    assert report.all_violated


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


def test_cs_check_accepts_callable_source():
    calls = []

    def fake_g2(m, n, tau):
        calls.append((m, n, tau))
        return 0.5 if m == n else 2.0

    report = cs_check(fake_g2, 1, 0, [0.3])
    assert report.lhs == pytest.approx(0.25)
    assert report.samples[0].violated  # 4.0 > 0.25
    assert report.max_ratio == pytest.approx(16.0)


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
