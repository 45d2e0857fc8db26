"""Acceptance suite: one test per criterion, every tolerance pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The whole module is deterministic (fixed seeds) and finishes at
desk scale.
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from circascade import (
    CascadeSpec,
    HistogramConfig,
    OscillationRegime,
    SimConfig,
    SubsetSpec,
    bundle_peak,
    correlate,
    cs_check,
    find_peaks,
    g2,
    g2_equal,
    g2_equal_pair,
    g2_general,
    g2_three_level,
    g2_subset,
    oscillation_condition,
    simulate,
    small_tau_leading,
    steady_state,
)

from oracles import occupancy_block_estimates, time_weighted_occupancy


def report(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def test_criterion_01_exact_boundary_values():
    worst = 0.0
    for n in range(2, 13):
        worst = max(worst, abs(g2_equal(n, 0, 1.0, 0.0) - n))
        for k in range(1, n):
            worst = max(worst, abs(g2_equal(n, k, 1.0, 0.0)))
    assert worst <= 1e-10
    report(1, f"g2(0) boundary values exact for N=2..12 (max dev {worst:.2e})")


def test_criterion_02_closed_form_vs_spectral_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in range(2, 13):
        spec = CascadeSpec.equal(n, 1.0)
        taus = rng.uniform(-10 * n, 10 * n, 100)
        for _ in range(6):
            m, k = rng.integers(0, n, 2)
            a = g2_equal_pair(n, int(m), int(k), 1.0, taus)
            b = g2_general(spec, int(m), int(k), taus)
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-10
    report(2, f"equal-rate closed form vs spectral propagation (max |diff| {worst:.2e})")


def test_criterion_03_three_level_closed_form_vs_propagation():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        rates = tuple(10 ** rng.uniform(-2, 2, 3))
        spec = CascadeSpec(3, rates)
        tau = float(rng.uniform(-10, 10) / np.mean(rates))
        for m in range(3):
            for n in range(3):
                a = g2_three_level(*rates, m, n, tau)
                b = g2_general(spec, m, n, tau)
                worst = max(worst, abs(a - b))
    assert worst <= 1e-8

    # rotation substitutions and the time mirror hold exactly
    for _ in range(50):
        g0, g1, g2v = 10 ** rng.uniform(-1.5, 1.5, 3)
        tau = float(rng.uniform(-6, 6))
        assert g2_three_level(g0, g1, g2v, 1, 0, tau) == g2_three_level(g2v, g0, g1, 2, 1, tau)
        assert g2_three_level(g0, g1, g2v, 0, 2, tau) == g2_three_level(g1, g2v, g0, 2, 1, tau)
        for m, n in ((1, 2), (0, 1), (2, 0)):
            assert g2_three_level(g0, g1, g2v, m, n, tau) == g2_three_level(
                g0, g1, g2v, n, m, -tau
            )
    report(3, f"N=3 closed form vs propagation over 100 triples (max |diff| {worst:.2e})")


def test_criterion_04_reference_peak_values():
    p6 = find_peaks(6, 1.0, 1, 1).peaks[0].magnitude
    p13 = find_peaks(13, 1.0, 1, 2).peaks[1].magnitude
    p50 = find_peaks(50, 1.0, 1, 8)
    p50_7 = p50.peaks[6].magnitude
    p50_8 = p50.peaks[7].magnitude
    assert abs(p6 - 1.10) <= 0.03
    assert abs(p13 - 1.10) <= 0.03
    assert abs(p50_7 - 1.13) <= 0.03
    assert abs(p50_8 - 1.09) <= 0.03
    report(4, f"peaks N=6:{p6:.3f} N=13(2nd):{p13:.3f} N=50(7th):{p50_7:.3f} (8th):{p50_8:.3f}")


def test_criterion_05_bundle_value():
    sub = g2_subset(50, SubsetSpec((1, 2)), 1.0, 0.0)
    peak = bundle_peak(50, 2)
    assert abs(sub - 12.5) <= 1e-10
    assert peak == 12.5
    report(5, f"two-photon bundle peak g2(0) = {sub:.12f} (formula {peak})")


def test_criterion_06_three_level_discontinuity():
    g0, g1, g2v = 1.0, 1.1, 0.025
    left = g2_three_level(g0, g1, g2v, 2, 1, -1e-6)
    right = g2_three_level(g0, g1, g2v, 2, 1, 1e-9)
    expected = 1 + (1 / g0 + 1 / g1) * g2v
    assert abs(left) <= 1e-4
    assert abs(right - expected) <= 1e-4
    report(6, f"discontinuity left {left:.2e}, right {right:.6f} (expected {expected:.6f})")


def test_criterion_07_oscillation_condition():
    assert oscillation_condition(1.0, 1.0, 1.0) is OscillationRegime.OSCILLATORY
    assert oscillation_condition(1.0, 1.0, 4.0) is OscillationRegime.BOUNDARY
    assert oscillation_condition(1.0, 1.0, 4.1) is OscillationRegime.OVERDAMPED
    for rates in ((1.0, 1.0, 1.0), (1.0, 1.0, 4.0), (1.0, 1.0, 4.1)):
        regimes = {oscillation_condition(*p) for p in itertools.permutations(rates)}
        assert len(regimes) == 1
    report(7, "oscillation regimes and permutation invariance")


def _mc_check(spec, analytic_fn, seed):
    stream = simulate(SimConfig(spec, seed=seed, total_events=10_000_000))
    trace = correlate(stream, (1, 1), HistogramConfig(0.05, 15.0))
    expected = analytic_fn(trace.tau)
    pulls = np.abs(trace.values - expected) / trace.stderr
    frac = float(np.mean(pulls < 3.0))
    ring = stream.times, stream.first_label, stream.n_levels, stream.total_duration
    occ = time_weighted_occupancy(*ring)
    blocks = occupancy_block_estimates(*ring, n_blocks=100)
    sem = blocks.std(axis=0, ddof=1) / np.sqrt(100)
    occ_ok = bool(np.all(np.abs(occ - steady_state(spec)) <= 3 * sem))
    return frac, occ_ok


def test_criterion_08_monte_carlo_equivalence():
    spec6 = CascadeSpec.equal(6, 1.0)
    frac6, occ6 = _mc_check(spec6, lambda t: g2_equal_pair(6, 1, 1, 1.0, t), seed=808)
    assert frac6 >= 0.99
    assert occ6

    spec124 = CascadeSpec(3, (1.0, 2.0, 4.0))
    frac3, occ3 = _mc_check(
        spec124, lambda t: g2_three_level(1.0, 2.0, 4.0, 1, 1, t), seed=809
    )
    assert frac3 >= 0.99
    assert occ3
    report(8, f"10^7-event histograms: {frac6:.1%} (N=6) / {frac3:.1%} (N=3) of bins within 3 sigma; occupancies within 3 sigma")


def test_criterion_09_structural_stream_invariants():
    spec = CascadeSpec.equal(6, 1.0)
    for seed in range(20):
        stream = simulate(SimConfig(spec, seed=seed, total_events=1_000_000))
        stream.check()  # raises on any violation
        _, labels = stream.merged()
        assert np.array_equal(labels[1:], (labels[:-1] - 1) % 6)
        counts = stream.counts
        assert max(counts) - min(counts) <= 1
    report(9, "20 seeds x 10^6 events: exact cycling, count spread <= 1, zero violations")


def test_criterion_10_cauchy_schwarz_always_violated():
    taus = np.linspace(0.01, 0.1, 10)
    checked = 0
    for n in (3, 6, 10):
        spec = CascadeSpec.equal(n, 1.0)
        for m in range(n):
            for k in range(n):
                if m == k:
                    continue
                rep = cs_check(spec, m, k, taus)
                assert rep.all_violated, (n, m, k)
                checked += 1
    report(10, f"Cauchy-Schwarz violated at every sample for {checked} pairs")


def test_criterion_11_small_tau_law():
    for n in range(2, 9):
        for k in range(1, n):
            taus = np.logspace(-2, -1, 11)
            ratio = np.array(
                [g2_equal(n, k, 1.0, t) / small_tau_leading(n, k, 1.0, t) for t in taus]
            )
            assert 0.85 <= ratio[-1] <= 1.0, (n, k, ratio[-1])
            assert np.all(np.diff(ratio) < 0), (n, k)  # rises monotonically as tau -> 0
            assert np.all(ratio <= 1.0 + 1e-12)
    report(11, "small-tau ratio in [0.85, 1] at gamma*tau = 0.1, monotone over a decade")


def test_criterion_12_cli_determinism(tmp_path):
    def pipeline(tag):
        stream = tmp_path / f"{tag}.events"
        trace = tmp_path / f"{tag}.csv"
        analytic = tmp_path / f"{tag}_a.csv"
        for args in (
            ["simulate", "--n", "6", "--gamma", "1", "--events", "200000",
             "--seed", "4242", "--out", str(stream)],
            ["correlate", "--in", str(stream), "--pair", "1,1", "--bin", "0.05",
             "--taumax", "15", "--out", str(trace)],
            ["analytic", "--n", "6", "--pair", "1,1", "--tau", "-15:15",
             "--steps", "600", "--out", str(analytic)],
        ):
            cp = subprocess.run(
                [sys.executable, "-m", "circascade.cli", *args],
                capture_output=True, text=True,
            )
            assert cp.returncode == 0, cp.stderr
        return stream.read_bytes(), trace.read_bytes(), analytic.read_bytes()

    first = pipeline("first")
    second = pipeline("second")
    assert first == second
    report(12, "simulate/correlate/analytic pipeline reruns are byte-identical")


def test_criterion_13_cross_pairs_of_an_unequal_rate_ring():
    # an unequal-rate cross pair tells the labelings apart: the estimate and
    # g2 of the same selection answer for the same two transitions
    spec = CascadeSpec(6, (1.0, 0.4, 2.5, 0.8, 1.7, 1.2))
    shares = []
    for seed in (3, 4):
        stream = simulate(SimConfig(spec, seed=seed, total_events=3_000_000))
        for pair in ((1, 4), (2, 1), (0, 3)):
            trace = correlate(stream, pair, HistogramConfig(0.05, 15.0))
            pulls = np.abs(trace.values - g2(spec, pair, trace.tau)) / trace.stderr
            shares.append(float(np.mean(pulls < 3.0)))
            assert shares[-1] >= 0.99, (seed, pair, shares[-1])
    report(13, f"unequal-rate cross pairs (1,4), (2,1), (0,3) at two seeds: "
               f">= {min(shares):.1%} of bins within 3 sigma of g2")
