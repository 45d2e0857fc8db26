"""Workload inputs, CLI jobs and output checks for the circascade benchmark.

Each builder turns a seed into the inputs of one workload (rates files,
``--seed`` values, flags), the list of CLI jobs that make one pass, the
input sizes recorded with every result, and a check of one pass's outputs.
The program sees only those inputs. Checks use references kept here
(paper values, a dense matrix-exponential oracle) or the package's other
route to the same quantity; they never import the test suite's oracles.
Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Job:
    """One CLI call: ``python -m circascade.cli *argv`` run in the pass directory."""

    name: str
    argv: tuple[str, ...]
    subcommand: str
    family: str
    outputs: tuple[str, ...]   # data outputs, relative to the pass directory
    points: int = 0            # tau points evaluated (general jobs)
    events: int = 0            # events recorded (simulate jobs)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    sizes: dict
    # check(pass_dir) -> [(job name, failure message), ...]
    check: Callable[[Path], list[tuple[str, str]]]


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _sample_rows(rng: np.random.Generator, n_rows: int, count: int) -> np.ndarray:
    return np.sort(rng.choice(n_rows, size=min(count, n_rows), replace=False))


def _grid_failure(data: np.ndarray, lo: float, hi: float, steps: int) -> str | None:
    if data.shape[0] != steps + 1 or not np.array_equal(data[:, 0], np.linspace(lo, hi, steps + 1)):
        return f"tau grid is not linspace({lo}, {hi}, {steps + 1})"
    return None


def generator(rates) -> np.ndarray:
    """Dense generator Q of the one-way ring: level l decays into l-1 at rates[l]."""
    n = len(rates)
    q = np.zeros((n, n))
    for level, rate in enumerate(rates):
        q[level, level] -= rate
        q[(level - 1) % n, level] += rate
    return q


def oracle_g2(rates, m: int, n: int, taus) -> np.ndarray:
    """g2 of the arrival-labelled pair (m, n) by one dense expm per tau.

    tau >= 0 propagates from level m and reads level n+1; tau < 0 mirrors
    the swapped pair. Values are probability ratios to the stationary
    occupation, which is proportional to 1/rate.
    """
    from scipy.linalg import expm

    rates = np.asarray(rates, dtype=float)
    size = len(rates)
    q = generator(rates)
    stationary = (1.0 / rates) / (1.0 / rates).sum()
    out = np.empty(len(taus))
    for i, tau in enumerate(taus):
        src, read = ((m, n + 1) if tau >= 0 else (n, m + 1))
        p = expm(q * abs(tau))[:, src % size]
        out[i] = p[read % size] / stationary[read % size]
    return out


def eigenvector_condition(rates) -> float:
    """Condition number of the generator's eigenvector matrix (input property)."""
    _, vectors = np.linalg.eig(generator(rates))
    return float(np.linalg.cond(vectors))


# ---------------------------------------------------------------------------
# figures: every paper preset as its own CLI call

# preset -> (N, pair (m, n)) or (N, subset); class k presets use the pair
# (0, k - 1), whose class n - m + 1 is k
ANALYTIC_PRESETS = {
    "fig1c": (6, (1, 1)), "fig1d": (6, (2, 1)),
    "fig3a": (25, (2, 1)), "fig3b": (25, (0, 0)),
    "fig3c": (25, (0, 1)), "fig3d": (25, (0, 12)),
    "fig4a": (50, "subset"),
}
ANALYTIC_GRIDS = {"fig1c": (-15, 15, 1500), "fig1d": (-8, 8, 1600)}
ANALYTIC_GRIDS.update({f"fig3{c}": (-60, 60, 2400) for c in "abcd"})
ANALYTIC_GRIDS["fig4a"] = (-100, 100, 4000)
GENERAL_PRESETS = {
    "fig5": (1.0, 1.1, 0.025),
    "fig5dashed": (0.7083333333333334,) * 3,
}
# criterion 4: (N, peak order) -> reference magnitude, +-0.03
PEAK_REFERENCES = {(6, 1): 1.10, (13, 2): 1.10, (50, 7): 1.13, (50, 8): 1.09}
BUNDLE_PEAK = 12.5   # fig4a: N (n_S - 1) / n_S^2 at N = 50, n_S = 2


def figures(seed: int, smoke: bool, inputs: Path) -> Workload:
    scan_hi = 13 if smoke else 50
    jobs = [
        Job(p, ("analytic", "--preset", p, "--out", f"{p}.csv"), "analytic", "figures", (f"{p}.csv",))
        for p in ANALYTIC_PRESETS
    ]
    jobs += [
        Job(p, ("general", "--preset", p, "--out", f"{p}.csv"), "general", "figures", (f"{p}.csv",),
            points=1601)
        for p in GENERAL_PRESETS
    ]
    jobs.append(Job("cscheck", ("cscheck", "--n", "6", "--pair", "3,1", "--tau-samples",
                                "0.02:0.1:5", "--out", "cscheck.json"),
                    "cscheck", "figures", ("cscheck.json",)))
    peaks_argv = ("peaks", "--preset", "fig2", "--out", "fig2.csv")
    if smoke:
        peaks_argv += ("--scan", f"3:{scan_hi}")
    jobs.append(Job("fig2", peaks_argv, "peaks", "figures", ("fig2.csv",)))

    def check(pass_dir: Path) -> list[tuple[str, str]]:
        from circascade import CascadeSpec, g2_general

        rng = np.random.default_rng(seed)
        failures = []
        for preset, (n_levels, what) in ANALYTIC_PRESETS.items():
            data = _csv(pass_dir / f"{preset}.csv")
            bad = _grid_failure(data, *ANALYTIC_GRIDS[preset])
            if bad:
                failures.append((preset, bad))
                continue
            rows = data[_sample_rows(rng, len(data), 40)]
            spec = CascadeSpec.equal(n_levels)
            if what == "subset":
                ref = sum(g2_general(spec, i, j, rows[:, 0]) for i in (1, 2) for j in (1, 2)) / 4
            else:
                ref = g2_general(spec, *what, rows[:, 0])
            gap = float(np.abs(rows[:, 1] - ref).max())
            if gap > 1e-9:
                failures.append((preset, f"differs from g2_general by {gap:.3e} > 1e-9"))
            if what == "subset":
                zero = data[data[:, 0] == 0.0, 1]
                if len(zero) != 1 or abs(zero[0] - BUNDLE_PEAK) > 1e-10:
                    failures.append((preset, f"g2(0) = {zero} is not {BUNDLE_PEAK} +- 1e-10"))

        for preset, rates in GENERAL_PRESETS.items():
            data = _csv(pass_dir / f"{preset}.csv")
            bad = _grid_failure(data, -8, 8, 1600)
            if bad:
                failures.append((preset, bad))
                continue
            rows = data[_sample_rows(rng, len(data), 25)]
            gap = float(np.abs(rows[:, 1] - oracle_g2(rates, 2, 1, rows[:, 0])).max())
            if gap > 1e-8:
                failures.append((preset, f"differs from the expm oracle by {gap:.3e} > 1e-8"))

        report = json.loads((pass_dir / "cscheck.json").read_text())
        if len(report["samples"]) != 5 or not all(s["violated"] for s in report["samples"]):
            failures.append(("cscheck", "not every Cauchy-Schwarz sample is violated"))

        peaks = {}
        for line in (pass_dir / "fig2.csv").read_text().splitlines()[1:]:
            kind, n_levels, order, _, g2 = line.split(",")
            if kind == "auto":
                peaks[int(n_levels), int(order)] = float(g2)
        for key, ref in PEAK_REFERENCES.items():
            if key[0] > scan_hi:
                continue
            if key not in peaks or abs(peaks[key] - ref) > 0.03:
                failures.append(("fig2", f"peak N={key[0]} order {key[1]} is "
                                         f"{peaks.get(key)}, not {ref} +- 0.03"))
        return failures

    sizes = {
        "jobs": len(jobs),
        "analytic_presets": list(ANALYTIC_PRESETS),
        "general_presets": list(GENERAL_PRESETS),
        "peaks_scan": f"3:{scan_hi}",
        "cscheck": "N=6 pair 3,1, 5 samples",
    }
    return Workload("figures", jobs, sizes, check)


# ---------------------------------------------------------------------------
# spectral: general-rate propagation on two seeded ring families

SPECTRAL_PAIR = (2, 1)


def _spectral_rates(rng: np.random.Generator, family: str, n: int) -> list[float]:
    if family == "well":
        exponents = rng.uniform(-0.5, 0.5, n)
    else:
        exponents = np.linspace(-1, 1, n) + rng.uniform(-0.05, 0.05, n)
    return [float(r) for r in 10.0 ** exponents]


def spectral(seed: int, smoke: bool, inputs: Path) -> Workload:
    families = {"well": (3, 8) if smoke else (3, 8, 12),
                "ladder": (48,) if smoke else (48, 64, 96)}
    steps = 200 if smoke else 1600
    rng = np.random.default_rng(seed)
    jobs, specs = [], {}
    sizes = {"steps": steps, "tau_points": steps + 1, "pair": "2,1",
             "tau_range": "+-3 mean cycle times"}
    for family, levels in families.items():
        conditions = []
        for n in levels:
            name = f"{family}{n}"
            rates = _spectral_rates(rng, family, n)
            span = 3.0 * sum(1.0 / r for r in rates)
            specs[name] = (rates, -span, span)
            conditions.append(eigenvector_condition(rates))
            path = inputs / f"{name}.json"
            path.write_text(json.dumps({"n_levels": n, "rates": rates}))
            jobs.append(Job(
                name,
                ("general", "--rates", str(path), "--pair", ",".join(map(str, SPECTRAL_PAIR)),
                 f"--tau={-span!r}:{span!r}", "--steps", str(steps), "--out", f"{name}.csv"),
                "general", family, (f"{name}.csv",), points=steps + 1,
            ))
        sizes[family] = {"n_levels": list(levels),
                         "eigenvector_condition": [float(f"{c:.3g}") for c in conditions]}

    def check(pass_dir: Path) -> list[tuple[str, str]]:
        check_rng = np.random.default_rng(seed)
        failures = []
        for name, (rates, lo, hi) in specs.items():
            data = _csv(pass_dir / f"{name}.csv")
            bad = _grid_failure(data, lo, hi, steps)
            if bad:
                failures.append((name, bad))
                continue
            rows = data[_sample_rows(check_rng, len(data), 25)]
            gap = float(np.abs(rows[:, 1] - oracle_g2(rates, *SPECTRAL_PAIR, rows[:, 0])).max())
            if gap > 1e-8:
                failures.append((name, f"differs from the expm oracle by {gap:.3e} > 1e-8"))
        return failures

    return Workload("spectral", jobs, sizes, check)


# ---------------------------------------------------------------------------
# montecarlo: simulate -> correlate pair -> correlate subset on two rings

# ring -> (N, events, bin width, tau max)
RINGS = {"ring6": (6, 10_000_000, 0.05, 15.0), "ring200": (200, 4_000_000, 0.5, 600.0)}
SMOKE_EVENTS = 1_000_000
PAIR_WITHIN_3SIGMA = 0.99     # criterion 8, over the pair bins of both rings
SUBSET_WITHIN_3SIGMA = 0.97   # pinned per ring; see README.md


def _within_3sigma(data: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.abs(data[:, 1] - ref) / data[:, 2] < 3.0


def montecarlo(seed: int, smoke: bool, inputs: Path) -> Workload:
    rings = {name: (n, SMOKE_EVENTS if smoke else events, width, tmax)
             for name, (n, events, width, tmax) in RINGS.items()}
    sim_seeds = dict(zip(rings, (int(s) for s in np.random.default_rng(seed).integers(0, 2**31, 2))))
    jobs = []
    for name, (n, events, width, tmax) in rings.items():
        hist = ("--bin", repr(width), "--taumax", repr(tmax))
        jobs += [
            Job(f"{name}_simulate", ("simulate", "--n", str(n), "--gamma", "1", "--events",
                                     str(events), "--seed", str(sim_seeds[name]),
                                     "--out", f"{name}.events"),
                "simulate", name, (f"{name}.events",), events=events),
            Job(f"{name}_pair", ("correlate", "--in", f"{name}.events", "--pair", "1,1", *hist,
                                 "--out", f"{name}_pair.csv"),
                "correlate", name, (f"{name}_pair.csv",)),
            Job(f"{name}_subset", ("correlate", "--in", f"{name}.events", "--subset", "1,2", *hist,
                                   "--out", f"{name}_subset.csv"),
                "correlate", name, (f"{name}_subset.csv",)),
        ]

    def check(pass_dir: Path) -> list[tuple[str, str]]:
        from circascade import SubsetSpec, g2_equal_pair, g2_subset

        failures, pair_hits = [], []
        for name, (n, _, width, tmax) in rings.items():
            n_side = int(np.floor(tmax / width + 1e-9))
            centers = (np.arange(-n_side, n_side) + 0.5) * width
            pair = _csv(pass_dir / f"{name}_pair.csv")
            subset = _csv(pass_dir / f"{name}_subset.csv")
            bad_bins = [job for job, data in ((f"{name}_pair", pair), (f"{name}_subset", subset))
                        if data.shape != (2 * n_side, 3)
                        or not np.allclose(data[:, 0], centers, rtol=0, atol=1e-9 * width)]
            if bad_bins:
                failures += [(job, f"expected {2 * n_side} bins of width {width} around 0")
                             for job in bad_bins]
                continue
            pair_hits.append(_within_3sigma(pair, g2_equal_pair(n, 1, 1, 1.0, pair[:, 0])))
            share = float(np.mean(_within_3sigma(subset, g2_subset(n, SubsetSpec((1, 2)), 1.0, subset[:, 0]))))
            if share < SUBSET_WITHIN_3SIGMA:
                failures.append((f"{name}_subset", f"{share:.4f} of bins within 3 sigma of "
                                                   f"g2_subset < {SUBSET_WITHIN_3SIGMA}"))
        if pair_hits:
            share = float(np.mean(np.concatenate(pair_hits)))
            if share < PAIR_WITHIN_3SIGMA:
                failures += [(f"{name}_pair", f"{share:.4f} of pair bins within 3 sigma of "
                                              f"g2_equal_pair < {PAIR_WITHIN_3SIGMA}")
                             for name in rings]
        return failures

    sizes = {name: {"n_levels": n, "events": events, "bin": width, "taumax": tmax,
                    "sim_seed": sim_seeds[name]}
             for name, (n, events, width, tmax) in rings.items()}
    return Workload("montecarlo", jobs, sizes, check)


BUILDERS = {"figures": figures, "spectral": spectral, "montecarlo": montecarlo}
