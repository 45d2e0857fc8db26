"""Benchmark of the circascade CLI, end to end and per layer.

    python3 perfbench/run.py --workload figures --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30            # every workload in turn
    python3 perfbench/run.py --smoke                 # tiny sizes, no timing gate

Each workload is a closed loop with one client: this process runs the CLI
(``python -m circascade.cli`` from ``src/`` of the checkout) as a sequence
of subprocesses, one at a time, with the CLI's default thread count. A
pass runs every job of the workload once; passes repeat for about
``--seconds``, at least twice. End-to-end metrics are medians over the
passes of a run. With ``--trace 1`` passes alternate between plain runs
and runs through ``tracer.py``, and the per-layer metrics come from the
traced passes.

Outputs are checked after the last pass, outside the timed region: the
first pass's outputs against the references in ``workloads.py``, every
later pass's outputs for byte equality with the first. A job fails on a
non-zero exit or a failed check; ``failed``/``attempted`` counts them.

Every metric is printed by name with its unit, together with the
environment and input sizes; the last line of standard output is the
result as one JSON object. Metric names and units are read from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBES_PER_PASS = 5
JOB_TIMEOUT_S = 150.0
CLI = ("-m", "circascade.cli")
IMPORT_PROBES = {
    "cli.import_circascade_s": "circascade.cli",
    "cli.import_scipy_linalg_s": "scipy.linalg",
}


@dataclass
class Run:
    """A finished child: wall time, its own peak RSS and exit code."""

    wall_s: float
    rss_mb: float
    code: int


def spawn(argv: list[str], cwd: Path, env: dict, stem: str) -> Run:
    """Run one child to completion; stdout/stderr go to <stem>.out/.err in cwd."""
    with open(cwd / f"{stem}.out", "wb") as out, open(cwd / f"{stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_maxrss / 1024.0, proc.returncode)


@dataclass
class Pass:
    traced: bool
    attempted: int = 0   # CLI and probe processes started
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    imports: dict[str, list[float]] = field(default_factory=dict)
    jobs: dict[str, Run] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_pass(workload: workloads.Workload, pass_dir: Path, traced: bool, env: dict) -> Pass:
    pass_dir.mkdir()
    result = Pass(traced)
    py = sys.executable
    if traced:
        for metric, module in IMPORT_PROBES.items():
            code = ("import time; t = time.perf_counter(); "
                    f"import {module}; print(repr(time.perf_counter() - t))")
            for i in range(PROBES_PER_PASS):
                stem = f"probe-{module}-{i}"
                run = spawn([py, "-c", code], pass_dir, env, stem)
                result.attempted += 1
                if run.code:
                    result.failures.append((stem, f"exit {run.code}"))
                else:
                    result.imports.setdefault(metric, []).append(
                        float((pass_dir / f"{stem}.out").read_text()))

    # set-up probes are spread between the jobs, so that they sample the
    # whole pass rather than one moment of it
    probe_before = {len(workload.jobs) * i // PROBES_PER_PASS for i in range(PROBES_PER_PASS)}
    for index, job in enumerate(workload.jobs):
        if not traced and index in probe_before:
            stem = f"setup-{index}"
            run = spawn([py, *CLI, "--version"], pass_dir, env, stem)
            result.attempted += 1
            if run.code:
                result.failures.append((stem, f"exit {run.code}"))
            result.setup_s.append(run.wall_s)
        if traced:
            argv = [py, str(BENCH / "tracer.py"), "--spans", f"{job.name}.spans.json",
                    "--family", job.family, "--", *job.argv]
        else:
            argv = [py, *CLI, *job.argv]
        result.jobs[job.name] = spawn(argv, pass_dir, env, job.name)
        result.attempted += 1
    result.wall_s = sum(run.wall_s for run in result.jobs.values())

    for job in workload.jobs:
        run = result.jobs[job.name]
        if run.code:
            tail = (pass_dir / f"{job.name}.err").read_text(errors="replace").strip()[-300:]
            result.failures.append((job.name, f"exit {run.code}: {tail}"))
            continue
        for out in job.outputs:
            result.hashes[out] = _digest(pass_dir / out)
    if traced:
        spans = [json.loads((pass_dir / f"{job.name}.spans.json").read_text())
                 for job in workload.jobs if result.jobs[job.name].code == 0]
        result.layers = tracer.layer_metrics(spans)
    return result


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    return {
        "wall_s": _median(p.wall_s for p in passes),
        "setup_s": _median(s for p in passes for s in p.setup_s),
        "peak_rss_mb": _median(max(r.rss_mb for r in p.jobs.values()) for p in passes),
    }


def per_layer(workload: workloads.Workload, plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    metrics = {name: _median(p.layers[name] for p in traced) for name in traced[0].layers}
    for name in IMPORT_PROBES:
        metrics[name] = _median(v for p in traced for v in p.imports.get(name, []))
    metrics["trace.overhead_frac"] = (
        _median(p.wall_s for p in traced) / _median(p.wall_s for p in plain) - 1.0)

    def subcommand_s(p: Pass, sub: str) -> float:
        return sum(p.jobs[j.name].wall_s for j in workload.jobs if j.subcommand == sub)

    for sub in ("analytic", "general", "peaks", "simulate", "correlate"):
        metrics[f"{sub}_s"] = _median(subcommand_s(p, sub) for p in plain)
    points = sum(j.points for j in workload.jobs)
    events = sum(j.events for j in workload.jobs)
    metrics["points_per_s"] = _median(
        points / subcommand_s(p, "general") if points else 0.0 for p in plain)
    metrics["events_per_s"] = _median(events / p.wall_s for p in plain)
    return metrics


def environment(seed: int, workload: workloads.Workload) -> dict:
    threads = os.environ.get("CASCADE_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cascade_threads": threads or f"unset (machine parallelism, {os.cpu_count()})",
        "platform": platform.platform(),
        "seed": seed,
        "sizes": workload.sizes,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    try:
        workload = workloads.BUILDERS[name](seed, smoke, run_dir / "inputs")
        # fills the bytecode cache so that no timed start-up compiles
        spawn([sys.executable, *CLI, "--version"], run_dir, env, "warmup")
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_dir = run_dir / f"pass{len(passes)}"
            passes.append(run_pass(workload, pass_dir, traced, env))
            if len(passes) > 1:
                shutil.rmtree(pass_dir)   # keep only the first pass's outputs
            n_traced = sum(p.traced for p in passes)
            enough = n_traced >= 1 if trace else len(passes) >= 2
            elapsed = time.perf_counter() - start
            # stop when one more pass would end more than half a pass late
            if enough and elapsed * (1 + 0.5 / len(passes)) >= seconds:
                break

        first = passes[0]
        failures = {(0, job): msg for job, msg in first.failures}
        try:
            for job, msg in workload.check(run_dir / "pass0"):
                failures.setdefault((0, job), msg)
        except Exception as exc:   # a missing or malformed output
            failures[(0, "checks")] = f"check raised {exc!r}"
        for i, p in enumerate(passes[1:], start=1):
            for job, msg in p.failures:
                failures[(i, job)] = msg
            for job in workload.jobs:
                for out in job.outputs:
                    if (i, job.name) not in failures and p.hashes.get(out) != first.hashes.get(out):
                        failures[(i, job.name)] = f"{out} differs from the first pass"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another run is using it

    attempted = sum(p.attempted for p in passes)
    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    return {
        "workload": name,
        "env": environment(seed, workload),
        "passes": {"plain_wall_s": [p.wall_s for p in plain],
                   "traced_wall_s": [p.wall_s for p in traced_passes],
                   "job_wall_s": {job.name: [p.jobs[job.name].wall_s for p in plain]
                                  for job in workload.jobs}},
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": [f"pass {i} {job}: {msg}" for (i, job), msg in sorted(failures.items())],
        "end_to_end": end_to_end(plain),
        "per_layer": per_layer(workload, plain, traced_passes) if traced_passes else {},
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one plain and one traced pass, every check")
    args = parser.parse_args(argv)
    if not (SRC / "circascade" / "cli.py").is_file():
        print(f"error: no circascade sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # the checks call the package's other routes
    declared = declared_metrics()
    trace = bool(args.trace or args.smoke)
    seconds = 0.0 if args.smoke else args.seconds
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]

    results = [run_workload(name, args.seed, seconds, trace, args.smoke) for name in names]
    reported = {}
    for res in results:
        name = res["workload"]
        print(f"# {name} env {json.dumps(res['env'], sort_keys=True)}")
        print(f"# {name} passes {res['passes']}; attempted {res['attempted']}, "
              f"failed {res['failed']}, error_rate {res['error_rate']:.4f}")
        for line in res["failures"]:
            print(f"# {name} FAILED {line}")
        for kind in ("end_to_end", "per_layer"):
            if not res[kind]:
                continue
            if set(res[kind]) != set(declared[kind]):
                raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                                   f"{sorted(set(res[kind]) ^ set(declared[kind]))}")
            for metric, value in res[kind].items():
                print(f"{name} {metric} = {value:.6g} {declared[kind][metric]}")
        print(f"# {name} result {json.dumps(res, sort_keys=True)}")
        kind = "per_layer" if trace else "end_to_end"
        prefix = "" if len(results) == 1 else f"{name}."
        reported.update({f"{prefix}{m}": {"value": v, "unit": declared[kind][m]}
                         for m, v in res[kind].items()})

    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": reported,
    }))
    return 1 if args.smoke and failed else 0


if __name__ == "__main__":
    sys.exit(main())
