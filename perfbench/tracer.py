"""Traced CLI runner and span reduction for the circascade benchmark.

Run as a script, it executes one CLI job in a fresh interpreter with spans
around the public functions each layer exposes:

    python perfbench/tracer.py --spans spans.json --family ring6 -- correlate --in ...

It times nothing itself beyond the spans: it imports ``circascade.cli``,
replaces the module attributes the callers look up (``circascade.cli.g2_general``,
``circascade.analysis.g2_equal``, ``EventStream.check`` ...) with wrappers
that record ``(id, name, start_ns, end_ns, parent_id, thread_id, units)``
in memory, calls ``circascade.cli.main(argv)`` and writes the spans once
when the job ends. ``grid_map`` evaluates chunks in worker threads, so its
wrapper hands its own span id to the chunk function as the parent there.

Imported as a module (by ``run.py``), it reduces the spans of a traced
pass to the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

SPANS: list[tuple] = []
_ids = itertools.count()
_local = threading.local()


def _stack() -> list[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _traced(fn, name, units=None):
    """Wrap fn in a span; units(args, result) returns the work counts."""

    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else -1
        sid = next(_ids)
        stack.append(sid)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            SPANS.append((sid, name, start, perf_counter_ns(), parent,
                          threading.get_ident(), None))
            raise
        finally:
            stack.pop()
        end = perf_counter_ns()
        SPANS.append((sid, name, start, end, parent, threading.get_ident(),
                      units(args, result) if units else None))
        return result

    return wrapper


def _traced_grid_map(grid_map):
    def wrapper(fn, taus):
        def chunk(c):
            # runs in a pool thread: parent every span below to this grid_map
            stack = _stack()
            stack.append(sid)
            try:
                return fn(c)
            finally:
                stack.pop()

        sid = next(_ids)
        stack = _stack()
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter_ns()
        try:
            return grid_map(chunk, taus)
        finally:
            stack.pop()
            SPANS.append((sid, "cli.grid_map", start, perf_counter_ns(), parent,
                          threading.get_ident(), None))

    return wrapper


def _install() -> None:
    import numpy as np

    import circascade.analysis as analysis
    import circascade.analytic_equal as analytic_equal
    import circascade.cli as cli
    import circascade.model as model
    import circascade.spectral_general as spectral_general

    def points(arg_index):
        return lambda args, result: {"points": int(np.size(args[arg_index]))}

    def events(args, result):
        return {"events": result.n_events}

    def written(args, result):
        stream, path = args[0], args[1]
        return {"events": stream.n_events, "bytes": os.path.getsize(path)}

    def rows(args, result):
        return {"rows": len(args[0].tau)}

    analytic_equal.g2_equal = _traced(
        analytic_equal.g2_equal, "analytic_equal.g2_equal", points(3))
    # analysis imported g2_equal by name: its calls nest one span deeper
    analysis.g2_equal = _traced(analytic_equal.g2_equal, "analysis.g2_equal")
    spectral_general.decompose = _traced(
        spectral_general.decompose, "spectral_general.decompose")
    model.EventStream.check = _traced(model.EventStream.check, "model.EventStream.check")
    model.EventStream.merged = _traced(model.EventStream.merged, "model.EventStream.merged")

    for attr, name, units in (
        ("g2_equal_pair", "analytic_equal.g2_equal_pair", None),
        ("g2_subset", "analytic_equal.g2_subset", None),
        ("find_peaks", "analysis.find_peaks", None),
        ("find_peaks_cross", "analysis.find_peaks_cross", None),
        ("cs_check", "analysis.cs_check", None),
        ("g2_general", "spectral_general.g2_general", points(3)),
        ("g2_three_level", "spectral_general.g2_three_level", None),
        ("simulate", "stochastic.simulate", events),
        ("write_events_binary", "stochastic.write_events_binary", written),
        ("read_events_binary", "stochastic.read_events_binary", None),
        ("correlate", "estimator.correlate", None),
        ("correlate_subset", "estimator.correlate_subset", None),
        ("write_trace_csv", "estimator.write_trace_csv", rows),
        ("main", "cli.main", None),
    ):
        setattr(cli, attr, _traced(getattr(cli, attr), name, units))
    cli.grid_map = _traced_grid_map(cli.grid_map)


def _run(argv: list[str]) -> int:
    if len(argv) < 5 or argv[0] != "--spans" or argv[2] != "--family" or argv[4] != "--":
        print("usage: tracer.py --spans FILE --family NAME -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, family, cli_argv = argv[1], argv[3], argv[5:]
    import circascade.cli

    _install()
    try:
        return circascade.cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"family": family, "spans": SPANS}, fh)


# ---------------------------------------------------------------------------
# Reduction of recorded spans to per-layer metrics


def _self_ns(span, children) -> int:
    """Span duration minus the union of its children's intervals."""
    start, end = span[2], span[3]
    covered, reach = 0, start
    for c_start, c_end in sorted((max(c[2], start), min(c[3], end)) for c in children):
        if c_end <= reach:
            continue
        covered += c_end - max(c_start, reach)
        reach = c_end
    return end - start - covered


def layer_metrics(jobs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its jobs' span files.

    Times are summed over calls and threads (busy time); layers a workload
    does not run report 0.
    """
    total = defaultdict(int)      # (family, name) -> summed duration, ns
    self_time = defaultdict(int)  # (family, name) -> summed self time, ns
    calls = defaultdict(int)
    units = defaultdict(lambda: defaultdict(int))
    for job in jobs:
        family = job["family"]
        children = defaultdict(list)
        for span in job["spans"]:
            children[span[4]].append(span)
        for span in job["spans"]:
            key = (family, span[1])
            total[key] += span[3] - span[2]
            self_time[key] += _self_ns(span, children[span[0]])
            calls[key] += 1
            for unit, count in (span[6] or {}).items():
                units[key][unit] += count

    def pick(table, name, family=None):
        return sum(v for (fam, n), v in table.items()
                   if n == name and family in (None, fam))

    def s(name, family=None):
        return pick(total, name, family) / 1e9

    def self_s(name, family=None):
        return pick(self_time, name, family) / 1e9

    def unit(name, which, family=None):
        return sum(u[which] for (fam, n), u in units.items()
                   if n == name and family in (None, fam))

    def ratio(name, numerator, denominator, family=None):
        count = unit(name, denominator, family)
        return unit(name, numerator, family) / count if count else 0.0

    def per(name, which, family=None):
        """Nanoseconds per unit of work."""
        count = unit(name, which, family)
        return s(name, family) * 1e9 / count if count else 0.0

    m = {
        "cli.main.self_s": self_s("cli.main"),
        "cli.grid_map.s": s("cli.grid_map"),
        "cli.grid_map.calls": pick(calls, "cli.grid_map"),
        "analytic_equal.g2_equal.s": s("analytic_equal.g2_equal"),
        "analytic_equal.g2_equal.calls": pick(calls, "analytic_equal.g2_equal"),
        "analytic_equal.g2_equal.points": unit("analytic_equal.g2_equal", "points"),
        "analytic_equal.g2_equal.ns_per_point": per("analytic_equal.g2_equal", "points"),
        "analytic_equal.g2_equal_pair.s": s("analytic_equal.g2_equal_pair"),
        "analytic_equal.g2_subset.s": s("analytic_equal.g2_subset"),
        "analysis.find_peaks.self_s": self_s("analysis.find_peaks"),
        "analysis.find_peaks_cross.self_s": self_s("analysis.find_peaks_cross"),
        "analysis.cs_check.s": s("analysis.cs_check"),
        "analysis.g2_equal.calls": pick(calls, "analysis.g2_equal"),
        "spectral_general.decompose.s": s("spectral_general.decompose"),
        "spectral_general.g2_three_level.s": s("spectral_general.g2_three_level"),
        "stochastic.write_events_binary.s": s("stochastic.write_events_binary"),
        "stochastic.write_events_binary.bytes_per_event": ratio(
            "stochastic.write_events_binary", "bytes", "events"),
        "model.EventStream.check.s": s("model.EventStream.check"),
        "model.EventStream.merged.s": s("model.EventStream.merged"),
        "model.EventStream.merged.calls": pick(calls, "model.EventStream.merged"),
        "estimator.correlate.ring6.s": s("estimator.correlate", "ring6"),
        "estimator.correlate_subset.ring6.s": s("estimator.correlate_subset", "ring6"),
        "estimator.write_trace_csv.s": s("estimator.write_trace_csv"),
        "estimator.write_trace_csv.rows": unit("estimator.write_trace_csv", "rows"),
    }
    for family in ("well", "ladder"):
        m[f"spectral_general.g2_general.{family}.s"] = s(
            "spectral_general.g2_general", family)
        m[f"spectral_general.g2_general.{family}.ns_per_point"] = per(
            "spectral_general.g2_general", "points", family)
    for family in ("ring6", "ring200"):
        m[f"stochastic.simulate.{family}.ns_per_event"] = per(
            "stochastic.simulate", "events", family)
        m[f"stochastic.read_events_binary.{family}.self_s"] = self_s(
            "stochastic.read_events_binary", family)
    return m


if __name__ == "__main__":
    sys.exit(_run(sys.argv[1:]))
