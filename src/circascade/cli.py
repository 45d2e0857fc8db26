"""Command-line front end.

Subcommands build specs, evaluate analytic traces, run simulations and
estimations, and extract derived reports as CSV/JSON plot data:

    circascade analytic --n 6 --pair 2,1 --gamma 1 --tau -8:8 --steps 1600 --out fig.csv
    circascade general --rates rates.json --pair 2,1 --tau -8:8 --steps 1600 --out g.csv
    circascade simulate --n 6 --gamma 1 --events 1e6 --seed 42 --out run.events
    circascade correlate --in run.events --pair 1,1 --bin 0.05 --taumax 15 --out g.csv
    circascade peaks --n 50 --k 1 --gamma 1 --orders 8 --out peaks.json
    circascade cscheck --n 6 --gamma 1 --pair 3,1 --tau-samples 0.02:0.1:5 --out cs.json

Every command writes a `<out>.manifest.json` sidecar recording the full
parameter set, output names, wall-clock duration and, where
/proc/self/status exists, the process's own peak resident memory
(`peak_rss_mb`, from VmHWM); data outputs are byte-identical across reruns
with the same parameters (manifest timing and memory are diagnostic only).
A failure prints `error: <message>` and exits with the `exit_code` of its
`CascadeError`: 2 `ConfigInvalid` (usage/validation, also a setting too
large to allocate), 3 `NumericalFailure` (internal consistency), 4
`StreamInvariantViolation` or any OSError (I/O), 5 `InsufficientSamples`.
`analytic` and `general` evaluate their grid in one call.
`--preset` names a figure's parameter set in PRESETS: its values are the
defaults of its subcommand, and any flag given explicitly wins, also over
a preset's value of another flag of its group in _FLAG_GROUPS.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import __version__
from .analysis import cs_check, find_peaks, find_peaks_cross, g2
# g2_equal_pair, g2_subset, correlate, correlate_subset, read_events_binary,
# simulate and write_events_binary are not called here (analytic goes through
# g2, correlate through correlate_blocks, simulate through simulate_to_file);
# perfbench/tracer.py still wraps them by these names
from .analytic_equal import g2_equal_pair, g2_subset
from .estimator import (
    HistogramConfig,
    correlate,
    correlate_blocks,
    correlate_subset,
    write_trace_csv,
)
from .model import (
    CascadeError,
    CascadeSpec,
    ConfigInvalid,
    CorrelationTrace,
    InsufficientSamples,
    NumericalFailure,
    SubsetSpec,
    check_pair,
    source_level,
    steady_state,
)
from .spectral_general import g2_general, g2_three_level
from .stochastic import (
    SimConfig,
    read_event_blocks,
    read_events_binary,
    simulate,
    simulate_to_file,
    write_events_binary,
)

# figure-reproduction presets: every pinned parameter set lives here
PRESETS = {
    "fig1c": {"command": "analytic", "n": 6, "pair": "1,1", "gamma": 1.0,
              "tau": "-15:15", "steps": 1500},
    "fig1d": {"command": "analytic", "n": 6, "pair": "2,1", "gamma": 1.0,
              "tau": "-8:8", "steps": 1600},
    "fig3a": {"command": "analytic", "n": 25, "pair": "2,1", "gamma": 1.0,
              "tau": "-60:60", "steps": 2400},
    "fig3b": {"command": "analytic", "n": 25, "k": 1, "gamma": 1.0,
              "tau": "-60:60", "steps": 2400},
    "fig3c": {"command": "analytic", "n": 25, "k": 2, "gamma": 1.0,
              "tau": "-60:60", "steps": 2400},
    "fig3d": {"command": "analytic", "n": 25, "k": 13, "gamma": 1.0,
              "tau": "-60:60", "steps": 2400},
    "fig4a": {"command": "analytic", "n": 50, "subset": "1,2", "gamma": 1.0,
              "tau": "-100:100", "steps": 4000},
    "fig2": {"command": "peaks", "scan": "3:50", "k": 1, "gamma": 1.0,
             "orders": 8, "cross_orders": 7},
    "fig5": {"command": "general", "rates_inline": "1,1.1,0.025", "pair": "2,1",
             "tau": "-8:8", "steps": 1600},
    "fig5dashed": {"command": "general",
                   "rates_inline": "0.7083333333333334,0.7083333333333334,0.7083333333333334",
                   "pair": "2,1", "tau": "-8:8", "steps": 1600},
}


# flags naming one thing, the selection first; none has a parser default where
# its subcommand has another, so a parse without a preset sets only given ones
_FLAG_GROUPS = (("pair", "k", "subset"), ("rates_inline", "rates"), ("scan", "n"))
# the selection flags of every subcommand name transitions as the model does
_PAIR_HELP = "transition pair m,n, each named by the level it arrives in"
_SUBSET_HELP = "comma-separated transitions, each named by the level it arrives in"


def grid_map(fn, taus: np.ndarray) -> np.ndarray:
    """Evaluate fn over the whole grid in one call."""
    return fn(taus)


def _parse_numbers(flag: str, text: str, form: str, kind=float) -> list:
    """Split a flag value shaped like `form` ('m,n', 'lo:hi', 'i,j,...',
    'lo:hi:count') and convert each field by `kind`; a wrong field count
    (unless `form` ends in '...'), a malformed or non-finite field, or a
    last field 'count' that is not a whole number >= 1 raises ConfigInvalid."""
    sep = "," if "," in form else ":"
    try:
        values = [kind(x) for x in text.split(sep)]
    except ValueError:
        values = []
    count_ok = form.endswith("...") or len(values) == form.count(sep) + 1
    if not (values and count_ok and all(abs(v) < np.inf for v in values)):
        raise ConfigInvalid(f"{flag} expects '{form}' with finite numbers, got {text!r}")
    if form.endswith("count") and not (values[-1] >= 1 and values[-1] == int(values[-1])):
        raise ConfigInvalid(f"{flag} count must be a positive integer, got {values[-1]!r}")
    return values


def _finite_float(text: str) -> float:
    """argparse type of the float flags: NaN and inf exit 2 naming the flag."""
    value = float(text)
    if not abs(value) < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_pair(text: str, n_levels: int) -> tuple[int, int]:
    pair = tuple(_parse_numbers("--pair", text, "m,n", int))
    try:
        return check_pair(pair, n_levels)
    except ConfigInvalid:
        raise ConfigInvalid(f"--pair {text!r} has an index outside [0, {n_levels})") from None


def _selection(args, n_levels: int):
    """The pair, the class-k pair (0, (k - 1) % N) or the SubsetSpec of the one
    --pair, --k or --subset flag given; ConfigInvalid unless exactly one is."""
    flags = [f"--{name}" for name in _FLAG_GROUPS[0] if hasattr(args, name)]
    if sum(getattr(args, flag[2:]) is not None for flag in flags) != 1:
        raise ConfigInvalid(f"give exactly one of {', '.join(flags[:-1])} or {flags[-1]}")
    if args.pair is not None:
        return _parse_pair(args.pair, n_levels)
    if args.subset is not None:
        return SubsetSpec(_parse_numbers("--subset", args.subset, "i,j,...", int))
    return 0, (args.k - 1) % n_levels  # any pair of the requested class


def _tau_grid(args) -> np.ndarray:
    lo, hi = _parse_numbers("--tau", args.tau, "lo:hi")
    if hi <= lo:
        raise ConfigInvalid(f"--tau range must have hi > lo, got {args.tau!r}")
    if args.steps < 1:
        raise ConfigInvalid("--steps must be >= 1")
    return np.linspace(lo, hi, args.steps + 1)


def _peak_rss_mb() -> float | None:
    """This process's own resident high-water mark (VmHWM) in MiB, or None
    where /proc/self/status does not exist or has no such line."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def _write_manifest(args, started: float) -> None:
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in {"func"} and v is not None
    }
    manifest = {
        "artifact_version": __version__,
        "subcommand": args.command,
        "parameters": params,
        "outputs": [args.out],
        "duration_seconds": time.monotonic() - started,
    }
    peak_rss = _peak_rss_mb()
    if peak_rss is not None:
        manifest["peak_rss_mb"] = peak_rss
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _naming(flags: str):
    """Re-raise a ConfigInvalid from the block prefixed with the flags it came from."""
    try:
        yield
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{flags}: {exc}") from None


def _spec(args, n_levels=None, n_flag: str = "--n") -> CascadeSpec:
    """The ring of the first ring flags a subcommand has and was given, in the order
    RING_FLAG_ERRORS pins: --rates-inline, --rates (a JSON file), or ``n_levels``
    (default --n) from ``n_flag`` with --gamma; ConfigInvalid names the flags at fault."""
    if getattr(args, "rates_inline", None):
        rates = _parse_numbers("--rates-inline", args.rates_inline, "r0,r1,...")
        with _naming("--rates-inline"):
            return CascadeSpec(len(rates), rates)
    if getattr(args, "rates", None):
        with open(args.rates) as fh:
            text = fh.read()
        try:
            return CascadeSpec.from_json(text)
        except ConfigInvalid as exc:  # a ValueError too: re-raise it first
            raise ConfigInvalid(f"--rates: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigInvalid(f"--rates file {args.rates!r} is not a valid spec: {exc}")
    if not hasattr(args, "n"):
        raise ConfigInvalid("--rates (JSON file) or --rates-inline is required")
    n_levels = args.n if n_levels is None else n_levels
    if n_levels is None:
        raise ConfigInvalid("--n is required")
    with _naming(f"{n_flag}/--gamma"):
        return CascadeSpec.equal(n_levels, args.gamma)


def cmd_analytic(args) -> None:
    spec = _spec(args)
    taus = _tau_grid(args)
    selection = _selection(args, spec.n_levels)
    values = grid_map(lambda t: g2(spec, selection, t), taus)
    trace = CorrelationTrace(tau=taus, values=values, source="analytic")
    write_trace_csv(trace, args.out)


def cmd_general(args) -> None:
    spec = _spec(args)
    m, n = _parse_pair(args.pair, spec.n_levels)
    taus = _tau_grid(args)
    # one call: the rounding of the stepped propagation depends on the whole grid
    values = g2_general(spec, m, n, taus)
    if spec.n_levels == 3:
        closed = g2_three_level(*spec.rates, m, n, taus)
        # accurate to about eps / p_ss[r], r the level read: source_level(n, 3), or that
        # of m mirrored below tau = 0. The gap stayed below 13.1 eps / p_ss[r] over 2,400
        # rate triples 10^U(+-6) and 10^U(+-8), all nine pairs, so C = 32
        p_read = steady_state(spec)[np.where(taus >= 0, source_level(n, 3), source_level(m, 3))]
        gap = np.abs(closed - values)
        if (gap > 1e-6 + 32 * np.finfo(float).eps / p_read).any():
            raise NumericalFailure("internal consistency failure: closed form vs "
                                   f"propagation disagree by {gap.max():.3e}")
    trace = CorrelationTrace(tau=taus, values=values, source="spectral")
    write_trace_csv(trace, args.out)


def cmd_simulate(args) -> None:
    spec = _spec(args)
    events = _parse_numbers("--events", args.events, "count")[0] if args.events else None
    config = SimConfig(spec=spec, seed=args.seed, duration=args.duration,
                       total_events=None if events is None else int(events),
                       initial_level=args.initial, burn_in=args.burn_in)
    simulate_to_file(config, args.out, args.format)


def cmd_correlate(args) -> None:
    n_levels, total, blocks = read_event_blocks(getattr(args, "in"))
    try:
        # the checks run in the order they ran when the whole file was read
        selection = _selection(args, n_levels)
        cfg = HistogramConfig(args.bin, args.taumax)
        trace = correlate_blocks(blocks, n_levels, total, cfg, selection)
    except (ConfigInvalid, MemoryError):  # the histogram is allocated before the first block
        for _ in blocks:  # a damaged file is reported first
            pass
        raise
    write_trace_csv(trace, args.out)


def cmd_peaks(args) -> None:
    for flag, value in (("--orders", args.orders), ("--cross-orders", args.cross_orders)):
        if value < 1:
            raise ConfigInvalid(f"{flag} must be >= 1, got {value}")
    if args.scan:
        if args.csv or args.cross:
            raise ConfigInvalid("--scan writes auto and cross rows to --out; "
                                "it takes no --csv or --cross")
        lo, hi = _parse_numbers("--scan", args.scan, "lo:hi", int)
        if hi < lo:
            raise ConfigInvalid(f"--scan range must have hi >= lo, got {args.scan!r}")
        _spec(args, lo, "--scan")
        if args.n is not None:
            raise ConfigInvalid("--scan sets the ring sizes; it takes no --n")
        rows = ["kind,n_levels,order,tau,g2"]
        for n in range(lo, hi + 1):
            for kind, n_orders in (("auto", args.orders), ("cross", args.cross_orders)):
                try:
                    report = (find_peaks(n, args.gamma, args.k, n_orders) if kind == "auto"
                              else find_peaks_cross(n, args.gamma, n_orders))
                except InsufficientSamples:  # no maxima at this N
                    continue
                rows += [f"{kind},{n},{row}" for row in report.to_csv().splitlines()[1:]]
        with open(args.out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    else:
        _spec(args)
        report = (find_peaks_cross(args.n, args.gamma, args.orders) if args.cross
                  else find_peaks(args.n, args.gamma, args.k, args.orders))
        if args.csv:  # first: a failed --csv write leaves no --out file
            with open(args.csv, "w") as fh:
                fh.write(report.to_csv())
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")


def cmd_cscheck(args) -> None:
    spec = _spec(args)
    m, n = _parse_pair(args.pair, spec.n_levels)
    lo, hi, count = _parse_numbers("--tau-samples", args.tau_samples, "lo:hi:count")
    taus = np.linspace(lo, hi, int(count))
    report = cs_check(spec, m, n, taus)
    with open(args.out, "w") as fh:
        fh.write(report.to_json() + "\n")


def build_parser(preset: str | None = None, given=frozenset()) -> argparse.ArgumentParser:
    """The parser of every subcommand; the values of ``preset``, a PRESETS name, are its
    command's defaults, bar each whose group in _FLAG_GROUPS has another dest in ``given``."""
    parser = argparse.ArgumentParser(
        prog="circascade",
        description="correlation functions of one-way N-level cascades",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flags():
        return argparse.ArgumentParser(add_help=False)

    # the flags several subcommands share are declared once, in parents
    # placed before (ring, rates) or after (out) each one's own flags
    ring, rates, out = flags(), flags(), flags()
    ring.add_argument("--n", type=int)
    ring.add_argument("--gamma", type=_finite_float, default=1.0)
    rates.add_argument("--rates", help="JSON file {n_levels, rates}")
    out.add_argument("--out")

    chosen = PRESETS.get(preset, {})  # its "command" entry names its subcommand

    def command(name, summary, func, *parents):
        defaults = {key: value for key, value in chosen.items() if chosen["command"] == name
                    and not any(key in g and given & set(g) - {key} for g in _FLAG_GROUPS)}
        sub.add_parser(name, help=summary, parents=[*parents, out]).set_defaults(
            func=func, **defaults)

    def preset_flag(p, name):
        p.add_argument("--preset", metavar="PRESET",
                       choices=[k for k, v in PRESETS.items() if v["command"] == name],
                       help="figure parameter set, one of %(choices)s; "
                            "explicit flags override its values")

    p = flags()
    p.add_argument("--pair", help=_PAIR_HELP)
    p.add_argument("--k", type=int, help="trace class instead of a pair")
    p.add_argument("--subset", help=_SUBSET_HELP)
    p.add_argument("--tau", default="-10:10", help="range lo:hi (default %(default)s)")
    p.add_argument("--steps", type=int, default=1000)
    preset_flag(p, "analytic")
    command("analytic", "equal-rate closed-form trace to CSV", cmd_analytic, ring, p)

    p = flags()
    p.add_argument("--rates-inline", dest="rates_inline", help="comma-separated rates")
    p.add_argument("--pair", default="1,1", help=_PAIR_HELP)
    p.add_argument("--tau", default="-10:10", help="range lo:hi (default %(default)s)")
    p.add_argument("--steps", type=int, default=1000)
    preset_flag(p, "general")
    command("general", "arbitrary-rate spectral trace to CSV", cmd_general, rates, p)

    p = flags()
    p.add_argument("--events", help="stop after this many events")
    p.add_argument("--duration", type=_finite_float, help="stop after this much time")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", dest="burn_in", type=_finite_float, default=0.0)
    p.add_argument("--initial", type=int, help="initial level (default: stationary draw)")
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    command("simulate", "run one trajectory, write event stream", cmd_simulate, ring, rates, p)

    p = flags()
    p.add_argument("--in", dest="in", required=True, help="event stream file")
    p.add_argument("--pair", help=_PAIR_HELP)
    p.add_argument("--subset", help=_SUBSET_HELP)
    p.add_argument("--bin", type=_finite_float, required=True)
    p.add_argument("--taumax", type=_finite_float, required=True)
    command("correlate", "coincidence histogram from an event stream", cmd_correlate, p)

    p = flags()
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--orders", type=int, default=3, help="peak count (default %(default)s)")
    p.add_argument("--cross", action="store_true", help="opposite-transition trace")
    p.add_argument("--cross-orders", dest="cross_orders", type=int, default=7)
    p.add_argument("--scan", help="N range lo:hi (one CSV row per peak)")
    preset_flag(p, "peaks")
    p.add_argument("--csv", help="also write order,tau,g2 CSV here")
    command("peaks", "oscillation peak report (JSON, optional CSV)", cmd_peaks, ring, p)

    p = flags()
    p.add_argument("--pair", required=True, help=_PAIR_HELP)
    p.add_argument("--tau-samples", dest="tau_samples", default="0.01:0.1:10",
                   help="lo:hi:count sample grid")
    command("cscheck", "Cauchy-Schwarz violation report (JSON)", cmd_cscheck, ring, rates, p)

    return parser


_RANGE_FLAGS = {"--tau", "--tau-samples", "--scan"}


def _join_range_flags(argv: list[str]) -> list[str]:
    """Fold '--tau -8:8' into '--tau=-8:8' so argparse accepts the value."""
    out = []
    for tok in argv:
        if out and out[-1] in _RANGE_FLAGS and tok.startswith("-"):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _join_range_flags(list(argv if argv is not None else sys.argv[1:]))
    args = build_parser().parse_args(argv)
    if getattr(args, "preset", None):  # parsed once more, with its values as defaults
        given = {dest for dest, value in vars(args).items() if value is not None}
        args = build_parser(args.preset, given).parse_args(argv)
    try:
        started = time.monotonic()
        if args.out is None:
            raise ConfigInvalid("--out is required")
        args.func(args)
        _write_manifest(args, started)
        return 0
    except CascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4  # I/O, like StreamInvariantViolation
    except MemoryError as exc:  # numpy's _ArrayMemoryError: a setting too large to allocate
        print(f"error: a setting asks for too much memory: {exc}", file=sys.stderr)
        return ConfigInvalid.exit_code


if __name__ == "__main__":
    sys.exit(main())
