import argparse
import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from circascade import (
    CascadeSpec,
    ConfigInvalid,
    EventStream,
    HistogramConfig,
    InsufficientSamples,
    NumericalFailure,
    SimConfig,
    StreamInvariantViolation,
    SubsetSpec,
    cli,
    correlate,
    correlate_subset,
    g2_equal_pair,
    g2_three_level,
    read_events_binary,
    read_events_text,
    simulate,
    write_events_binary,
    write_events_text,
    write_trace_csv,
)
from oracles import selection_of


def run_cli(*args, env_extra=None, cwd=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "circascade.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


def load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_analytic_contiguous_trace(tmp_path):
    out = tmp_path / "fig1d.csv"
    cp = run_cli(
        "analytic", "--n", 6, "--pair", "2,1", "--gamma", 1, "--tau", "-8:8",
        "--steps", 1600, "--out", out,
    )
    assert cp.returncode == 0, cp.stderr
    data = load_csv(out)
    assert data.shape == (1601, 2)
    np.testing.assert_allclose(data[:, 0], np.linspace(-8, 8, 1601), atol=1e-12)
    np.testing.assert_allclose(
        data[:, 1], g2_equal_pair(6, 2, 1, 1.0, data[:, 0]), atol=1e-15
    )
    assert (tmp_path / "fig1d.csv.manifest.json").exists()


def test_analytic_single_level_constant(tmp_path):
    out = tmp_path / "n1.csv"
    cp = run_cli("analytic", "--n", 1, "--pair", "0,0", "--out", out)
    assert cp.returncode == 0, cp.stderr
    assert np.all(load_csv(out)[:, 1] == 1.0)


def test_analytic_class_flag_matches_pair(tmp_path):
    out_k = tmp_path / "k.csv"
    out_p = tmp_path / "p.csv"
    assert run_cli("analytic", "--n", 25, "--k", 13, "--out", out_k).returncode == 0
    assert run_cli("analytic", "--n", 25, "--pair", "1,13", "--out", out_p).returncode == 0
    assert out_k.read_bytes() == out_p.read_bytes()


def test_analytic_large_ring_exits_0(tmp_path):
    # the mode sum at N=1000 dips to about -3e-14 near g2 = 0
    out = tmp_path / "n1000.csv"
    cp = run_cli("analytic", "--n", 1000, "--k", 1, "--tau", "0:3000",
                 "--steps", 2000, "--out", out)
    assert cp.returncode == 0, cp.stderr
    assert np.all(load_csv(out)[:, 1] >= 0)


def test_cli_import_does_not_load_scipy():
    code = "import sys, circascade.cli; sys.exit('scipy' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr or "importing circascade.cli loaded scipy"


def test_general_and_propagate_do_not_load_scipy(tmp_path):
    out = tmp_path / "fig5.csv"
    code = (
        "import sys\n"
        "from circascade import cli\n"
        f"assert cli.main(['general', '--preset', 'fig5', '--out', {str(out)!r}]) == 0\n"
        "sys.exit('scipy' in sys.modules)\n"
    )
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr or "general loaded scipy"
    assert out.exists()


def test_analytic_runs_without_a_thread_pool(tmp_path):
    out = tmp_path / "fig1c.csv"
    code = (
        "import sys\n"
        "from circascade import cli\n"
        f"assert cli.main(['analytic', '--preset', 'fig1c', '--out', {str(out)!r}]) == 0\n"
        "sys.exit('concurrent.futures' in sys.modules)\n"
    )
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr or "analytic loaded concurrent.futures"
    assert out.exists()


def test_analytic_validation_exit_code(tmp_path):
    cp = run_cli("analytic", "--n", 0, "--pair", "0,0", "--out", tmp_path / "x.csv")
    assert cp.returncode == 2
    assert "--n" in cp.stderr


def test_analytic_requires_exactly_one_selector(tmp_path):
    cp = run_cli("analytic", "--n", 6, "--pair", "1,1", "--k", 1,
                 "--out", tmp_path / "x.csv")
    assert cp.returncode == 2


def test_malformed_flag_values_exit_2(tmp_path):
    assert run_cli("peaks", "--scan", "3-50", "--out", tmp_path / "a.json").returncode == 2
    assert run_cli("cscheck", "--n", 6, "--pair", "3,1", "--tau-samples", "bad",
                   "--out", tmp_path / "b.json").returncode == 2
    assert run_cli("analytic", "--n", 6, "--subset", "1,x",
                   "--out", tmp_path / "c.csv").returncode == 2
    assert run_cli("simulate", "--n", 3, "--events", "many",
                   "--out", tmp_path / "d.events").returncode == 2


def test_simulate_events_in_float_notation_records_that_many(tmp_path):
    out = tmp_path / "run.events"
    assert cli.main(["simulate", "--n", "3", "--events", "2.5e3", "--out", str(out)]) == 0
    assert read_events_binary(out).n_events == 2500


NEGATIVE_RATE_SPEC = os.path.join(os.path.dirname(__file__), "data", "negative_rate.json")

MALFORMED_FLAGS = [
    ("--subset", ["analytic", "--n", 6, "--subset", "1,x"]),
    ("--scan", ["peaks", "--scan", "3-50"]),
    ("--scan", ["peaks", "--scan", "0:3"]),
    ("--scan", ["peaks", "--scan", "5:3"]),
    ("--gamma", ["peaks", "--n", 6, "--gamma", "nan"]),
    ("--tau-samples", ["cscheck", "--n", 6, "--pair", "3,1", "--tau-samples", "0:1"]),
    ("--tau-samples", ["cscheck", "--n", 6, "--pair", "3,1", "--tau-samples", "0:1:-1"]),
    ("--rates-inline", ["general", "--rates-inline", "1,x,2", "--pair", "1,1"]),
    ("--events", ["simulate", "--n", 3, "--events", "many"]),
    ("--events", ["simulate", "--n", 3, "--events", "inf"]),
    ("--events", ["simulate", "--n", 3, "--events", "1.5"]),
    ("--events", ["simulate", "--n", 3, "--events", "0"]),
    ("--tau", ["analytic", "--n", 6, "--k", 1, "--tau", "nan:1"]),
    ("--tau", ["analytic", "--n", 6, "--k", 1, "--tau", "0:inf"]),
    ("--n", ["cscheck", "--pair", "3,1"]),
    # the float flags are rejected while parsing, before the stream is opened
    ("--bin", ["correlate", "--in", "run.events", "--pair", "1,1", "--taumax", 1, "--bin", "nan"]),
    ("--taumax", ["correlate", "--in", "run.events", "--pair", "1,1", "--bin", 0.1, "--taumax", "nan"]),
    ("--duration", ["simulate", "--n", 3, "--duration", "nan"]),
    ("--duration", ["simulate", "--n", 3, "--duration", "inf"]),
    ("--burn-in", ["simulate", "--n", 3, "--events", 10, "--burn-in", "nan"]),
    ("--burn-in", ["simulate", "--n", 3, "--events", 10, "--burn-in", "inf"]),
    ("--pair", ["analytic", "--n", 6, "--pair", "9,1"]),
    ("--pair", ["general", "--rates-inline", "1,2,3", "--pair", "5,1"]),
    ("--pair", ["cscheck", "--n", 6, "--pair", "9,1"]),
    ("--orders", ["peaks", "--n", 6, "--orders", 0]),
    ("--orders", ["peaks", "--n", 6, "--orders", -1]),
    ("--orders", ["peaks", "--n", 6, "--orders", 0, "--cross"]),
    ("--cross-orders", ["peaks", "--scan", "5:6", "--cross-orders", 0]),
    ("--rates-inline", ["general", "--pair", "1,1", "--rates-inline", "1,-1,2"]),
    ("--rates", ["general", "--rates", NEGATIVE_RATE_SPEC, "--pair", "2,0"]),
    ("--gamma", ["peaks", "--n", 6, "--gamma", 0]),
    ("--gamma", ["peaks", "--scan", "3:5", "--gamma", -1]),
    ("--n", ["peaks", "--n", 0]),
]


@pytest.mark.parametrize(
    "flag, args", MALFORMED_FLAGS,
    ids=[f"{args[0]} {flag} {args[-1]}" for flag, args in MALFORMED_FLAGS],
)
def test_malformed_flag_exits_2_naming_the_flag(tmp_path, flag, args):
    out = tmp_path / "out"
    cp = run_cli(*args, "--out", out)
    assert cp.returncode == 2, cp.stderr
    assert flag in cp.stderr
    assert not out.exists()


# files named by --rates in RING_FLAG_ERRORS, written to the working directory
RATES_FILES = {
    "broken.json": "{not json",
    "nokey.json": '{"rates": [1.0, 2.0]}',
    "negative.json": '{"n_levels": 3, "rates": [1.0, -1.0, 2.0]}',
    "short.json": '{"n_levels": 3, "rates": [1.0, 2.0]}',
    "zero.json": '{"n_levels": 0, "rates": []}',
}

USAGE = {
    "analytic": "usage: circascade analytic [-h] [--n N] [--gamma GAMMA] [--pair PAIR] [--k K]\n"
                "                           [--subset SUBSET] [--tau TAU] [--steps STEPS]\n"
                "                           [--preset PRESET] [--out OUT]\n",
    "simulate": "usage: circascade simulate [-h] [--n N] [--gamma GAMMA] [--rates RATES]\n"
                "                           [--events EVENTS] [--duration DURATION]\n"
                "                           [--seed SEED] [--burn-in BURN_IN]\n"
                "                           [--initial INITIAL] [--format {binary,text}]\n"
                "                           [--out OUT]\n",
    "peaks": "usage: circascade peaks [-h] [--n N] [--gamma GAMMA] [--k K] [--orders ORDERS]\n"
             "                        [--cross] [--cross-orders CROSS_ORDERS] [--scan SCAN]\n"
             "                        [--preset PRESET] [--csv CSV] [--out OUT]\n",
    "cscheck": "usage: circascade cscheck [-h] [--n N] [--gamma GAMMA] [--rates RATES] --pair\n"
               "                          PAIR [--tau-samples TAU_SAMPLES] [--out OUT]\n",
    "main": "usage: circascade [-h] [--version]\n"
            "                  {analytic,general,simulate,correlate,peaks,cscheck} ...\n",
}
NOT_A_SPEC = "is not a valid spec: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"

# exit code and stderr of each way to give a subcommand a bad ring, recorded
# while each subcommand still resolved its ring flags itself (80 columns)
RING_FLAG_ERRORS = [
    (["analytic", "--k", "1"], 2, "error: --n is required\n"),
    (["analytic", "--n", "0", "--k", "1"], 2, "error: --n/--gamma: n_levels must be >= 1, got 0\n"),
    (["analytic", "--n", "6", "--gamma", "nan", "--k", "1"], 2, USAGE["analytic"]
     + "circascade analytic: error: argument --gamma: expected a finite number, got 'nan'\n"),
    (["analytic", "--n", "6", "--gamma", "0", "--k", "1"], 2,
     "error: --n/--gamma: rates[0] = 0.0 must be > 0\n"),
    (["analytic", "--n", "x", "--k", "1"], 2, USAGE["analytic"]
     + "circascade analytic: error: argument --n: invalid int value: 'x'\n"),
    (["general", "--pair", "1,1"], 2, "error: --rates (JSON file) or --rates-inline is required\n"),
    (["general", "--rates", "broken.json"], 2, f"error: --rates file 'broken.json' {NOT_A_SPEC}\n"),
    (["general", "--rates", "nokey.json"], 2,
     "error: --rates file 'nokey.json' is not a valid spec: 'n_levels'\n"),
    (["general", "--rates", "negative.json"], 2, "error: --rates: rates[1] = -1.0 must be > 0\n"),
    (["general", "--rates", "short.json"], 2, "error: --rates: expected 3 rates, got 2\n"),
    (["general", "--rates", "zero.json"], 2, "error: --rates: n_levels must be >= 1, got 0\n"),
    (["general", "--rates", "missing.json"], 4,
     "error: [Errno 2] No such file or directory: 'missing.json'\n"),
    (["general", "--rates-inline", "1,x"], 2,
     "error: --rates-inline expects 'r0,r1,...' with finite numbers, got '1,x'\n"),
    (["general", "--rates-inline", "1,-1"], 2, "error: --rates-inline: rates[1] = -1.0 must be > 0\n"),
    (["general", "--rates-inline", "1,x", "--rates", "broken.json"], 2,
     "error: --rates-inline expects 'r0,r1,...' with finite numbers, got '1,x'\n"),
    (["general", "--rates-inline", "1,2", "--rates", "broken.json", "--pair", "5,5"], 2,
     "error: --pair '5,5' has an index outside [0, 2)\n"),
    (["general", "--n", "3"], 2,
     USAGE["main"] + "circascade: error: unrecognized arguments: --n 3\n"),
    (["simulate", "--events", "10"], 2, "error: --n is required\n"),
    (["simulate", "--n", "0", "--events", "10"], 2,
     "error: --n/--gamma: n_levels must be >= 1, got 0\n"),
    (["simulate", "--n", "3", "--gamma", "inf", "--events", "10"], 2, USAGE["simulate"]
     + "circascade simulate: error: argument --gamma: expected a finite number, got 'inf'\n"),
    (["simulate", "--n", "3", "--gamma", "-1", "--events", "10"], 2,
     "error: --n/--gamma: rates[0] = -1.0 must be > 0\n"),
    (["simulate", "--rates", "broken.json", "--events", "10"], 2,
     f"error: --rates file 'broken.json' {NOT_A_SPEC}\n"),
    (["simulate", "--n", "3", "--rates", "negative.json", "--events", "10"], 2,
     "error: --rates: rates[1] = -1.0 must be > 0\n"),
    (["simulate", "--rates", "missing.json", "--events", "10"], 4,
     "error: [Errno 2] No such file or directory: 'missing.json'\n"),
    (["peaks"], 2, "error: --n is required\n"),
    (["peaks", "--n", "0"], 2, "error: --n/--gamma: n_levels must be >= 1, got 0\n"),
    (["peaks", "--n", "6", "--gamma", "-inf"], 2, USAGE["peaks"]
     + "circascade peaks: error: argument --gamma: expected one argument\n"),
    (["peaks", "--n", "6", "--gamma", "0"], 2, "error: --n/--gamma: rates[0] = 0.0 must be > 0\n"),
    (["peaks", "--scan", "3:5", "--gamma", "0"], 2,
     "error: --scan/--gamma: rates[0] = 0.0 must be > 0\n"),
    (["peaks", "--scan", "3:5", "--gamma", "nan"], 2, USAGE["peaks"]
     + "circascade peaks: error: argument --gamma: expected a finite number, got 'nan'\n"),
    (["peaks", "--scan", "0:3"], 2, "error: --scan/--gamma: n_levels must be >= 1, got 0\n"),
    (["peaks", "--scan", "3:5", "--gamma", "-2", "--n", "4"], 2,
     "error: --scan/--gamma: rates[0] = -2.0 must be > 0\n"),
    (["cscheck", "--pair", "1,1"], 2, "error: --n is required\n"),
    (["cscheck", "--n", "0", "--pair", "1,1"], 2,
     "error: --n/--gamma: n_levels must be >= 1, got 0\n"),
    (["cscheck", "--n", "6", "--gamma", "nan", "--pair", "1,1"], 2, USAGE["cscheck"]
     + "circascade cscheck: error: argument --gamma: expected a finite number, got 'nan'\n"),
    (["cscheck", "--n", "6", "--gamma", "0", "--pair", "1,1"], 2,
     "error: --n/--gamma: rates[0] = 0.0 must be > 0\n"),
    (["cscheck", "--rates", "broken.json", "--pair", "1,1"], 2,
     f"error: --rates file 'broken.json' {NOT_A_SPEC}\n"),
    (["cscheck", "--rates", "short.json", "--pair", "1,1"], 2,
     "error: --rates: expected 3 rates, got 2\n"),
    (["cscheck", "--n", "6", "--rates", "negative.json", "--pair", "1,1"], 2,
     "error: --rates: rates[1] = -1.0 must be > 0\n"),
]


@pytest.mark.parametrize("argv, code, stderr", RING_FLAG_ERRORS,
                         ids=[" ".join(argv) for argv, _, _ in RING_FLAG_ERRORS])
def test_ring_flag_errors_keep_their_exit_code_and_message(tmp_path, monkeypatch, capsys,
                                                           argv, code, stderr):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in RATES_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        got = cli.main([*argv, "--out", "x.out"])
    except SystemExit as exc:  # argparse's own errors
        got = exc.code
    assert (got, capsys.readouterr().err) == (code, stderr)
    assert not list(tmp_path.glob("x.out*"))


# each subcommand's option strings, in order, as they were before the
# shared flags moved into parent parsers
OPTION_STRINGS = {
    "analytic": ["-h", "--help", "--n", "--gamma", "--pair", "--k", "--subset", "--tau",
                 "--steps", "--preset", "--out"],
    "general": ["-h", "--help", "--rates", "--rates-inline", "--pair", "--tau", "--steps",
                "--preset", "--out"],
    "simulate": ["-h", "--help", "--n", "--gamma", "--rates", "--events", "--duration",
                 "--seed", "--burn-in", "--initial", "--format", "--out"],
    "correlate": ["-h", "--help", "--in", "--pair", "--subset", "--bin", "--taumax", "--out"],
    "peaks": ["-h", "--help", "--n", "--gamma", "--k", "--orders", "--cross", "--cross-orders",
              "--scan", "--preset", "--csv", "--out"],
    "cscheck": ["-h", "--help", "--n", "--gamma", "--rates", "--pair", "--tau-samples", "--out"],
}


def test_each_subcommand_keeps_its_option_strings():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: [s for action in parser._actions for s in action.option_strings]
           for name, parser in sub.choices.items()}
    assert got == OPTION_STRINGS


@pytest.mark.parametrize("fmt", ["binary", "text"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_with_a_seed_outside_u64_exits_2_and_leaves_no_file(tmp_path, capsys, seed, fmt):
    argv = ["simulate", "--n", "3", "--events", "10", "--seed", seed, "--format", fmt,
            "--out", str(tmp_path / "run.events")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["analytic", "--pair", "1,1"], ["simulate", "--events", "10"], ["peaks"],
    ["cscheck", "--pair", "1,1"],
], ids=lambda argv: argv[0])
def test_a_level_count_past_the_index_range_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    assert cli.main([*argv, "--n", "99999999999999999999", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --n/--gamma: n_levels 99999999999999999999 "
                                       "is more levels than a ring can hold\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bin_width, tau_max", [("1e-300", "1e10"), ("1e-300", "1e5")],
                         ids=["infinite ratio", "ratio 1e305"])
def test_correlate_with_more_bins_than_an_array_holds_exits_2(tmp_path, bin_width, tau_max):
    # T is long enough that the window check passes
    path = tmp_path / "run.events"
    write_events_binary(EventStream(np.arange(1.0, 13.0), 2, 3, 1e12), path)
    out = tmp_path / "g.csv"
    cp = run_cli("correlate", "--in", path, "--pair", "1,1", "--bin", bin_width,
                 "--taumax", tau_max, "--out", out)
    assert cp.returncode == 2, cp.stderr
    assert cp.stderr.startswith("error: tau_max / bin_width") and cp.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "error, code",
    [(ConfigInvalid, 2), (NumericalFailure, 3), (StreamInvariantViolation, 4),
     (InsufficientSamples, 5), (OSError, 4)],
    ids=lambda x: x.__name__ if isinstance(x, type) else str(x),
)
def test_main_exits_with_the_code_of_the_error(tmp_path, monkeypatch, capsys, error, code):
    def fail(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "g2", fail)
    out = tmp_path / "x.csv"
    assert cli.main(["analytic", "--n", "6", "--pair", "1,1", "--out", str(out)]) == code
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()


def test_general_three_level_mismatch_exits_3(tmp_path, monkeypatch, capsys):
    closed_form = cli.g2_three_level
    monkeypatch.setattr(cli, "g2_three_level", lambda *a: closed_form(*a) + 1e-3)
    out = tmp_path / "x.csv"
    assert cli.main(["general", "--preset", "fig5", "--out", str(out)]) == 3
    assert "closed form vs propagation disagree by 1.000e-03" in capsys.readouterr().err
    assert not out.exists()


def test_general_three_level_gate_scales_with_the_occupation_read(tmp_path, monkeypatch, capsys):
    # the closed form is accurate to eps / p_ss[r]: at rates 1e-6, 1e6, 1e-6
    # the pair (1, 0) reads p_ss[1] = 5e-13 and the routes differ by 8.6e-5,
    # which the fixed 1e-6 gate rejected
    out = tmp_path / "stiff.csv"
    assert cli.main(["general", "--rates-inline", "1e-6,1e6,1e-6", "--pair", "1,0",
                     "--tau", "0:3e6", "--steps", "200", "--out", str(out)]) == 0
    # at the fig5 rates every p_ss[r] is above 0.02: a gap of 1e-5 still fails
    closed_form = cli.g2_three_level
    monkeypatch.setattr(cli, "g2_three_level", lambda *a: closed_form(*a) + 1e-5)
    assert cli.main(["general", "--preset", "fig5", "--out", str(tmp_path / "x.csv")]) == 3
    assert "disagree by 1.000e-05" in capsys.readouterr().err


def test_general_three_level_trace(tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"n_levels": 3, "rates": [1.0, 1.1, 0.025]}))
    out = tmp_path / "fig5.csv"
    cp = run_cli("general", "--rates", rates, "--pair", "2,1", "--tau", "-8:8",
                 "--steps", 1600, "--out", out)
    assert cp.returncode == 0, cp.stderr
    data = load_csv(out)
    np.testing.assert_allclose(
        data[:, 1],
        g2_three_level(1.0, 1.1, 0.025, 2, 1, data[:, 0]),
        atol=1e-6,
    )


def test_general_three_level_swapped_pair_at_tau_zero(tmp_path):
    # the grid holds tau = 0, where (1, 2) takes its own right limit, 0
    out = tmp_path / "g.csv"
    cp = run_cli("general", "--rates-inline", "1,1.1,0.025", "--pair", "1,2",
                 "--tau", "-8:8", "--steps", 1600, "--out", out)
    assert cp.returncode == 0, cp.stderr
    data = load_csv(out)
    assert data[800, 0] == 0.0 and data[800, 1] == pytest.approx(0.0, abs=1e-12)


def test_general_three_level_stiff_rates_pass_the_route_check(tmp_path):
    # rates six decades apart: the closed form and the propagation still agree
    out = tmp_path / "stiff.csv"
    argv = ["general", "--rates-inline", "0.001,1000,0.001", "--pair", "2,1",
            "--tau=-2:2", "--steps", "400", "--out", str(out)]
    assert cli.main(argv) == 0
    assert load_csv(out).shape == (401, 2)


def test_general_two_level_equal_rates(tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"n_levels": 2, "rates": [1.0, 1.0]}))
    out = tmp_path / "n2.csv"
    cp = run_cli("general", "--rates", rates, "--pair", "1,0", "--tau", "-4:4",
                 "--steps", 400, "--out", out)
    assert cp.returncode == 0, cp.stderr
    data = load_csv(out)
    expected = 1 + np.exp(-2 * np.abs(data[:, 0]))  # emission/excitation cross trace
    np.testing.assert_allclose(data[:, 1], expected, atol=1e-10)


def test_general_bad_rates_file_exit_2(tmp_path):
    rates = tmp_path / "broken.json"
    rates.write_text("{not json")
    cp = run_cli("general", "--rates", rates, "--pair", "1,0", "--out", tmp_path / "x.csv")
    assert cp.returncode == 2


@pytest.mark.parametrize("n_levels", ["3.9", "true"])
def test_general_non_integer_level_count_exit_2(tmp_path, n_levels):
    rates = tmp_path / "rates.json"
    rates.write_text(f'{{"n_levels": {n_levels}, "rates": [1.0, 1.1, 0.025]}}')
    cp = run_cli("general", "--rates", rates, "--pair", "1,0", "--out", tmp_path / "x.csv")
    assert cp.returncode == 2
    assert "--rates: n_levels must be an integer" in cp.stderr


def test_general_missing_rates_file_exit_4(tmp_path):
    cp = run_cli("general", "--rates", tmp_path / "nope.json", "--pair", "1,0",
                 "--out", tmp_path / "x.csv")
    assert cp.returncode == 4


def test_simulate_correlate_pipeline_matches_in_memory(tmp_path):
    stream_path = tmp_path / "run.events"
    trace_path = tmp_path / "trace.csv"
    cp = run_cli("simulate", "--n", 6, "--gamma", 1, "--events", 50000,
                 "--seed", 42, "--format", "text", "--out", stream_path)
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("correlate", "--in", stream_path, "--pair", "1,1",
                 "--bin", 0.25, "--taumax", 10, "--out", trace_path)
    assert cp.returncode == 0, cp.stderr

    spec = CascadeSpec.equal(6, 1.0)
    stream = simulate(SimConfig(spec, seed=42, total_events=50000))
    trace = correlate(stream, (1, 1), HistogramConfig(0.25, 10.0))
    data = load_csv(trace_path)
    np.testing.assert_array_equal(data[:, 0], trace.tau)
    np.testing.assert_array_equal(data[:, 1], trace.values)  # bit-exact round trip

    # the file must round-trip through the reader identically too
    again = read_events_text(stream_path)
    assert again.first_label == stream.first_label
    assert np.array_equal(again.times, stream.times)


def test_correlate_subset_flag(tmp_path):
    stream_path = tmp_path / "run.events"
    out = tmp_path / "sub.csv"
    assert run_cli("simulate", "--n", 8, "--gamma", 1, "--events", 40000,
                   "--seed", 3, "--out", stream_path).returncode == 0
    cp = run_cli("correlate", "--in", stream_path, "--subset", "1,2",
                 "--bin", 0.2, "--taumax", 6, "--out", out)
    assert cp.returncode == 0, cp.stderr
    data = load_csv(out)
    assert data.shape[1] == 3
    # superbunching spike of the two-transition bundle near tau = 0
    # (bin-averaged over [0, 0.2), so below the 2.0 limit value)
    center = np.argmin(np.abs(data[:, 0] - 0.1))
    assert data[center, 1] > 1.5


def test_simulate_binary_ring_beyond_u16_labels(tmp_path):
    stream_path = tmp_path / "big.events"
    cp = run_cli("simulate", "--n", 70000, "--events", 200, "--seed", 1, "--out", stream_path)
    assert cp.returncode == 0, cp.stderr
    stream = simulate(SimConfig(CascadeSpec.equal(70000, 1.0), seed=1, total_events=200))
    again = read_events_binary(stream_path)
    assert (again.n_levels, again.first_label) == (70000, stream.first_label)
    assert np.array_equal(again.times, stream.times)


def test_correlate_old_binary_format_exit_4(tmp_path):
    stream_path = tmp_path / "old.events"
    records = b"".join(struct.pack("<dH", t, l) for t, l in ((1.0, 2), (2.0, 1), (3.0, 0)))
    stream_path.write_bytes(b"CEV1" + struct.pack("<IQdQ", 3, 0, 10.0, 3) + records)
    cp = run_cli("correlate", "--in", stream_path, "--pair", "1,1",
                 "--bin", 0.05, "--taumax", 1, "--out", tmp_path / "x.csv")
    assert cp.returncode == 4
    assert cp.stderr == "error: bad magic b'CEV1' in binary stream\n"


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.events", tmp_path / "b.events"
    for out in (a, b):
        cp = run_cli("simulate", "--n", 3, "--gamma", 2, "--events", 20000,
                     "--seed", 7, "--out", out)
        assert cp.returncode == 0, cp.stderr
    assert a.read_bytes() == b.read_bytes()

    ta, tb = tmp_path / "a.csv", tmp_path / "b.csv"
    for src, out in ((a, ta), (b, tb)):
        cp = run_cli("correlate", "--in", src, "--pair", "1,1", "--bin", 0.1,
                     "--taumax", 5, "--out", out)
        assert cp.returncode == 0, cp.stderr
    assert ta.read_bytes() == tb.read_bytes()


@pytest.mark.parametrize(
    "grid",
    [
        ["--n", 12, "--tau", "-30:30", "--steps", 5000],
        # long delays keep fewer modes than short ones
        ["--n", 50, "--tau", "-500:500", "--steps", 20000],
    ],
    ids=["n12", "n50"],
)
def test_analytic_rerun_gives_the_same_bytes(tmp_path, grid):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["analytic", "--pair", "3,1", *grid]
    assert run_cli(*base, "--out", a).returncode == 0
    assert run_cli(*base, "--out", b).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_general_rerun_gives_the_same_bytes(tmp_path):
    # a monotone ladder: the stepped propagation must run over the whole grid
    rates = tmp_path / "ladder48.json"
    ladder = [float(r) for r in 10.0 ** np.linspace(-1, 1, 48)]
    rates.write_text(json.dumps({"n_levels": 48, "rates": ladder}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["general", "--rates", rates, "--pair", "2,1", "--tau", "-300:300",
            "--steps", 1600]
    for out in (a, b):
        cp = run_cli(*base, "--out", out)
        assert cp.returncode == 0, cp.stderr
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def ring6_file(tmp_path_factory):
    stream = simulate(SimConfig(CascadeSpec.equal(6, 1.0), seed=21, total_events=300_000))
    path = tmp_path_factory.mktemp("ring6") / "run.events"
    write_events_binary(stream, path)
    return stream, path


@pytest.mark.parametrize(
    "flag, value",
    [("--pair", "1,1"), ("--pair", "1,3"), ("--pair", "4,2"), ("--pair", "0,5"),
     ("--subset", "1,2"), ("--subset", "0,3,4"), ("--subset", "1,5"),
     ("--subset", "5,4,3,2,1,0")],
)
def test_correlate_of_selected_levels_equals_the_in_memory_trace(tmp_path, ring6_file,
                                                                  flag, value):
    stream, path = ring6_file
    out, expected = tmp_path / "cli.csv", tmp_path / "memory.csv"
    argv = ["correlate", "--in", str(path), flag, value, "--bin", "0.1", "--taumax", "8",
            "--out", str(out)]
    assert cli.main(argv) == 0
    indices = tuple(int(i) for i in value.split(","))
    if flag == "--pair":
        trace = correlate(stream, indices, HistogramConfig(0.1, 8.0))
    else:
        trace = correlate_subset(stream, SubsetSpec(indices), HistogramConfig(0.1, 8.0))
    write_trace_csv(trace, expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "flag, value, empty",
    [("--pair", "1,4", 4), ("--pair", "5,0", 5), ("--subset", "2,3", 3),
     ("--subset", "0,4,5", 4)],
)
def test_correlate_names_an_empty_channel_by_its_level(tmp_path, capsys, flag, value, empty):
    # events at levels 2, 1, 0 only; value and empty are stream channels,
    # selected and named as the transitions that leave them
    path = tmp_path / "sparse.events"
    write_events_binary(EventStream(np.array([1.0, 2.0, 3.0]), 2, 6, 100.0), path)
    selection = ",".join(map(str, selection_of(map(int, value.split(",")), 6)))
    argv = ["correlate", "--in", str(path), flag, selection, "--bin", "0.5", "--taumax", "5",
            "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 5
    (transition,) = selection_of((empty,), 6)
    assert capsys.readouterr().err == f"error: transition {transition} has no events\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--pair", "9,1", "--pair '9,1' has an index outside [0, 6)"),
     ("--subset", "1,7", "subset member 7 outside [0, 6)")],
)
def test_correlate_checks_indices_against_the_file(tmp_path, capsys, ring6_file, flag, value,
                                                   message):
    argv = ["correlate", "--in", str(ring6_file[1]), flag, value, "--bin", "0.1",
            "--taumax", "8", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_correlate_with_a_pair_and_a_subset_exits_2(tmp_path, capsys, ring6_file):
    out = tmp_path / "x.csv"
    argv = ["correlate", "--in", str(ring6_file[1]), "--pair", "1,1", "--subset", "1,2",
            "--bin", "0.5", "--taumax", "15", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: give exactly one of --pair or --subset\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("selection", [[], ["--pair", "1,1", "--k", "2"],
                                       ["--k", "2", "--subset", "1,2"],
                                       ["--pair", "1,1", "--k", "2", "--subset", "1,2"]],
                         ids=["none", "pair+k", "k+subset", "all"])
def test_analytic_with_no_or_two_selections_exits_2(tmp_path, capsys, selection):
    argv = ["analytic", "--n", "6", *selection, "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: give exactly one of --pair, --k or --subset\n"
    assert list(tmp_path.iterdir()) == []


def test_correlate_without_a_selection_exits_2(tmp_path, capsys, ring6_file):
    out = tmp_path / "x.csv"
    argv = ["correlate", "--in", str(ring6_file[1]), "--bin", "0.5", "--taumax", "15",
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: give exactly one of --pair or --subset\n"
    assert list(tmp_path.iterdir()) == []


def test_correlate_reports_a_damaged_file_before_bad_flags(tmp_path, capsys):
    path = tmp_path / "unordered.events"
    path.write_bytes(b"CEV2" + struct.pack("<IIQdQ", 6, 0, 0, 100.0, 3)
                     + np.array([1.0, 3.0, 2.0]).tobytes())
    for selection in (["--pair", "9,1"], ["--pair", "1,1", "--subset", "1,2"]):
        argv = ["correlate", "--in", str(path), *selection, "--bin", "0.5", "--taumax", "5",
                "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == "error: simultaneous or out-of-order events\n"


# each asks for 146-728 TiB, an allocation that fails at once, or for
# 1e300 draws, which a run not bounded first would draw forever
OVERSIZED_RUNS = {
    "analytic": ("analytic", "--n", 6, "--pair", "1,1", "--steps", 10**14),
    "general": ("general", "--rates-inline", "1,2,3", "--steps", 10**14),
    "cscheck": ("cscheck", "--n", 6, "--pair", "3,1", "--tau-samples", f"0:1:{10**14}"),
    "correlate": ("correlate", "--in", "{stream}", "--pair", "1,1", "--bin", "1e-12",
                  "--taumax", 10),
    "simulate": ("simulate", "--n", 1, "--gamma", "1e300", "--duration", 1),
}


@pytest.mark.parametrize("name", OVERSIZED_RUNS)
def test_a_request_too_large_to_allocate_exits_2(tmp_path, name):
    stream = tmp_path / "ring6.events"
    write_events_binary(EventStream(np.arange(1.0, 201.0), 0, 6, 201.0), stream)
    out = tmp_path / "out"
    cp = run_cli(*(str(a).format(stream=stream) for a in OVERSIZED_RUNS[name]), "--out", out,
                 timeout=120)
    assert cp.returncode == 2, cp.stderr
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1, cp.stderr
    assert "Traceback" not in cp.stderr and not out.exists()


def test_correlate_reports_a_damaged_file_before_an_oversized_histogram(tmp_path, capsys):
    # the histogram is allocated before the first block is read
    path = tmp_path / "unordered.events"
    path.write_bytes(b"CEV2" + struct.pack("<IIQdQ", 6, 0, 0, 100.0, 3)
                     + np.array([1.0, 3.0, 2.0]).tobytes())
    argv = ["correlate", "--in", str(path), "--pair", "1,1", "--bin", "1e-12", "--taumax", "10",
            "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "error: simultaneous or out-of-order events\n"


def test_correlate_empty_channel_exit_5(tmp_path):
    stream_path = tmp_path / "one.events"
    stream_path.write_text("# cascade-events v1 N=3 seed=0 T=10\n1.0 2\n")
    # channel 1, transition 0, is empty
    cp = run_cli("correlate", "--in", stream_path, "--pair", "%d,%d" % selection_of((1, 1), 3),
                 "--bin", 0.05, "--taumax", 1, "--out", tmp_path / "x.csv")
    assert cp.returncode == 5


def test_correlate_of_a_text_file_without_events_prints_one_error_line(tmp_path, capsys):
    path = tmp_path / "empty.events"
    path.write_text("# cascade-events v1 N=3 seed=0 T=10\n")
    argv = ["correlate", "--in", str(path), "--pair", "1,1", "--bin", "0.05", "--taumax", "1",
            "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "error: event stream file has no events\n"


def test_peaks_report(tmp_path):
    out = tmp_path / "peaks.json"
    csv = tmp_path / "peaks.csv"
    cp = run_cli("peaks", "--n", 50, "--k", 1, "--orders", 8, "--out", out,
                 "--csv", csv)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(out.read_text())
    mags = [p["g2"] for p in payload["peaks"]]
    assert abs(mags[6] - 1.13) <= 0.03
    assert abs(mags[7] - 1.09) <= 0.03
    assert csv.read_text().splitlines()[0] == "order,tau,g2"


# sha256 of the data outputs, recorded at commit 8677761, where every golden-
# section probe of the peak scan was its own single-point g2_equal call
PINNED_PEAKS = [
    (["--preset", "fig2"],
     "1a925ca49701c88ddad47f9ce1c0177af17a56b9f07d7ff33945c6a49e655aab"),
    (["--scan", "4:9", "--k", 2, "--gamma", 2.5, "--orders", 3, "--cross-orders", 2],
     "fd86dc167aa345568c24b51ec219a3a426d6cef939132ab2e62aca46237f42ab"),
    (["--n", 7, "--cross", "--gamma", 0.5, "--orders", 4],
     "a696cf11c986df0adea0997b4ba548e756b07b2d231ad75a9b1aea38214c9313"),
]


@pytest.mark.parametrize("args, digest", PINNED_PEAKS, ids=["fig2", "scan", "cross"])
def test_peaks_outputs_are_pinned(tmp_path, args, digest):
    out = tmp_path / "peaks.out"
    cp = run_cli("peaks", *args, "--out", out)
    assert cp.returncode == 0, cp.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the data outputs, recorded at commit 770eeb6, before every pair-
# taking route applied the one pair rule
PINNED_PRESETS = {
    **{preset: (["analytic", "--preset", preset], digest) for preset, digest in {
        "fig1c": "2fedcf6b00fe27c5406022dc6c7f1febf1e3f289c7a7692f9e4465bc0d0f4784",
        "fig1d": "7c739578bb3cae0b4765616df727a7959614393bbeea7add2133f7ed4d6a4341",
        "fig3a": "1f2662ba226ef74427a097b2b3b9808383164c18ff98bcda081f0155a3abfa51",
        "fig3b": "3fc76b42518abb79bc6276a2d2935a03267d2af4bcfbc6a42decee6e901f103f",
        "fig3c": "f09d77ce035553103e95faa32c6dca8ab1918d3d12f056e626386094c589a37b",
        "fig3d": "54f37c8a59c35ae39be48133cb70033a1d112e395e63090d1e5a2b8cd658dee0",
        "fig4a": "bd7c35aaf66d17f5f9f978c8f864dda2520d12d659fe7e085e1ed0d4b730c7d9",
    }.items()},
    "cscheck": (["cscheck", "--n", "6", "--pair", "3,1", "--tau-samples", "0.02:0.1:5"],
                "81908b40b0807bc0c23fbfa466871cd1c861e562b24e510ec61362c8960cb441"),
}


@pytest.mark.parametrize("name", PINNED_PRESETS)
def test_preset_outputs_are_pinned(tmp_path, name):
    """The equal-rate presets and a cscheck report keep their bytes.

    fig5 and fig5dashed are not pinned: their propagation goes through BLAS
    matrix products, whose last bits can differ from one machine to another.
    """
    args, digest = PINNED_PRESETS[name]
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_peaks_order_count_past_the_float_range(tmp_path):
    cp = run_cli("peaks", "--n", 6, "--orders", "9" * 401, "--out", tmp_path / "x.json")
    assert cp.returncode == 0, cp.stderr


def test_peaks_two_level_exit_5(tmp_path):
    cp = run_cli("peaks", "--n", 2, "--k", 1, "--orders", 1,
                 "--out", tmp_path / "x.json")
    assert cp.returncode == 5


def test_peaks_scan(tmp_path):
    out = tmp_path / "scan.csv"
    cp = run_cli("peaks", "--scan", "5:7", "--orders", 2, "--cross-orders", 1,
                 "--out", out)
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,n_levels,order,tau,g2"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"auto", "cross"}


@pytest.mark.parametrize("extra", [["--csv", "x.csv"], ["--cross"]])
def test_peaks_scan_rejects_csv_and_cross(tmp_path, capsys, monkeypatch, extra):
    # the scan writes both kinds of rows to --out, so neither flag would act
    monkeypatch.chdir(tmp_path)
    assert cli.main(["peaks", "--scan", "3:4", *extra, "--out", "y.csv"]) == 2
    assert capsys.readouterr().err == (
        "error: --scan writes auto and cross rows to --out; it takes no --csv or --cross\n")
    assert list(tmp_path.iterdir()) == []


def test_cscheck_report(tmp_path):
    out = tmp_path / "cs.json"
    cp = run_cli("cscheck", "--n", 6, "--gamma", 1, "--pair", "3,1",
                 "--tau-samples", "0.02:0.1:5", "--out", out)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(out.read_text())
    assert payload["infinite_ratio"] is True
    assert all(s["violated"] for s in payload["samples"])


def test_preset_equals_explicit_flags(tmp_path):
    a, b = tmp_path / "preset.csv", tmp_path / "explicit.csv"
    assert run_cli("analytic", "--preset", "fig1d", "--out", a).returncode == 0
    assert run_cli("analytic", "--n", 6, "--pair", "2,1", "--gamma", 1,
                   "--tau", "-8:8", "--steps", 1600, "--out", b).returncode == 0
    assert a.read_bytes() == b.read_bytes()


# presets with one value (the probe) that differs from its parser default
PROBE_PRESETS = [
    ("analytic", {"n": 6, "pair": "2,1", "tau": "-4:4", "steps": 80}, {"gamma": 2.0}),
    ("peaks", {"n": 7, "orders": 2}, {"k": 3}),
]


def _flags(values: dict) -> list[str]:
    return [f"--{key}={value}" for key, value in values.items()]


@pytest.mark.parametrize("command, values, probe", PROBE_PRESETS, ids=["gamma", "k"])
def test_every_preset_value_reaches_the_job(tmp_path, monkeypatch, command, values, probe):
    """A preset value applies even where the parser has a default of its own."""
    monkeypatch.setitem(cli.PRESETS, "probe", {"command": command, **values, **probe})
    a, b, default = (tmp_path / f"{name}.out" for name in ("preset", "explicit", "default"))
    assert cli.main([command, "--preset", "probe", "--out", str(a)]) == 0
    assert cli.main([command, *_flags({**values, **probe}), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the probe's default gives other bytes, so a dropped probe would show
    assert cli.main([command, *_flags(values), "--out", str(default)]) == 0
    assert default.read_bytes() != a.read_bytes()


def test_explicit_flag_overrides_preset(tmp_path):
    out = tmp_path / "fig1d.csv"
    assert cli.main(["analytic", "--preset", "fig1d", "--steps", "10", "--out", str(out)]) == 0
    assert len(load_csv(out)) == 11
    assert json.loads((tmp_path / "fig1d.csv.manifest.json").read_text())[
        "parameters"]["steps"] == 10


@pytest.mark.parametrize("flag, argv", [
    ("--tau", ["analytic", "--n", "6", "--pair", "2,1", "--tau="]),
    ("--tau", ["general", "--rates-inline", "1,2,3", "--tau="]),
    ("--pair", ["general", "--rates-inline", "1,2,3", "--pair="]),
])
def test_empty_flag_is_not_its_default(tmp_path, capsys, flag, argv):
    out = tmp_path / "x.csv"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} expects")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["analytic", "--preset", "fig5"],
                                  ["general", "--preset", "nope"],
                                  ["peaks", "--preset", ""]])
def test_preset_outside_its_command_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "argument --preset: invalid choice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_preset_fig5_dashed_uses_mean_rate(tmp_path):
    out = tmp_path / "fig5d.csv"
    assert run_cli("general", "--preset", "fig5dashed", "--out", out).returncode == 0
    data = load_csv(out)
    mean = (1.0 + 1.1 + 0.025) / 3
    np.testing.assert_allclose(
        data[:, 1], g2_equal_pair(3, 2, 1, mean, data[:, 0]), atol=1e-9
    )


def test_manifest_records_parameters(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("analytic", "--n", 4, "--pair", "1,1", "--out", out).returncode == 0
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "analytic"
    assert manifest["parameters"]["n"] == 4
    assert manifest["outputs"] == [str(out)]
    assert "duration_seconds" in manifest
    # the job's own VmHWM, where the kernel reports one
    if os.path.exists("/proc/self/status"):
        assert 0 < manifest["peak_rss_mb"] < 4096


def test_manifest_leaves_out_memory_without_proc_status(tmp_path, monkeypatch):
    def no_status(path, *args, **kwargs):
        if path == "/proc/self/status":
            raise FileNotFoundError(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_status, raising=False)
    out = tmp_path / "t.csv"
    assert cli.main(["analytic", "--n", "4", "--pair", "1,1", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert "peak_rss_mb" not in manifest
    assert manifest["subcommand"] == "analytic"


# rates and a gamma at the edge of the float range: each of these once
# ended in a traceback (an OverflowError, or NaN occupations) or a warning
FLOAT_RANGE_RUNS = {
    "squares": ("general", "--rates-inline", "1e308,1e308,1", "--pair", "1,1"),
    "occupation": ("general", "--rates-inline", "1e-300,1,1e300", "--pair", "1,1",
                   "--tau", "0:1", "--steps", 4),
    "cscheck": ("cscheck", "--rates", "{rates}", "--pair", "2,1"),
    "simulate": ("simulate", "--rates", "{tiny}", "--events", 10),
    "gamma": ("analytic", "--n", 6, "--k", 1, "--gamma", "1e308"),
    # an event rate past the range, and a peak-scan step of inf
    "event rate": ("simulate", "--rates", "{largest}", "--events", 64),
    "peak grid": ("peaks", "--n", 2, "--gamma", "5e-324"),
}


@pytest.mark.parametrize("name", FLOAT_RANGE_RUNS)
def test_the_float_range_exits_without_a_traceback(tmp_path, name):
    files = {"rates": [1e308, 1e308, 1.0], "tiny": [5e-324, 1.0],
             "largest": [1.7976931348623153e308]}
    for key, rates in files.items():
        (tmp_path / key).write_text(json.dumps({"n_levels": len(rates), "rates": rates}))
    args = [str(a).format(**{key: tmp_path / key for key in files})
            for a in FLOAT_RANGE_RUNS[name]]
    cp = run_cli(*args, "--out", tmp_path / "out")
    assert cp.returncode in (0, 3) and "Traceback" not in cp.stderr, cp.stderr
    assert cp.returncode == 3 or cp.stderr == ""


# argv pools of the CLI contract property: per subcommand, each flag has
# (good, bad) values, drawn from the good ones four times in five. None
# leaves the flag out, True gives a switch, and a list is a run of argv
# (several flags, or none). Work-size values are small, or so large that they
# fail at once (more draws or bins than an array holds, or an allocation of
# terabytes); none starts a run that allocates gigabytes.
RING = {"--n": ([1, 2, 3, 6], [None, 0, -1, 99999999999999999999]),
        "--gamma": ([None, 1.0, 0.5], [1e-300, 1e300, 5e-324, 0, -2, "nan"])}
RATES = ([None, None, "{files}/rates3.json", "{files}/rates5.json"],
         ["{files}/huge.json", "{files}/broken.json", "{files}/negative.json",
          "{files}/absent.json"])
TAU = ([None, "-3:3", "0:1"], ["1:0", "-1e300:1e300", "a:b", "0:0"])
STEPS = ([None, 1, 2, 40], [0, -1, 10**14])
PAIR = (["2,1", "1,0", "0,0"], ["9,9", "1", "a,b", "1,2,3"])
SUBSETS = (["--subset", "1,2"], ["--subset", "0"], ["--subset", "0,1,2"])
BAD_SUBSETS = (["--subset", "1,1"], ["--subset", "9"], ["--subset", ""], ["--subset", "x"])
CONTRACT_FLAGS = {
    "analytic": {
        **RING, "--tau": TAU, "--steps": STEPS,
        "selection": ([["--pair", "2,1"], ["--pair", "1,0"], ["--k", 2], ["--k", 13], *SUBSETS],
                      [[], ["--pair", "9,9"], ["--pair", "1"], ["--pair", "1,1", "--k", 2],
                       ["--k", 1, "--subset", "1,2"], *BAD_SUBSETS]),
        "--preset": ([None], ["fig1c", "fig5", "no"])},
    "general": {
        "--rates-inline": ([None, "1,2,3", "1,1.1,0.025", "2,3,5,7"],
                           ["1e308,1e308", "1e-300,1,1e300", "1", "0,1", "a"]),
        "--rates": RATES, "--pair": ([None, *PAIR[0]], PAIR[1]), "--tau": TAU,
        "--steps": STEPS, "--preset": ([None], ["fig5dashed", "fig1c"])},
    "cscheck": {**RING, "--rates": RATES, "--pair": (["0,1", "2,1"], ["1,1", "9,0", "x"]),
                "--tau-samples": ([None, "0.01:0.1:5", "0:1:1", "-1:1:3"],
                                  ["1:0:3", "0:1:0", "0:1:2.5", f"0:1:{10**14}"])},
    "peaks": {**RING, "--k": ([None, 1, 2, 0, -1], []), "--orders": ([None, 1, 3], [0, 10**400]),
              "--cross": ([None, True], []), "--cross-orders": ([None, 1], [0]),
              "--scan": ([None, None, "3:5"], ["5:3", "0:2", "2:2"]),
              "--csv": ([None, "{tmp}/x.csv"], ["{tmp}/missing/x.csv"]),
              "--preset": ([None], ["fig5", "no"])},
    "simulate": {
        **RING, "--rates": RATES,
        "stop": ([["--events", 200], ["--events", "1e3"], ["--duration", 5.0],
                  ["--duration", 50.0]],
                 [[], ["--events", 0], ["--events", 1.5], ["--events", "many"],
                  ["--events", "1e300"], ["--duration", 1e300], ["--duration", -1],
                  ["--events", 10, "--duration", 5.0]]),
        "--seed": ([None, 0, 7], [-1, 2**64]), "--burn-in": ([None, 0, 1.0], [1e300, -1]),
        "--initial": ([None, 0, 2], [7, -1]), "--format": ([None, "binary", "text"], [])},
    "correlate": {
        "--in": (["{files}/ring6.events", "{files}/ring3.txt", "{files}/ring1.events"],
                 ["{files}/sparse.events", "{files}/unordered.events",
                  "{files}/truncated.events", "{files}/empty.txt", "{files}/magic.events",
                  "{files}/absent"]),
        "selection": ([["--pair", "0,0"], ["--pair", "2,1"], *SUBSETS],
                      [[], ["--pair", "1,1", "--subset", "1,2"], ["--pair", "9,9"],
                       ["--pair", "a,b"], *BAD_SUBSETS]),
        "--bin": ([0.5, 0.05], [1e-12, 1e-300, 0, -1]),
        "--taumax": ([1.0, 5.0, 40.0], [1e6, 0])},
}
OUT = (["{tmp}/x.out"], [None, "{tmp}/missing/x.out"])


def _pool(good, bad):
    """The good values four times in five, when there are bad ones."""
    return st.sampled_from([*good * 4 * len(bad or [0]), *bad * len(good)])


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """Rates files and small event streams, damaged ones included."""
    files = tmp_path_factory.mktemp("contract")
    for name, text in {"rates3.json": '{"n_levels": 3, "rates": [1, 1.1, 0.025]}',
                       "rates5.json": '{"n_levels": 5, "rates": [1, 0.4, 2.5, 0.8, 1.7]}',
                       "huge.json": '{"n_levels": 2, "rates": [1e308, 1e308]}',
                       "broken.json": "{not json",
                       "negative.json": '{"n_levels": 3, "rates": [1.0, -1.0, 2.0]}',
                       "empty.txt": ""}.items():
        (files / name).write_text(text)
    write_events_binary(simulate(SimConfig(CascadeSpec.equal(6), seed=1, total_events=3000)),
                        files / "ring6.events")
    write_events_text(simulate(SimConfig(CascadeSpec(3, (1.0, 2.0, 0.5)), seed=2,
                                         total_events=1000)), files / "ring3.txt")
    write_events_binary(simulate(SimConfig(CascadeSpec.equal(1), seed=3, total_events=500)),
                        files / "ring1.events")
    write_events_binary(EventStream(np.array([1.0, 2.0, 3.0]), 2, 6, 100.0),
                        files / "sparse.events")
    (files / "unordered.events").write_bytes(
        b"CEV2" + struct.pack("<IIQdQ", 6, 0, 0, 100.0, 3) + np.array([1.0, 3.0, 2.0]).tobytes())
    whole = (files / "ring6.events").read_bytes()
    (files / "truncated.events").write_bytes(whole[:len(whole) // 2 + 3])
    (files / "magic.events").write_bytes(b"CEV9" + whole[4:100])
    return files


def _contract_run(argv):
    """(exit code, stderr) of cli.main(argv) in-process; argparse's usage
    errors, the one exception allowed to leave main, give (None, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), err.getvalue()
        except SystemExit as exc:
            assert exc.code == 2, (argv, err.getvalue())
            return None, err.getvalue()


@given(st.data())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_run_keeps_the_cli_contract(contract_files, data):
    """Exit 0 and write --out and its manifest, or print one `error:` line,
    exit 2, 3, 4 or 5 and write neither; no exception but argparse's exit 2
    leaves main."""
    command = data.draw(st.sampled_from(sorted(CONTRACT_FLAGS)), label="command")
    pools = {**CONTRACT_FLAGS[command], "--out": OUT}
    flags = data.draw(st.fixed_dictionaries(
        {flag: _pool(*pool) for flag, pool in pools.items()}), label="flags")
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, value in flags.items():
            if value is True:
                argv.append(flag)
            elif value is not None:
                argv += value if isinstance(value, list) else [flag, value]
        argv = [str(a).format(tmp=tmp, files=contract_files) for a in argv]
        code, err = _contract_run(argv)
        event(f"{command} exit {code}")
        out = flags["--out"] and flags["--out"].format(tmp=tmp)
        written = [os.path.exists(p) for p in (out, f"{out}.manifest.json")] if out else [False]
        if code is None:
            assert not any(written), argv
        elif code == 0:
            assert all(written) and err == "", (argv, err)
        else:
            assert code in (2, 3, 4, 5), (argv, code, err)
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
            assert not any(written), argv
