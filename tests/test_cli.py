import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from circascade import (
    CascadeSpec,
    ConfigInvalid,
    HistogramConfig,
    InsufficientSamples,
    NumericalFailure,
    SimConfig,
    StreamInvariantViolation,
    cli,
    correlate,
    g2_equal_pair,
    g2_three_level,
    read_events_binary,
    read_events_text,
    simulate,
)


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "circascade.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
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


MALFORMED_FLAGS = [
    ("--subset", ["analytic", "--n", 6, "--subset", "1,x"]),
    ("--scan", ["peaks", "--scan", "3-50"]),
    ("--scan", ["peaks", "--scan", "0:3"]),
    ("--gamma", ["peaks", "--n", 6, "--gamma", "nan"]),
    ("--tau-samples", ["cscheck", "--n", 6, "--pair", "3,1", "--tau-samples", "0:1"]),
    ("--tau-samples", ["cscheck", "--n", 6, "--pair", "3,1", "--tau-samples", "0:1:-1"]),
    ("--rates-inline", ["general", "--rates-inline", "1,x,2", "--pair", "1,1"]),
    ("--events", ["simulate", "--n", 3, "--events", "many"]),
    ("--events", ["simulate", "--n", 3, "--events", "inf"]),
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


@pytest.mark.parametrize(
    "error, code",
    [(ConfigInvalid, 2), (NumericalFailure, 3), (StreamInvariantViolation, 4),
     (InsufficientSamples, 5), (OSError, 4)],
    ids=lambda x: x.__name__ if isinstance(x, type) else str(x),
)
def test_main_exits_with_the_code_of_the_error(tmp_path, monkeypatch, capsys, error, code):
    def fail(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "g2_equal_pair", fail)
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
    trace = correlate(stream, HistogramConfig(0.25, 10.0, channels=(1, 1)))
    data = load_csv(trace_path)
    np.testing.assert_array_equal(data[:, 0], trace.tau)
    np.testing.assert_array_equal(data[:, 1], trace.values)  # bit-exact round trip

    # the file must round-trip through the reader identically too
    again = read_events_text(stream_path)
    for ca, cb in zip(stream.channels, again.channels):
        assert np.array_equal(ca, cb)


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
def test_thread_count_does_not_change_output(tmp_path, grid):
    a, b = tmp_path / "one.csv", tmp_path / "four.csv"
    base = ["analytic", "--pair", "3,1", *grid]
    assert run_cli(*base, "--out", a, env_extra={"CASCADE_THREADS": "1"}).returncode == 0
    assert run_cli(*base, "--out", b, env_extra={"CASCADE_THREADS": "4"}).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_general_thread_count_does_not_change_output(tmp_path):
    # a monotone ladder: the stepped propagation must run over the whole grid
    rates = tmp_path / "ladder48.json"
    ladder = [float(r) for r in 10.0 ** np.linspace(-1, 1, 48)]
    rates.write_text(json.dumps({"n_levels": 48, "rates": ladder}))
    a, b = tmp_path / "one.csv", tmp_path / "four.csv"
    base = ["general", "--rates", rates, "--pair", "2,1", "--tau", "-300:300",
            "--steps", 1600]
    for out, threads in ((a, "1"), (b, "4")):
        cp = run_cli(*base, "--out", out, env_extra={"CASCADE_THREADS": threads})
        assert cp.returncode == 0, cp.stderr
    assert a.read_bytes() == b.read_bytes()


def test_correlate_empty_channel_exit_5(tmp_path):
    stream_path = tmp_path / "one.events"
    stream_path.write_text("# cascade-events v1 N=3 seed=0 T=10\n1.0 2\n")
    cp = run_cli("correlate", "--in", stream_path, "--pair", "1,1",
                 "--bin", 0.05, "--taumax", 1, "--out", tmp_path / "x.csv")
    assert cp.returncode == 5


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
