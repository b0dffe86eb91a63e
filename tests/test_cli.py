"""Command-line interface: outputs, config handling, exit codes."""

import functools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscprobe
from oscprobe import SystemParams, estimate, fidelity_uj_blocks
from oscprobe.cli import (_COMMANDS, _CONFIG_KINDS, ORACLE_TOLERANCES, _config_schema,
                          build_parser, main)
from oscprobe.datafiles import read_csv, write_csv


@pytest.fixture(autouse=True)
def isolated_outdir(monkeypatch):
    monkeypatch.delenv("OSCPROBE_OUTDIR", raising=False)


def run(*argv):
    return main([str(a) for a in argv])


def test_propagate_roundtrip(tmp_path):
    assert run("propagate", "--g", 0.1, "--kappa", 0.05, "--nbar", 0.3,
               "--mbar", 0.5, "--t-max", 10, "--dt", 0.1,
               "--outdir", tmp_path) == 0
    meta, cols = read_csv(tmp_path / "propagate.csv")
    assert meta["g"] == 0.1 and meta["kappa"] == 0.05
    assert meta["M"] == 1.0 and meta["init"] == "thermal"
    ts = cols["t"]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(10.0)
    mag2 = cols["coherence_re"] ** 2 + cols["coherence_im"] ** 2
    assert np.max(np.abs(mag2 - cols["fgen"])) < 1e-12
    p = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=0.5)
    assert np.max(np.abs(cols["fuj"] - fidelity_uj_blocks(ts, p, 1.0))) < 1e-12
    assert cols["purity_qubit"][0] == pytest.approx(1.0, abs=1e-12)


def test_propagate_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run("propagate", "--t-max", 5, "--dt", 0.5, "--noise", 0.01,
                   "--seed", 3, "--outdir", tmp_path / sub) == 0
    assert (tmp_path / "a" / "propagate.csv").read_bytes() == \
        (tmp_path / "b" / "propagate.csv").read_bytes()


def test_noise_preserves_coherence_consistency(tmp_path):
    assert run("propagate", "--noise", 0.02, "--seed", 9, "--t-max", 8,
               "--dt", 0.1, "--outdir", tmp_path) == 0
    _, cols = read_csv(tmp_path / "propagate.csv")
    mag2 = cols["coherence_re"] ** 2 + cols["coherence_im"] ** 2
    assert np.max(np.abs(mag2 - cols["fgen"])) < 1e-12
    assert np.all(cols["fgen"] <= 1.0)


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCPROBE_OUTDIR", str(tmp_path / "envdir"))
    assert run("fidelity", "--t-max", 4, "--dt", 0.5) == 0
    assert (tmp_path / "envdir" / "fidelity.csv").exists()


def test_fidelity_metadata_has_limit(tmp_path):
    assert run("fidelity", "--g", 0.2, "--kappa", 0.1, "--t-max", 5,
               "--dt", 0.5, "--outdir", tmp_path) == 0
    meta, cols = read_csv(tmp_path / "fidelity.csv")
    assert meta["fuj_limit"] == pytest.approx(0.9238478173043099, abs=1e-12)
    assert set(cols) == {"t", "fgen", "fuj", "purity_qubit",
                         "purity_oscillator"}


def test_fidelity_at_overdamping_writes_finite_curves(tmp_path):
    # kappa^2 overflows a float; the drift bound 4 g^2/(1 + kappa^2) is 0
    assert run("fidelity", "--kappa", "1e200", "--outdir", tmp_path) == 0
    meta, cols = read_csv(tmp_path / "fidelity.csv")
    assert meta["fuj_limit"] == 1.0
    assert all(np.all(np.isfinite(col)) for col in cols.values())


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"g": 0.27, "t_max": 3.0, "dt": 0.5}))
    assert run("propagate", "--g", 0.1, "--config", cfg,
               "--outdir", tmp_path) == 0
    meta, cols = read_csv(tmp_path / "propagate.csv")
    assert meta["g"] == 0.27
    assert cols["t"][-1] == pytest.approx(3.0)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    for command, entries in (("propagate", {"coupling": 0.1}),
                             ("oracle", {"method": "rk"}),
                             ("oracle", {"rel_tol": 1e-8})):
        cfg.write_text(json.dumps(entries))
        assert run(command, "--config", cfg, "--outdir", tmp_path) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_config_rejects_wrong_types(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"g": "strong"}))
    assert run("propagate", "--config", cfg, "--outdir", tmp_path) == 2
    assert "must be a number" in capsys.readouterr().err


def test_every_valued_flag_has_a_config_type_check():
    # a flag of a type outside the table would fail every --config naming it
    parser = build_parser()
    for command in _COMMANDS:
        for key, (want, _) in _config_schema(parser, command).items():
            assert want in _CONFIG_KINDS, (command, key, want)


@pytest.mark.parametrize("command, entries, allowed", [
    ("propagate", {"init": "Coherent", "q0": 2}, "thermal, coherent"),
    ("estimate", {"mode": "both"}, "direct-fit, two-temperature"),
])
def test_config_rejects_values_outside_choices(tmp_path, capsys, command,
                                                entries, allowed):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(entries))
    required = {"estimate": ["--input", tmp_path / "run.csv"]}.get(command, [])
    assert run(command, *required, "--config", cfg, "--outdir", tmp_path) == 2
    assert allowed in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_nbar_and_temperature_conflict(tmp_path, capsys):
    assert run("propagate", "--nbar", 0.5, "--temperature", 1.0,
               "--outdir", tmp_path) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_wigner_grid_guard(tmp_path, capsys):
    # the point count is checked before the axis is allocated
    for bound, step, message in ((300, 0.001, "grid"), ("inf", 0.05, "finite"),
                                 (1e308, 1e-300, "grid")):
        assert run("wigner", "--bound", bound, "--step", step,
                   "--outdir", tmp_path) == 2
        assert message in capsys.readouterr().err.lower()
    assert list(tmp_path.iterdir()) == []


def test_time_grid_guard(tmp_path, capsys):
    for t_max, dt, message in (("inf", 0.05, "finite"), (1e308, 1e-300, "grid")):
        assert run("propagate", "--t-max", t_max, "--dt", dt,
                   "--outdir", tmp_path) == 2
        assert message in capsys.readouterr().err.lower()
    assert list(tmp_path.iterdir()) == []


def test_propagate_refuses_a_bad_noise_level(tmp_path, capsys):
    for noise in (-0.5, "nan"):
        assert run("propagate", "--noise", noise, "--outdir", tmp_path) == 2
        assert "--noise must be finite and >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # a record that declares such a level is not fitted either
    record = tmp_path / "rec" / "bad.csv"
    record.parent.mkdir()
    write_csv(record, {"M": 1.0, "noise": -0.5},
              {"t": [0.0, 1.0, 2.0], "fgen": [1.0, 0.9, 0.8]})
    assert run("estimate", "--input", record, "--outdir", tmp_path / "est") == 2
    assert "noise level must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "est" / "estimate_report.json").exists()


def test_wigner_writes_one_file_per_time(tmp_path):
    assert run("wigner", "--g", 0.4, "--times", "0,2.5", "--bound", 4,
               "--step", 0.1, "--outdir", tmp_path) == 0
    for tag in ("0", "2.5"):
        meta, cols = read_csv(tmp_path / f"wigner_t{tag}.csv")
        n_ax = len(np.arange(-4.0, 4.0 + 0.05, 0.1))
        assert len(cols["w"]) == n_ax * n_ax
        assert meta["grid_integral"] == pytest.approx(1.0, abs=1e-4)
    # q varies fastest in the flattened rows
    _, cols = read_csv(tmp_path / "wigner_t0.csv")
    assert cols["q"][1] != cols["q"][0]
    assert cols["p"][1] == cols["p"][0]


def test_wigner_refuses_a_grid_that_overflows(tmp_path, capsys):
    assert run("wigner", "--g", "6e153", "--times", 3,
               "--outdir", tmp_path) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "error: the Wigner grid overflows a float" in err
    assert list(tmp_path.iterdir()) == []


def test_wigner_refuses_times_that_share_a_file_name(tmp_path, capsys):
    for times in ("1.0000001,1.0000002", "0,0"):
        assert run("wigner", "--times", times, "--bound", 1, "--step", 0.5,
                   "--outdir", tmp_path) == 2
        assert "repeat a file name" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_wigner_csv_bytes_match_the_generic_writer(tmp_path):
    assert run("wigner", "--g", 0.3, "--times", "1.5", "--bound", 1.2,
               "--step", 0.3, "--outdir", tmp_path) == 0
    meta, cols = read_csv(tmp_path / "wigner_t1.5.csv")
    del meta["oscprobe_version"]
    write_csv(tmp_path / "generic.csv", meta, cols)
    assert ((tmp_path / "wigner_t1.5.csv").read_bytes()
            == (tmp_path / "generic.csv").read_bytes())


def test_oracle_random_mode(tmp_path):
    assert run("oracle", "--points", 1, "--t-max", 3, "--seed", 1,
               "--outdir", tmp_path) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["pass"] is True
    assert report["n_points"] == 1
    assert "method" not in report
    assert report["points"][0]["dev_fgen"] < 1e-6
    assert report["points"][0]["dims_tried"] == [report["points"][0]["dim"]]
    assert report["points"][0]["bands_tried"] == [report["points"][0]["band"]]
    assert report["points"][0]["leak_retries"] == 0
    assert report["points"][0]["leak_weights"] == []


def test_oracle_report_is_deterministic_and_counts_solver_work(tmp_path):
    for sub in ("a", "b"):
        assert run("oracle", "--points", 2, "--t-max", 3, "--seed", 4,
                   "--outdir", tmp_path / sub) == 0
    text = (tmp_path / "a" / "oracle_report.json").read_text()
    assert text == (tmp_path / "b" / "oracle_report.json").read_text()
    report = json.loads(text)
    for pt in report["points"]:
        assert pt["rhs_evals"] > 0 and pt["rejected_steps"] >= 0
    # work counts are not deviations: neither is held to a tolerance
    assert set(report["max_deviation"]) == set(report["tolerances"])


def test_oracle_prints_one_stderr_line_per_completed_point(tmp_path, capsys):
    assert run("oracle", "--points", 3, "--t-max", 3, "--seed", 4,
               "--outdir", tmp_path) == 0
    out = capsys.readouterr()
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    lines = out.err.splitlines()
    assert len(lines) == 3 and len(out.out.splitlines()) == 1
    for i, (line, pt) in enumerate(zip(lines, report["points"]), 1):
        head, _, wall = line.rpartition(", ")
        assert head == (f"oracle point {i}/3: dim {pt['dim']}, band {pt['band']}, "
                        f"dims tried {pt['dims_tried']}, rhs_evals {pt['rhs_evals']}")
        assert wall.endswith(" ms") and float(wall[:-3]) >= 0.0
    # the timings stay out of the report
    assert not any("wall" in key or key.endswith("_ms")
                   for pt in report["points"] for key in pt)


def test_oracle_tolerances_bound_every_deviation_of_a_point():
    row = oscprobe.compare_point(SystemParams(g=0.05, kappa=0.1, nbar=0.2, mbar=0.1),
                                 oscprobe.QubitInitState.balanced(),
                                 oscprobe.OracleConfig(dim=16), 0.5)
    assert set(ORACLE_TOLERANCES) == {key for key in row if key.startswith("dev_")}


def test_oracle_rejects_an_empty_run(tmp_path, capsys):
    for points in (0, -1):
        assert run("oracle", "--points", points, "--outdir", tmp_path) == 2
        assert "--points must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_oracle_explicit_point(tmp_path):
    assert run("oracle", "--g", 0.15, "--kappa", 0.08, "--nbar", 0.2,
               "--mbar", 0.4, "--t", 2.5, "--outdir", tmp_path) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["n_points"] == 1
    pt = report["points"][0]
    assert pt["g"] == 0.15 and pt["t"] == 2.5


def test_oracle_point_fills_in_the_model_defaults(tmp_path):
    assert run("oracle", "--kappa", 0.15, "--t", 3, "--outdir", tmp_path) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["n_points"] == 1 and report["seed"] is None
    pt = report["points"][0]
    assert (pt["kappa"], pt["t"]) == (0.15, 3.0)
    # the defaults every other command writes for the flags not given
    assert run("propagate", "--kappa", 0.15, "--t-max", 1, "--dt", 0.5,
               "--outdir", tmp_path) == 0
    meta, _ = read_csv(tmp_path / "propagate.csv")
    assert {k: pt[k] for k in ("g", "nbar", "mbar", "delta")} == \
        {k: meta[k] for k in ("g", "nbar", "mbar", "delta")} == \
        {"g": 0.1, "nbar": 0.0, "mbar": 0.0, "delta": 0.0}


@pytest.mark.parametrize("flags, noise, seed", [
    (["--mbar", 0.3, "--delta", 0.3], 0.02, 3),
    (["--init", "coherent", "--q0", 0.4, "--p0", -0.7], 0.01, 5),
], ids=("thermal", "coherent"))
def test_noisy_record_is_drawn_by_synthesize_series(tmp_path, flags, noise, seed):
    assert run("propagate", *flags, "--noise", noise, "--seed", seed,
               "--outdir", tmp_path) == 0
    meta, cols = read_csv(tmp_path / "propagate.csv")
    params = SystemParams(g=meta["g"], kappa=meta["kappa"], delta=meta["delta"],
                          nbar=meta["nbar"], mbar=meta["mbar"])
    series = estimate.synthesize_series(params, meta["M"], cols["t"], noise,
                                        np.random.default_rng(seed))
    assert np.array_equal(cols["fgen"], series.fgen)


def test_estimate_recovers_from_propagate_output(tmp_path):
    assert run("propagate", "--g", 0.1, "--kappa", 0.05, "--nbar", 0.3,
               "--mbar", 0.5, "--t-max", 30, "--dt", 0.05,
               "--outdir", tmp_path) == 0
    assert run("estimate", "--input", tmp_path / "propagate.csv",
               "--outdir", tmp_path) == 0
    report = json.loads((tmp_path / "estimate_report.json").read_text())
    assert report["g"] == pytest.approx(0.1, rel=1e-6)
    assert report["kappa"] == pytest.approx(0.05, rel=1e-6)
    assert report["N"] == pytest.approx(1.6, rel=1e-6)
    assert report["nbar"] == pytest.approx(0.3, rel=1e-5)
    assert report["inputs"] == ["propagate.csv"]


def test_estimate_fits_a_long_noiseless_record_alone(tmp_path):
    # a long noiseless record: no g^2 > 0 fits it at kappa 0.035 or below
    assert run("propagate", "--g", 0.23, "--kappa", 0.08, "--nbar", 0.7,
               "--mbar", 0, "--t-max", 200, "--dt", 0.01,
               "--outdir", tmp_path) == 0
    assert run("estimate", "--input", tmp_path / "propagate.csv",
               "--outdir", tmp_path) == 0
    report = json.loads((tmp_path / "estimate_report.json").read_text())
    assert report["converged"] is True
    assert report["g"] == pytest.approx(0.23, rel=1e-6)
    assert report["kappa"] == pytest.approx(0.08, rel=1e-6)
    assert report["N"] == pytest.approx(2.4, rel=1e-6)


def test_estimate_writes_strict_json(tmp_path):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    for mbar, name in ((0.0, "m0.csv"), (1.0, "m1.csv")):
        assert run("propagate", "--g", 0.2, "--kappa", 0.1, "--nbar", 0.5,
                   "--mbar", mbar, "--output", name, "--outdir", tmp_path) == 0
    inputs = ["--input", tmp_path / "m0.csv", "--input", tmp_path / "m1.csv"]
    assert run("estimate", *inputs, "--output", "direct.json",
               "--outdir", tmp_path) == 0
    assert run("estimate", *inputs, "--mode", "two-temperature",
               "--output", "two.json", "--outdir", tmp_path) == 0
    direct = json.loads((tmp_path / "direct.json").read_text(),
                        parse_constant=refuse)
    two = json.loads((tmp_path / "two.json").read_text(), parse_constant=refuse)
    # records at different M leave the pooled M undefined
    assert direct["M"] is None and direct["mbar"] is None
    assert direct["N"] == pytest.approx(2.0, rel=1e-6)
    assert two["std_errors"]["N"] is None
    # the two records carry different labels, so M is undefined in both modes
    assert two["M"] is None and two["mbar"] is None


def test_estimate_warns_when_the_fit_does_not_converge(tmp_path, monkeypatch,
                                                     capsys):
    assert run("propagate", "--g", 0.2, "--kappa", 0.1, "--nbar", 0.5,
               "--outdir", tmp_path) == 0
    args = ("estimate", "--input", tmp_path / "propagate.csv",
            "--outdir", tmp_path)
    assert run(*args) == 0
    report = json.loads((tmp_path / "estimate_report.json").read_text())
    # more evaluations than the budget below allows
    assert report["converged"] is True and report["nfev"] > 2
    assert report["njev"] >= 1
    assert "warning" not in capsys.readouterr().err
    # a budget too small to converge in, honoured exactly
    monkeypatch.setattr(estimate, "least_squares",
                        functools.partial(estimate.least_squares, max_nfev=2))
    assert run(*args) == 0
    report = json.loads((tmp_path / "estimate_report.json").read_text())
    assert report["converged"] is False and report["nfev"] == 2
    assert (f"did not converge after 2 residual and {report['njev']} Jacobian "
            "evaluations") in capsys.readouterr().err


_SCIPY_PROBE = """
import json, sys
import oscprobe
from oscprobe.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
assert main(["propagate", "--t-max", "10", "--dt", "0.1", "--outdir", out]) == 0
assert main(["reproduce", "fig2", "--nbar", "0.5", "--mbar", "0.5",
             "--t-max", "5", "--dt", "0.5", "--outdir", out]) == 0
before = scipy_modules()
assert main(["estimate", "--input", out + "/propagate.csv", "--outdir", out]) == 0
print(json.dumps({"before_estimate": before, "after_estimate": scipy_modules()}))
"""


def test_cli_commands_start_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(oscprobe.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    # propagate, reproduce fig2 and estimate all run on numpy alone
    assert loaded["before_estimate"] == []
    assert loaded["after_estimate"] == []


_RECORD = "#M=1.0\nt,fgen\n0,1.0\n1,0.9\n"


def _model_record(m="1.0", f6=None):
    """A clean M = 1 record of g 0.2, kappa 0.1 and N 2 headed #M=m, its
    seventh fidelity set to f6 if given."""
    ts = np.arange(0.0, 10.0, 0.5)
    params = SystemParams(g=0.2, kappa=0.1, nbar=0.5, mbar=0.5)
    fgen = estimate.synthesize_series(params, 1.0, ts).fgen
    fgen[6] = fgen[6] if f6 is None else f6
    return f"#M={m}\nt,fgen\n" + "".join(f"{t:g},{f:.17g}\n" for t, f in zip(ts, fgen))


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--input", "{src}/missing.csv"], "cannot read"),
    (["estimate", "--input", "{src}/bad_row.csv"],
     "non-numeric cell or ragged row at line 4: '1,abc'"),
    (["estimate", "--input", "{src}/bad_m.csv"], "M='abc' is not a number"),
    (["estimate", "--input", "{src}/bad_noise.csv"],
     "noise='lots' is not a number"),
    (["estimate", "--input", "{src}/twice_col.csv"], "column 'fgen' appears twice"),
    (["estimate", "--input", "{src}/twice_key.csv"],
     "metadata key 'M' appears twice"),
    (["estimate", "--input", "{src}/junk_key.csv"],
     "malformed metadata line '#junk'"),
    (["estimate", "--input", "{src}/no_header.csv"], "no column header found"),
    (["estimate", "--input", "{src}/wide.csv"], "row width does not match header"),
    (["estimate", "--input", "{src}/ragged.csv"],
     "non-numeric cell or ragged row at line 4: '1,0.9,0.8'"),
    (["estimate", "--input", "{src}/no_fgen.csv"], "needs 't' and 'fgen' columns"),
    # F = 1 throughout: no kappa that the fit steps up to fixes g^2 > 0
    (["estimate", "--input", "{src}/flat.csv"], "the records fix no positive g^2"),
    # read as given: clipped to 1, the 1.5 fitted N 5.7, and M = 10 fitted N 20
    (["estimate", "--input", "{src}/above_one.csv"], "fidelities must lie in (0, 1]"),
    (["estimate", "--input", "{src}/grouped_m.csv"], "M='1_0' is not a number"),
    (["propagate", "--config", "{src}/missing.json"], "cannot read config"),
    (["propagate", "--config", "{src}/open.json"], "is not valid JSON"),
    (["propagate", "--config", "{src}/array.json"], "must hold a JSON object"),
    (["oracle", "--config", "{src}/points.json"],
     "config key 'points' must be an integer"),
    (["propagate", "--config", "{src}/output.json"],
     "config key 'output' must be a string"),
    (["propagate", "--noise", "0.01", "--seed", "-1"], "--seed must be >= 0"),
    (["propagate", "--config", "{src}/seed.json"], "--seed must be >= 0"),
    (["oracle", "--points", "1", "--seed", "-3"], "--seed must be >= 0"),
    (["fidelity", "--outdir", "{src}/good.csv"], "cannot use output directory"),
    (["propagate", "--outdir", "{src}", "--output", "nodir/run.csv"],
     "cannot write"),
    (["oracle", "--g", "0.1", "--t", "0.5", "--outdir", "{src}",
      "--output", "wigner_t0.csv"], "cannot write"),
    (["wigner", "--outdir", "{src}"], "cannot write"),
    (["wigner", "--times", "0,nan"], "times must be finite"),
    (["wigner", "--times", "a,b"], "cannot parse times 'a,b'"),
    (["wigner", "--times", ","], "no evaluation times given"),
    (["oracle", "--dim", "100000"], "dim must be an integer in [2, 512]"),
    # parameters whose scales overflow a float, refused before any arithmetic
    (["propagate", "--g", "1e154"], "N and kappa N must be finite"),
    (["fidelity", "--g", "1e154"], "N and kappa N must be finite"),
    (["fidelity", "--nbar", "1e308"], "N and kappa N must be finite"),
    (["reproduce", "fig2", "--mbar", "0", "--temperature", "1e308"],
     "N and kappa N must be finite"),
    (["reproduce", "fig3", "--mbar", "0", "--nbar", "1e308"],
     "N and kappa N must be finite"),
    (["oracle", "--kappa", "1e200", "--t", "1"], "integration failed"),
    # sizing bounds that underflow or need more than 512 levels
    (["oracle", "--g", "20", "--t", "1"], "basis above MAX_DIM = 512"),
    (["oracle", "--g", "1e100", "--t", "1"], "basis above MAX_DIM = 512"),
    (["oracle", "--nbar", "1e300", "--t", "1"], "basis above MAX_DIM = 512"),
    # accepted parameters whose closed form or noise draw overflows on the grid
    (["fidelity", "--g", "1e153"], "the coherence overflows a float"),
    (["fidelity", "--g", "1e153", "--kappa", "0"],
     "the coherence overflows a float"),
    (["propagate", "--g", "1e153", "--kappa", "0"],
     "the coherence overflows a float"),
    (["propagate", "--g", "6e153", "--kappa", "0.1"],
     "the coherence overflows a float"),
    (["reproduce", "fig3", "--mbar", "0", "--nbar", "1e307"],
     "the block fidelity overflows a float"),
    (["propagate", "--noise", "1e308"], "the noise draw overflows a float"),
    # a noisy record whose closed-form F underflows to 0
    (["propagate", "--g", "1", "--kappa", "0.1", "--nbar", "10", "--t-max", "200",
      "--noise", "0.01"], "F underflows to 0 from t = 84.6"),
    # start values the start would ignore, and grid flags a figure does not read
    (["propagate", "--q0", "1", "--p0", "2"],
     "--init thermal starts at the origin; omit --q0 and --p0"),
    (["wigner", "--init", "thermal", "--p0", "-0.5"],
     "--init thermal starts at the origin; omit --q0 and --p0"),
    (["propagate", "--init", "coherent", "--mbar", "2"],
     "--init coherent starts at M = 1/2; omit --mbar"),
    (["wigner", "--init", "coherent", "--mbar", "2"],
     "--init coherent starts at M = 1/2; omit --mbar"),
    (["reproduce", "fig1", "--t-max", "1", "--dt", "7"], "fig1 reads no --t-max"),
    (["reproduce", "fig1", "--config", "{src}/dt.json"], "fig1 reads no --dt"),
    (["reproduce", "fig2", "--nbar", "0.5", "--mbar", "0.5", "--bound", "-3",
      "--step", "99"], "fig2 reads no --bound"),
    (["reproduce", "fig3", "--nbar", "0.5", "--mbar", "0.5", "--step", "99"],
     "fig3 reads no --step"),
    # and flags of the oracle mode not in use: random points or one pinned point
    (["oracle", "--t", "5", "--points", "1"], "oracle at random points reads no --t"),
    (["oracle", "--g", "0.1", "--points", "3", "--seed", "5", "--t-max", "2"],
     "oracle at a pinned point reads no --points"),
    # six panels of a 2,000,001-point grid: 12,000,006 rows
    (["reproduce", "fig2", "--nbar", "0.7", "--mbar", "0.5", "--t-max", "1e5",
      "--dt", "0.05"], "fig2 rows exceed the 10000000-point limit"),
    (["reproduce", "fig3", "--nbar", "0.7", "--mbar", "0.5", "--t-max", "1e5",
      "--dt", "0.05"], "fig3 rows exceed the 10000000-point limit"),
    # a config integer no float holds, and more random oracle points than the cap
    (["propagate", "--config", "{src}/big_g.json"],
     "config key 'g' is beyond float range"),
    (["oracle", "--points", "10001"], "--points must be >= 1 and <= 10000"),
    (["oracle", "--config", "{src}/many_points.json"],
     "--points must be >= 1 and <= 10000"),
    # fig2 evaluates the observable set fig3 reads, so it refuses the same overflow
    (["reproduce", "fig2", "--mbar", "0", "--nbar", "1e307"],
     "the block fidelity overflows a float"),
], ids=("missing", "bad-cell", "bad-M", "bad-noise", "twice-column",
        "twice-key", "junk-key", "no-header", "wide-rows", "ragged-row",
        "no-fgen", "flat-record", "fgen-above-1", "grouped-M", "config-missing",
        "config-not-json",
        "config-array", "config-points-float", "config-output-number",
        "seed-flag",
        "seed-config", "oracle-seed", "outdir-is-file", "output-no-dir",
        "output-is-dir", "grid-output-is-dir", "times-nan", "times-not-numbers",
        "times-empty", "oracle-dim",
        "propagate-huge-g", "fidelity-huge-g", "fidelity-huge-nbar",
        "fig2-huge-temperature", "fig3-huge-nbar", "oracle-huge-kappa",
        "oracle-g-20", "oracle-huge-g", "oracle-huge-nbar",
        "fidelity-overflow", "fidelity-overflow-undamped",
        "propagate-overflow-undamped", "propagate-overflow",
        "fig3-overflow", "propagate-noise-overflow", "propagate-noise-underflow",
        "thermal-q0-p0", "wigner-thermal-p0", "coherent-mbar", "wigner-coherent-mbar",
        "fig1-t-max", "fig1-dt-config", "fig2-bound", "fig3-step",
        "oracle-random-t", "oracle-pinned-points",
        "fig2-rows", "fig3-rows", "config-int-beyond-float", "oracle-points-cap",
        "oracle-points-cap-config", "fig2-overflow"))
def test_bad_outside_input_exits_2_without_output(tmp_path, capsys, argv,
                                                  message):
    src = tmp_path / "src"
    src.mkdir()
    inputs = {"good.csv": _RECORD,
              "bad_row.csv": _RECORD.replace("1,0.9", "1,abc"),
              "bad_m.csv": _RECORD.replace("#M=1.0", "#M=abc"),
              "bad_noise.csv": "#noise=lots\n" + _RECORD,
              "twice_col.csv": "#M=1.0\nt,fgen,fgen\n0,1.0,1.0\n1,0.9,0.8\n",
              "twice_key.csv": "#M=2.0\n" + _RECORD,
              "junk_key.csv": "#junk\n" + _RECORD,
              "no_header.csv": "#M=1.0\n",
              "wide.csv": "#M=1.0\nt,fgen\n0,1.0,1.0\n1,0.9,0.8\n",
              "ragged.csv": "#M=1.0\nt,fgen\n0,1.0\n1,0.9,0.8\n",
              "no_fgen.csv": _RECORD.replace("fgen", "f"),
              "flat.csv": "#M=1.0\nt,fgen\n0,1.0\n1,1.0\n2,1.0\n",
              "above_one.csv": _model_record(f6=1.5),
              "grouped_m.csv": _model_record(m="1_0"),
              "open.json": "{",
              "array.json": "[1]",
              "points.json": json.dumps({"points": 1.5}),
              "output.json": json.dumps({"output": 5}),
              "seed.json": json.dumps({"seed": -2}),
              "dt.json": json.dumps({"dt": 7}),
              "big_g.json": '{"g": 1' + "0" * 400 + "}",
              "many_points.json": json.dumps({"points": 10 ** 57}),
              "wigner_t0.csv": None}  # a directory where an output would go
    for name, text in inputs.items():
        if text is None:
            (src / name).mkdir()
        else:
            (src / name).write_text(text)
    argv = [a.format(src=src) for a in argv]
    if "--outdir" not in argv:
        argv += ["--outdir", str(tmp_path / "out")]
    assert run(*argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and message in out.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]
    assert {p.name: p.read_text() if p.is_file() else None
            for p in src.iterdir()} == inputs


@pytest.mark.parametrize("content", [
    b'{"g": \xff}',  # not UTF-8
    b'{"g": 1' + b"0" * 5000 + b"}",  # past Python's int digit limit, or float range
], ids=("not-utf8", "int-digits"))
def test_config_python_cannot_read_exits_2_without_output(tmp_path, capsys,
                                                          content):
    (tmp_path / "c.json").write_bytes(content)
    assert run("propagate", "--config", tmp_path / "c.json",
               "--outdir", tmp_path / "out") == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert out.err.startswith("error: config ")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_truncation_leak_exits_1_without_output(tmp_path, capsys):
    assert run("oracle", "--dim", 8, "--g", 0.3, "--nbar", 2, "--mbar", 2,
               "--t", 5, "--outdir", tmp_path) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "error: top-level weight 0.0203 > 1e-08 in initial state at dim 8 "
        "(suggested dim: 16)"]
    assert not (tmp_path / "oracle_report.json").exists()


def test_readme_cli_examples_parse():
    readme = Path(__file__).parents[1] / "README.md"
    text = readme.read_text().replace("\\\n", " ")
    examples = [line for line in text.splitlines()
                if line.startswith("oscprobe ")]
    assert len(examples) >= 10
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])


def test_estimate_requires_variance_label(tmp_path, capsys):
    src = tmp_path / "bare.csv"
    ts = np.arange(0.0, 10.0, 0.1)
    rows = "\n".join(f"{t:.17g},1.0" for t in ts)
    src.write_text("t,fgen\n" + rows + "\n")
    assert run("estimate", "--input", src, "--outdir", tmp_path) == 2
    assert "M" in capsys.readouterr().err


def test_reproduce_fig1(tmp_path):
    assert run("reproduce", "fig1", "--outdir", tmp_path) == 0
    lobes = json.loads((tmp_path / "fig1_lobes.json").read_text())
    times = [entry["t"] for entry in lobes["times"]]
    assert times == [0.0, 3.0, 10.0, 50.0]
    for entry in lobes["times"]:
        assert entry["center_error"] < 1e-3
        assert (tmp_path / f"fig1_wigner_t{entry['t']:g}.csv").exists()
    late = lobes["times"][-1]
    assert late["separation"] == pytest.approx(4.9428, abs=0.05)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["fig1_lobes.json"] + [f"fig1_wigner_t{t:g}.csv" for t in times])


def test_reproduce_defaults_are_the_figures_own_flags(tmp_path):
    for outdir, grid in (("implicit", []),
                         ("explicit", ["--t-max", 100, "--dt", 0.05])):
        assert run("reproduce", "fig2", "--nbar", 0.5, "--mbar", 0.5, *grid,
                   "--outdir", tmp_path / outdir) == 0
    assert ((tmp_path / "implicit" / "fig2_curves.csv").read_bytes()
            == (tmp_path / "explicit" / "fig2_curves.csv").read_bytes())


def test_start_values_the_start_uses_are_accepted(tmp_path):
    assert run("propagate", "--init", "coherent", "--mbar", 0, "--q0", 1,
               "--t-max", 1, "--dt", 0.5, "--outdir", tmp_path) == 0
    assert run("wigner", "--q0", 0, "--p0", 0, "--mbar", 2, "--bound", 1,
               "--step", 0.5, "--outdir", tmp_path) == 0


@pytest.mark.parametrize("mode", ["direct-fit", "two-temperature"])
def test_estimate_refuses_records_drawn_at_one_noise_seed(tmp_path, capsys, mode):
    def record(mbar, noise, seed):
        name = f"m{mbar}_noise{noise}_seed{seed}.csv"
        assert run("propagate", "--mbar", mbar, "--noise", noise, "--seed", seed,
                   "--t-max", 10, "--dt", 0.1, "--output", name,
                   "--outdir", tmp_path) == 0
        return str(tmp_path / name)

    quiet, noisy = record(0, 0, 0), record(0, 0.01, 0)
    other, distinct = record(1, 0.01, 0), record(1, 0.01, 1)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("estimate", "--input", noisy, "--input", other, "--mode", mode,
               "--outdir", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {noisy} and {other} share noise seed 0, so their noise is "
        "identical: use distinct --seed values"]
    assert not out.exists()
    # a noiseless record draws nothing, and distinct seeds draw distinct noise
    for pair in ((quiet, other), (noisy, distinct)):
        assert run("estimate", "--input", pair[0], "--input", pair[1],
                   "--mode", mode, "--outdir", out) == 0


def test_reproduce_fig1_has_fixed_parameters(tmp_path, capsys):
    assert run("reproduce", "fig1", "--nbar", 1.0, "--outdir", tmp_path) == 2
    assert "fixed" in capsys.readouterr().err


def test_reproduce_curves_require_occupations(tmp_path, capsys):
    assert run("reproduce", "fig2", "--outdir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "nbar" in err or "temperature" in err


def test_reproduce_fig2_and_fig3(tmp_path):
    for fig in ("fig2", "fig3"):
        out = tmp_path / fig
        assert run("reproduce", fig, "--nbar", 0.5, "--mbar", 0.5,
                   "--t-max", 5, "--dt", 0.5, "--outdir", out) == 0
        assert [p.name for p in out.iterdir()] == [f"{fig}_curves.csv"]
        meta, cols = read_csv(out / f"{fig}_curves.csv")
        assert meta["nbar"] == 0.5
        assert sorted(set(cols["g"])) == [0.05, 0.1, 0.2]
        assert sorted(set(cols["kappa"])) == [0.01, 0.1]
    _, c2 = read_csv(tmp_path / "fig2" / "fig2_curves.csv")
    _, c3 = read_csv(tmp_path / "fig3" / "fig3_curves.csv")
    assert not np.array_equal(c2["value"], c3["value"])
