"""Command-line interface: outputs, config handling, exit codes."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscprobe
from oscprobe import SystemParams, estimate, fidelity_uj_blocks
from oscprobe.cli import main
from oscprobe.datafiles import read_csv


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
    cfg.write_text(json.dumps({"coupling": 0.1}))
    assert run("propagate", "--config", cfg, "--outdir", tmp_path) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_rejects_wrong_types(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"g": "strong"}))
    assert run("propagate", "--config", cfg, "--outdir", tmp_path) == 2
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("command, entries, allowed", [
    ("propagate", {"init": "Coherent", "q0": 2}, "thermal, coherent"),
    ("oracle", {"method": "euler"}, "rk, expm"),
])
def test_config_rejects_values_outside_choices(tmp_path, capsys, command,
                                                entries, allowed):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(entries))
    assert run(command, "--config", cfg, "--outdir", tmp_path) == 2
    assert allowed in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_nbar_and_temperature_conflict(tmp_path, capsys):
    assert run("propagate", "--nbar", 0.5, "--temperature", 1.0,
               "--outdir", tmp_path) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_wigner_grid_guard(tmp_path, capsys):
    assert run("wigner", "--bound", 300, "--step", 0.001,
               "--outdir", tmp_path) == 2
    assert "grid" in capsys.readouterr().err.lower()


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


def test_oracle_random_mode(tmp_path):
    assert run("oracle", "--points", 1, "--t-max", 3, "--seed", 1,
               "--outdir", tmp_path) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["pass"] is True
    assert report["n_points"] == 1
    assert report["method"] == "rk"
    assert report["points"][0]["dev_fgen"] < 1e-6
    assert report["points"][0]["dims_tried"] == [report["points"][0]["dim"]]
    assert report["points"][0]["leak_retries"] == 0


def test_oracle_explicit_point(tmp_path):
    assert run("oracle", "--g", 0.15, "--kappa", 0.08, "--nbar", 0.2,
               "--mbar", 0.4, "--t", 2.5, "--outdir", tmp_path) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["n_points"] == 1
    pt = report["points"][0]
    assert pt["g"] == 0.15 and pt["t"] == 2.5


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
    assert two["M"] == 0.5


def test_estimate_warns_when_the_fit_does_not_converge(tmp_path, monkeypatch,
                                                     capsys):
    assert run("propagate", "--g", 0.2, "--kappa", 0.1, "--nbar", 0.5,
               "--outdir", tmp_path) == 0
    args = ("estimate", "--input", tmp_path / "propagate.csv",
            "--outdir", tmp_path)
    assert run(*args) == 0
    report = json.loads((tmp_path / "estimate_report.json").read_text())
    assert report["converged"] is True and report["nfev"] > 1
    assert "warning" not in capsys.readouterr().err
    monkeypatch.setattr(estimate, "least_squares",
                        functools.partial(estimate.least_squares, max_nfev=1))
    assert run(*args) == 0
    report = json.loads((tmp_path / "estimate_report.json").read_text())
    assert report["converged"] is False and report["nfev"] == 1
    assert "did not converge" in capsys.readouterr().err


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
    # propagate and reproduce fig2 run on numpy alone ...
    assert loaded["before_estimate"] == []
    # ... and estimate still loads the optimizer on its first fit
    assert "scipy.optimize" in loaded["after_estimate"]


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
    stub = tmp_path / "fig1_plot.py"
    compile(stub.read_text(), str(stub), "exec")


def test_reproduce_fig1_has_fixed_parameters(tmp_path, capsys):
    assert run("reproduce", "fig1", "--nbar", 1.0, "--outdir", tmp_path) == 2
    assert "fixed" in capsys.readouterr().err


def test_reproduce_curves_require_occupations(tmp_path, capsys):
    assert run("reproduce", "fig2", "--outdir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "nbar" in err or "temperature" in err


def test_reproduce_fig2_and_fig3(tmp_path):
    for fig in ("fig2", "fig3"):
        assert run("reproduce", fig, "--nbar", 0.5, "--mbar", 0.5,
                   "--t-max", 5, "--dt", 0.5, "--outdir", tmp_path) == 0
        meta, cols = read_csv(tmp_path / f"{fig}_curves.csv")
        assert meta["nbar"] == 0.5
        assert sorted(set(cols["g"])) == [0.05, 0.1, 0.2]
        assert sorted(set(cols["kappa"])) == [0.01, 0.1]
        stub = tmp_path / f"{fig}_plot.py"
        compile(stub.read_text(), str(stub), "exec")
    _, c2 = read_csv(tmp_path / "fig2_curves.csv")
    _, c3 = read_csv(tmp_path / "fig3_curves.csv")
    assert not np.array_equal(c2["value"], c3["value"])
