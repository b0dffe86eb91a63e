"""Fast checks of the benchmark's own plumbing (no workload is run)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oscprobe import (GaussianState, OracleConfig, QubitInitState,  # noqa: E402
                      SystemParams, compare_point, fidelity_generalized)
import oscprobe.fock  # noqa: E402


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_quadrature_reference_matches_closed_form():
    p = SystemParams(g=0.2, kappa=0.07, nbar=0.8, mbar=0.3)
    ts = np.array([0.0, 0.5, 3.0, 17.0, 60.0])
    want = -np.log(fidelity_generalized(ts, p, GaussianState.thermal(p.mbar)))
    got = workloads.neg_log_fgen_reference(ts, p.g, p.kappa, p.M, p.N)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-14)


def test_detuned_phase_drift_counts_as_failed_not_incorrect():
    sweep = workloads.OracleSweep(seed=3)
    good = {"dim": 40, "dev_fgen": 1e-9, "dev_fuj": 1e-8,
            "dev_purity_qubit": 1e-9, "dev_purity_oscillator": 1e-9}
    results = []
    for op in sweep.ops:
        if op.info["detuned"]:
            results.append({**good, "dev_coherence_magnitude": 1e-10,
                            "phase_rate_offset": 0.5 * workloads.DETUNING})
        else:
            results.append({**good, "dev_coherence": 1e-10})
    check = sweep.check_round(results)
    assert (check.failed, check.problems) == (4, [])
    results[0] = {**results[0], "dev_fuj": 1e-3}
    assert sweep.check_round(results).problems


def test_busy_counts_outermost_spans_and_self_time():
    tr = tracing.Tracer()
    # op(0..10) > a(1..5) > a(2..3); op > b(6..8)
    tr.spans = [(2, 0, 1, "a", 2.0, 3.0), (1, 0, 0, "a", 1.0, 5.0),
                (3, 0, 0, "b", 6.0, 8.0), (0, 0, -1, "op", 0.0, 10.0)]
    assert tr.busy("a") == 4.0
    assert tr.busy({"a", "b"}) == 6.0
    st = tr.self_times()
    assert st["op"]["self_s"] == 4.0 and st["a"]["self_s"] == 4.0
    assert st["a"]["calls"] == 2


def test_install_counts_one_oracle_point_and_uninstalls():
    original = oscprobe.fock.evolve_block
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        assert oscprobe.fock.evolve_block is not original
        params = SystemParams(g=0.03, kappa=0.14, nbar=0.5, mbar=0.5)
        compare_point(params, QubitInitState.balanced(), OracleConfig(dim=30), 1.0)
    finally:
        tracing.uninstall(undo)
    assert oscprobe.fock.evolve_block is original
    m = tracing.per_layer_metrics(tr, 1, {})
    assert m["fock.evolve_block.calls"] == 3
    assert m["fock.evolve_block.useful_ratio"] == 1.0
    assert m["fock.rhs_evals"] > 0 and m["fock.rhs_flop_computed"] > 0
    assert m["propagator.coherence_trace.calls"] == 1
    assert set(m) | {"cli.import_s", "cli.import.scipy_optimize_ms",
                     "cli.import.scipy_signal_ms"} == set(tracing.PER_LAYER)


def test_read_table_parses_metadata_and_rows(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("#g=0.1\n#init=thermal\nt,fgen\n0,1\n0.5,0.25\n")
    meta, names, rows = workloads.read_table(path)
    assert meta == {"g": "0.1", "init": "thermal"}
    assert names == ["t", "fgen"]
    assert rows.tolist() == [[0.0, 1.0], [0.5, 0.25]]
