#!/usr/bin/env python3
"""Benchmark for oscprobe: three workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and uses the package in ./src. A run
repeats whole rounds of the workload's ops while the next round is expected
to end within S seconds (at least one round), checks every round's outputs,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are END_TO_END; with --trace 1 they are the
per-layer metrics of tracing.PER_LAYER, from a run whose layer entry points
are wrapped, and the spans go to perfbench/out/trace-<workload>-seed<N>.json.
Progress and the environment go to stderr. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("oracle_sweep", "thermometry_fits", "cli_roundtrip")
SETUP_PROBES = 5   # fresh interpreters per run; setup_s is their median
IMPORT_PROBES = 3  # fresh interpreters per traced run for the cli.import metrics

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # build the inputs and exit
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_threads() -> dict:
    """OpenBLAS thread counts of the libraries bundled with numpy and scipy."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("lib*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")},
    }


# --- ops -------------------------------------------------------------------


class CliProcesses:
    """Runs each cli op as `python -m oscprobe.cli ...` in a fresh interpreter."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.peak_kb = 0

    def __call__(self, op) -> int:
        with open(self.workdir / "stderr.txt", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "oscprobe.cli", *op.info["argv"]],
                cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if proc.returncode:
            sys.stderr.write((self.workdir / "stderr.txt").read_text())
        return proc.returncode


def cli_in_process(op) -> int:
    from oscprobe.cli import main
    with redirect_stdout(StringIO()):
        try:
            return main(op.info["argv"])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def call_op(op):
    return op.call()


@dataclass
class Round:
    wall: float
    cpu: float
    ops: int
    check: object  # workloads.RoundCheck


def run_round(workload, call) -> Round:
    results = []
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    for op in workload.ops:
        try:
            results.append(call(op))
        except Exception as exc:  # a failed op is counted, the run goes on
            traceback.print_exc()
            results.append(exc)
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    return Round(wall, cpu, len(results), workload.check_round(results))


def measure(workload, seconds: float, call, after_round=None) -> list:
    """Whole rounds while the next one is expected to end within `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, call))
        if after_round is not None:
            after_round()
        r = rounds[-1]
        print(f"round {len(rounds)}: {r.ops} ops, wall {r.wall:.3f} s, "
              f"cpu {r.cpu:.3f} s, failed {r.check.failed}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(x.wall for x in rounds) > seconds:
            return rounds


def outcome(rounds: list, metrics: dict, units: dict) -> dict:
    problems = [p for r in rounds for p in r.check.problems]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.check.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }


# --- the two kinds of run --------------------------------------------------


def setup_probe_seconds(args) -> float:
    """Process start to exit of a fresh interpreter that only sets up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def timed_run(args, workdir: Path) -> dict:
    import workloads
    setup = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
    wl = workloads.build(args.workload, args.seed, workdir)
    cli = args.workload == "cli_roundtrip"
    call = CliProcesses(workdir) if cli else call_op
    rounds = measure(wl, args.seconds, call)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if cli:
        peak_kb = max(peak_kb, call.peak_kb)
    return outcome(rounds, {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall for r in rounds),
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "peak_rss_mb": peak_kb / 1024.0,
    }, END_TO_END)


def cli_import_metrics() -> dict:
    """Fresh-interpreter import of oscprobe.cli: wall time and -X importtime."""
    env = child_env()
    code = ("import time; t = time.perf_counter(); import oscprobe.cli; "
            "print(time.perf_counter() - t)")
    plain, cumulative = [], {"scipy.optimize": [], "scipy.signal": []}
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        plain.append(float(out.stdout))
        out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import oscprobe.cli"], env=env,
                             capture_output=True, text=True, check=True)
        seen = {}
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1])
        for name, values in cumulative.items():
            values.append(seen.get(name, 0) / 1e3)
    return {"cli.import_s": statistics.median(plain),
            "cli.import.scipy_optimize_ms": statistics.median(cumulative["scipy.optimize"]),
            "cli.import.scipy_signal_ms": statistics.median(cumulative["scipy.signal"])}


def traced_run(args, workdir: Path) -> dict:
    import tracing
    import workloads
    cli_import = cli_import_metrics()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        cli = args.workload == "cli_roundtrip"
        untraced_wall = None
        if cli:
            # the traced cli round runs in process, so its overhead is taken
            # against one untraced in-process round
            tracer.active = False
            untraced_wall = run_round(wl, cli_in_process).wall
            tracer.active = True

        def traced_call(op):
            tracer.open(f"cli.{op.info['argv'][0]}" if cli else f"op.{wl.name}")
            try:
                return cli_in_process(op) if cli else op.call()
            finally:
                tracer.close()

        counts = []
        rounds = measure(wl, args.seconds, traced_call,
                         after_round=lambda: counts.append(tracer.snapshot()))
    finally:
        tracing.uninstall(undo)
    per_round = [{k: c[k] - (counts[i - 1][k] if i else 0.0) for k in c}
                 for i, c in enumerate(counts)]
    if any(pr != per_round[0] for pr in per_round):
        print(f"WORK COUNTS DIFFER BETWEEN ROUNDS: {per_round}", file=sys.stderr)
    traced_wall = statistics.median(r.wall for r in rounds)
    print(f"traced wall per round {traced_wall:.4f} s"
          + (f", untraced in-process round {untraced_wall:.4f} s"
             if untraced_wall else ""), file=sys.stderr)
    t0 = tracer.spans[0][4] if tracer.spans else 0.0
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "environment": environment(),
        "rounds": len(rounds), "round_wall_s": [r.wall for r in rounds],
        "untraced_in_process_round_wall_s": untraced_wall,
        "work_counts_per_round": per_round,
        "self_time": tracer.self_times(),
        "span_fields": ["id", "root", "parent", "name", "start_s", "end_s"],
        "spans": [[i, root, parent, name, start - t0, end - t0]
                  for i, root, parent, name, start, end in tracer.spans],
    }))
    return outcome(rounds, tracing.per_layer_metrics(tracer, len(rounds), cli_import),
                   tracing.PER_LAYER)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oscprobe" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'oscprobe'} not found; run from "
              "the root of an oscprobe checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oscprobe
    if Path(oscprobe.__file__).resolve().parent != (SRC / "oscprobe").resolve():
        print(f"error: imported {oscprobe.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        if args.workload == "cli_roundtrip":
            import oscprobe.cli  # noqa: F401  the cli ops pay this import
        import workloads
        workloads.build(args.workload, args.seed, OUT)
        return 0
    print(f"environment: {json.dumps(environment())}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = traced_run if args.trace else timed_run
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
