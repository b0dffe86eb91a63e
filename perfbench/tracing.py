"""Per-layer tracing from outside the package.

`install` replaces the public entry points of each oscprobe layer, wherever
an oscprobe module holds them as attributes, with wrappers that record a
span (name, start, end, parent, and the root span of the op that caused
it). The solver counts come from the result objects of `solve_ivp` and
`least_squares` as the names are seen by `oscprobe.fock` and
`oscprobe.estimate`. Spans stay in memory and are written out by the caller
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

from oscprobe.errors import TruncationLeakError

# (module, attribute, span name); a class is given as "module:Class"
_TARGETS = [
    ("oscprobe.fock", "compare_point", "fock.compare_point"),
    ("oscprobe.fock", "evolve_thermal_blocks", "fock.evolve_thermal_blocks"),
    ("oscprobe.fock", "evolve_block", "fock.evolve_block"),
    ("oscprobe.fock", "build_operators", "fock.build_operators"),
    ("oscprobe.fock:OperatorSet", "liouvillian", "fock.liouvillian"),
    ("oscprobe.fock", "uhlmann_fidelity", "fock.uhlmann_fidelity"),
    ("oscprobe.fock", "reduced_quantities", "fock.reduced_quantities"),
    ("oscprobe.fock", "solve_ivp", "fock.solve_ivp"),
    ("oscprobe.propagator", "coherence_trace", "propagator.coherence_trace"),
    ("oscprobe.propagator", "reduced_wigner_grid", "propagator.reduced_wigner_grid"),
    ("oscprobe.fidelity", "fidelity_generalized", "fidelity.fidelity_generalized"),
    ("oscprobe.fidelity", "fidelity_gen_asymptotic_rate",
     "fidelity.fidelity_gen_asymptotic_rate"),
    ("oscprobe.fidelity", "fidelity_uj_gaussian", "fidelity.fidelity_uj_gaussian"),
    ("oscprobe.fidelity", "fidelity_uj_blocks", "fidelity.fidelity_uj_blocks"),
    ("oscprobe.fidelity", "fidelity_uj_limit", "fidelity.fidelity_uj_limit"),
    ("oscprobe.fidelity", "purity_qubit", "fidelity.purity_qubit"),
    ("oscprobe.fidelity", "purity_oscillator", "fidelity.purity_oscillator"),
    ("oscprobe.estimate", "fit_parameters", "estimate.fit_parameters"),
    ("oscprobe.estimate", "synthesize_series", "estimate.synthesize_series"),
    ("oscprobe.estimate", "least_squares", "estimate.least_squares"),
    ("oscprobe.datafiles", "write_csv", "datafiles.write_csv"),
    ("oscprobe.datafiles", "read_csv", "datafiles.read_csv"),
]

FIDELITY_SPANS = frozenset(name for _, _, name in _TARGETS
                           if name.startswith("fidelity."))

# counts that must repeat exactly from run to run at one BLAS thread count
WORK_COUNTS = ("fock.evolve_block.calls", "fock.evolve_block.leak_retries",
               "fock.rhs_evals", "estimate.nfev", "estimate.njev")

CLI_COMMANDS = ("propagate", "estimate", "fidelity", "reproduce")

# name -> (unit, better)
PER_LAYER = {
    "fock.evolve_block.calls": ("count", "lower"),
    "fock.evolve_block.leak_retries": ("count", "lower"),
    "fock.evolve_block.useful_ratio": ("ratio", "higher"),
    "fock.evolve_block.busy_s": ("s", "lower"),
    "fock.evolve_block.cpu_per_wall": ("ratio", "lower"),
    "fock.rhs_evals": ("count", "lower"),
    "fock.rhs_flop_computed": ("flop", "lower"),
    "fock.dim_mean": ("levels", "lower"),
    "fock.build.busy_ms": ("ms", "lower"),
    "fock.uhlmann_fidelity.busy_ms": ("ms", "lower"),
    "fock.reduced_quantities.busy_ms": ("ms", "lower"),
    "propagator.coherence_trace.calls": ("count", "lower"),
    "propagator.coherence_trace.us_per_point": ("us", "lower"),
    "propagator.reduced_wigner_grid.busy_ms": ("ms", "lower"),
    "fidelity.busy_ms": ("ms", "lower"),
    "estimate.fit_parameters.busy_s": ("s", "lower"),
    "estimate.fit_parameters.p50_ms": ("ms", "lower"),
    "estimate.fit_parameters.p95_ms": ("ms", "lower"),
    "estimate.nfev": ("count", "lower"),
    "estimate.njev": ("count", "lower"),
    "estimate.not_converged": ("count", "lower"),
    "estimate.synthesize_series.busy_ms": ("ms", "lower"),
    "datafiles.write_csv.busy_s": ("s", "lower"),
    "datafiles.write_csv.bytes": ("bytes", "lower"),
    "datafiles.write_csv.rows": ("count", "lower"),
    "datafiles.read_csv.busy_s": ("s", "lower"),
    "datafiles.read_csv.rows": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import.scipy_optimize_ms": ("ms", "lower"),
    "cli.import.scipy_signal_ms": ("ms", "lower"),
    **{f"cli.{c}.busy_s": ("s", "lower") for c in CLI_COMMANDS},
}


class Tracer:
    """In-memory spans and counters.

    A closed span is (id, root, parent, name, start, end) with times from
    time.perf_counter(); parent is -1 for an op's root span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict = defaultdict(float)
        self.active = True
        self._stack: list[tuple] = []
        self._next = 0
        self._blocks: list = []  # evolve_block results awaiting their report
        self._nnz = 0            # nnz of the latest generator built

    def open(self, name: str) -> None:
        sid = self._next
        self._next += 1
        if self._stack:
            root, parent = self._stack[0][0], self._stack[-1][0]
        else:
            root, parent = sid, -1
        self._stack.append((sid, root, parent, name, time.perf_counter()))

    def close(self) -> None:
        end = time.perf_counter()
        sid, root, parent, name, start = self._stack.pop()
        self.spans.append((sid, root, parent, name, start, end))

    def snapshot(self) -> dict:
        return {key: self.counts[key] for key in WORK_COUNTS}

    # --- hooks run after a wrapped call returns or raises ---

    def _after_evolve_block(self, args, result, exc, cpu):
        self.counts["fock.evolve_block.calls"] += 1
        self.counts["fock.dim_sum"] += args[0].dim
        self.counts["fock.evolve_block.cpu_s"] += cpu
        if isinstance(exc, TruncationLeakError):
            self.counts["fock.evolve_block.leak_retries"] += 1
        elif exc is None:
            self._blocks.append(result)

    def _after_evolve_thermal_blocks(self, args, result, exc, cpu):
        if exc is None:
            reported = {id(v) for k, v in result.items() if k != "dim"}
            self.counts["fock.evolve_block.useful"] += sum(
                id(b) in reported for b in self._blocks)
        self._blocks.clear()

    def _after_liouvillian(self, args, result, exc, cpu):
        if exc is None:
            self._nnz = result.nnz

    def _after_solve_ivp(self, args, result, exc, cpu):
        if exc is None:
            self.counts["fock.rhs_evals"] += result.nfev
            # one complex multiply-add (8 real flops) per stored nonzero
            self.counts["fock.rhs_flop_computed"] += 8.0 * result.nfev * self._nnz

    def _after_least_squares(self, args, result, exc, cpu):
        if exc is None:
            self.counts["estimate.nfev"] += result.nfev
            self.counts["estimate.njev"] += result.njev or 0
            self.counts["estimate.not_converged"] += result.status <= 0

    def _after_write_csv(self, args, result, exc, cpu):
        if exc is None:
            self.counts["datafiles.write_csv.bytes"] += os.path.getsize(args[0])
            self.counts["datafiles.write_csv.rows"] += len(
                next(iter(args[2].values())))

    def _after_read_csv(self, args, result, exc, cpu):
        if exc is None:
            self.counts["datafiles.read_csv.rows"] += len(
                next(iter(result[1].values())))

    # --- derived numbers ---

    def busy(self, names) -> float:
        """Summed duration of spans named in `names`, outermost ones only."""
        names = {names} if isinstance(names, str) else set(names)
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, _, parent, name, start, end in self.spans:
            if name not in names:
                continue
            while parent != -1 and by_id[parent][3] not in names:
                parent = by_id[parent][2]
            if parent == -1:
                total += end - start
        return total

    def durations(self, name: str) -> list:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def self_times(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for s in self.spans:
            if s[2] != -1:
                child[s[2]] += s[5] - s[4]
        out: dict = {}
        for sid, _, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return out


_HOOKS = {
    "fock.evolve_block": Tracer._after_evolve_block,
    "fock.evolve_thermal_blocks": Tracer._after_evolve_thermal_blocks,
    "fock.liouvillian": Tracer._after_liouvillian,
    "fock.solve_ivp": Tracer._after_solve_ivp,
    "estimate.least_squares": Tracer._after_least_squares,
    "datafiles.write_csv": Tracer._after_write_csv,
    "datafiles.read_csv": Tracer._after_read_csv,
}
_CPU_TIMED = frozenset({"fock.evolve_block"})


def _wrap(tracer: Tracer, name: str, fn):
    hook = _HOOKS.get(name)
    timed = name in _CPU_TIMED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        cpu0 = time.process_time() if timed else 0.0
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close()
            if hook is not None:
                cpu = time.process_time() - cpu0 if timed else 0.0
                hook(tracer, args, None, exc, cpu)
            raise
        tracer.close()
        if hook is not None:
            cpu = time.process_time() - cpu0 if timed else 0.0
            hook(tracer, args, result, None, cpu)
        return result

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every target wherever an oscprobe module holds it.

    oscprobe.cli is imported first so that its copies of the names are
    wrapped too. Returns the (owner, attribute, original) triples that
    `uninstall` puts back.
    """
    importlib.import_module("oscprobe.cli")
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "oscprobe" or n.startswith("oscprobe.")) and m is not None]
    undo = []
    for owner_name, attr, span in _TARGETS:
        mod_name, _, cls_name = owner_name.partition(":")
        owner = sys.modules[mod_name]
        if cls_name:
            owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr]
            undo.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, span, fn))
            continue
        fn = getattr(owner, attr)
        wrapper = _wrap(tracer, span, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def per_layer_metrics(tracer: Tracer, rounds: int, cli_import: dict) -> dict:
    """Every PER_LAYER metric; work and busy time are per round.

    Ratios whose base is zero (a layer the workload never calls) read 0.
    """
    c = tracer.counts
    busy, n = tracer.busy, rounds

    def ratio(num, den):
        return num / den if den else 0.0

    calls = c["fock.evolve_block.calls"]
    evolve_busy = busy("fock.evolve_block")
    coh_calls = len(tracer.durations("propagator.coherence_trace"))
    fits_ms = [1e3 * d for d in tracer.durations("estimate.fit_parameters")]
    out = {
        "fock.evolve_block.calls": calls / n,
        "fock.evolve_block.leak_retries": c["fock.evolve_block.leak_retries"] / n,
        "fock.evolve_block.useful_ratio": ratio(c["fock.evolve_block.useful"], calls),
        "fock.evolve_block.busy_s": evolve_busy / n,
        "fock.evolve_block.cpu_per_wall": ratio(c["fock.evolve_block.cpu_s"],
                                                evolve_busy),
        "fock.rhs_evals": c["fock.rhs_evals"] / n,
        "fock.rhs_flop_computed": c["fock.rhs_flop_computed"] / n,
        "fock.dim_mean": ratio(c["fock.dim_sum"], calls),
        "fock.build.busy_ms": 1e3 * busy({"fock.build_operators",
                                          "fock.liouvillian"}) / n,
        "fock.uhlmann_fidelity.busy_ms": 1e3 * busy("fock.uhlmann_fidelity") / n,
        "fock.reduced_quantities.busy_ms": 1e3 * busy("fock.reduced_quantities") / n,
        "propagator.coherence_trace.calls": coh_calls / n,
        "propagator.coherence_trace.us_per_point": 1e6 * ratio(
            busy("propagator.coherence_trace"), coh_calls),
        "propagator.reduced_wigner_grid.busy_ms":
            1e3 * busy("propagator.reduced_wigner_grid") / n,
        "fidelity.busy_ms": 1e3 * busy(FIDELITY_SPANS) / n,
        "estimate.fit_parameters.busy_s": busy("estimate.fit_parameters") / n,
        "estimate.fit_parameters.p50_ms": (
            statistics.median(fits_ms) if fits_ms else 0.0),
        "estimate.fit_parameters.p95_ms": (
            statistics.quantiles(fits_ms, n=20, method="inclusive")[18]
            if len(fits_ms) > 1 else 0.0),
        "estimate.nfev": c["estimate.nfev"] / n,
        "estimate.njev": c["estimate.njev"] / n,
        "estimate.not_converged": c["estimate.not_converged"] / n,
        # input synthesis happens once, in set-up, so it is not per round
        "estimate.synthesize_series.busy_ms":
            1e3 * busy("estimate.synthesize_series"),
        "datafiles.write_csv.busy_s": busy("datafiles.write_csv") / n,
        "datafiles.write_csv.bytes": c["datafiles.write_csv.bytes"] / n,
        "datafiles.write_csv.rows": c["datafiles.write_csv.rows"] / n,
        "datafiles.read_csv.busy_s": busy("datafiles.read_csv") / n,
        "datafiles.read_csv.rows": c["datafiles.read_csv.rows"] / n,
        **cli_import,
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.busy_s"] = busy(f"cli.{cmd}") / n
    return out
