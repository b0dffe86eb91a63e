"""Command-line tools around the closed forms, the oracle, and the estimator.

Commands:
  propagate   coherence trace, fidelities, purities on a time grid -> CSV
  wigner      reduced Wigner grids at chosen times -> CSV per time
  fidelity    generalized/Uhlmann-Jozsa fidelity and purity curves -> CSV
  oracle      truncated-basis cross-check of the closed forms -> JSON report
  estimate    fit (g, kappa, N) to recorded coherence curves -> JSON report
  reproduce   canned datasets fig1 | fig2 | fig3 -> CSV (+ JSON lobes for fig1)

Shared behavior:
  * model flags --g --kappa --delta --mbar and --nbar xor --temperature;
  * --config FILE: flat JSON whose keys are the flag dests (t_max, a01_re)
    and override the flags; keys, types and choices are read off the parser,
    and anything outside them is rejected;
  * --outdir DIR, defaulting to $OSCPROBE_OUTDIR, then the current directory;
  * all outputs are deterministic: a rerun with equal inputs is byte-identical
    (randomness only enters through explicit --seed values);
  * run as a program, a command starts on one OpenBLAS thread unless
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set;
    importing this module changes no thread setting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

if __name__ == "__main__":  # the thread default must precede numpy
    from . import _one_blas_thread
    _one_blas_thread()

import numpy as np

from .datafiles import read_csv, write_csv, write_grid_csv, write_json
from .errors import ConfigError, OscprobeError, TruncationLeakError
from .estimate import CoherenceSeries, fit_parameters, synthesize_series
from .fidelity import _curve_columns, fidelity_uj_limit
from .fock import (MAX_DIM, OracleConfig, compare_point,
                   sample_comparison_points)
from .phase_space import (GaussianState, QubitInitState, SystemParams,
                          occupation_from_temperature)
from .propagator import (coherence_trace, displacement_vector,
                         reduced_wigner_grid, wigner_lobe_centers)

MAX_GRID_POINTS = 10_000_000
MAX_ORACLE_POINTS = 10_000  # random oracle points, ~37 ms of solve (~47 ms in all) each
# pass bound of the oracle report on each deviation
ORACLE_TOLERANCES = {"dev_fgen": 1e-6, "dev_fuj": 1e-5, "dev_coherence": 1e-6,
                     "dev_purity_qubit": 1e-6, "dev_purity_oscillator": 1e-6}

def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--nbar", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None,
                   help="bath temperature, converted to nbar; exclusive with --nbar")
    p.add_argument("--mbar", type=float, default=None)


def _add_qubit_flags(p: argparse.ArgumentParser):
    p.add_argument("--a00", type=float, default=0.5)
    p.add_argument("--a01-re", dest="a01_re", type=float, default=0.5)
    p.add_argument("--a01-im", dest="a01_im", type=float, default=0.0)


def _add_init_flags(p: argparse.ArgumentParser):
    p.add_argument("--init", choices=("thermal", "coherent"), default="thermal")
    p.add_argument("--q0", type=float, default=0.0)
    p.add_argument("--p0", type=float, default=0.0)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None,
                   help="JSON file whose entries override the flags")
    p.add_argument("--outdir", type=str, default=None,
                   help="output directory (default $OSCPROBE_OUTDIR or '.')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscprobe",
        description="qubit-probed damped oscillator: propagation, fidelities, "
                    "oracle cross-checks, parameter estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="coherence and fidelity record -> CSV")
    _add_param_flags(p)
    _add_qubit_flags(p)
    _add_init_flags(p)
    p.add_argument("--t-max", dest="t_max", type=float, default=30.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--noise", type=float, default=0.0,
                   help="multiplicative noise level on the fidelity column")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default="propagate.csv")
    _add_common_flags(p)

    p = sub.add_parser("fidelity", help="fidelity and purity curves -> CSV")
    _add_param_flags(p)
    _add_qubit_flags(p)
    p.add_argument("--t-max", dest="t_max", type=float, default=50.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--output", type=str, default="fidelity.csv")
    _add_common_flags(p)

    p = sub.add_parser("wigner", help="reduced Wigner grids -> CSV per time")
    _add_param_flags(p)
    _add_qubit_flags(p)
    _add_init_flags(p)
    p.add_argument("--times", type=str, default="0",
                   help="comma-separated evaluation times")
    p.add_argument("--bound", type=float, default=8.0)
    p.add_argument("--step", type=float, default=0.05)
    _add_common_flags(p)

    p = sub.add_parser("oracle", help="truncated-basis cross-check -> JSON")
    _add_param_flags(p)
    p.add_argument("--points", type=int, default=None,
                   help="number of random comparison points (default 4, "
                        f"at most {MAX_ORACLE_POINTS})")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--t", type=float, default=None,
                   help="time of the point that model flags pin (default 10)")
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--dim", type=int, default=None,
                   help="fixed number-basis size; by default each point is "
                        "sized from a closed-form bound on its tail and "
                        "doubled (at most twice) if the level guard trips; "
                        "either way the coherence band |m - n| <= K it "
                        "integrates is sized per point and K doubled, up to "
                        f"dim - 1, if the band guard trips; at most {MAX_DIM}")
    p.add_argument("--output", type=str, default="oracle_report.json")
    _add_common_flags(p)

    p = sub.add_parser("estimate", help="fit parameters to coherence CSVs")
    p.add_argument("--input", action="append", required=True,
                   help="CSV produced by `propagate` (repeatable)")
    p.add_argument("--mode", choices=("direct-fit", "two-temperature"),
                   default="direct-fit")
    p.add_argument("--output", type=str, default="estimate_report.json")
    _add_common_flags(p)

    p = sub.add_parser("reproduce", help="canned figure datasets")
    p.add_argument("figure", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--nbar", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--mbar", type=float, default=None)
    for flag in ("--t-max", "--dt", "--bound", "--step"):  # see cmd_reproduce
        p.add_argument(flag, type=float, default=None)
    _add_common_flags(p)

    return parser


def _config_schema(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> (type, choices) of every valued flag of `command`.

    --config and --outdir are left out; a flag without a type takes a string.
    """
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return {a.dest: (a.type or str, a.choices) for a in sub._actions
            if isinstance(a, argparse._StoreAction) and a.option_strings
            and a.dest not in ("config", "outdir")}


# flag type -> (the JSON kinds a config value of that flag may take, their name)
_CONFIG_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"),
                 str: (str, "a string")}


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Merge --config JSON over the parsed flags (config wins)."""
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    try:
        data = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except ValueError as err:  # also not UTF-8, or an int past the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    allowed = _config_schema(parser, args.command)
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown config key {key!r} for command {args.command!r}")
        want, choices = allowed[key]
        kinds, kind_name = _CONFIG_KINDS[want]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(f"config key {key!r} must be {kind_name}")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"config key {key!r} must be one of {', '.join(choices)}")
        try:
            setattr(args, key, want(value))
        except OverflowError as err:
            raise ConfigError(f"config key {key!r} is beyond float range") from err


def _resolve_nbar(args) -> float:
    if args.nbar is not None and args.temperature is not None:
        raise ConfigError("--nbar and --temperature are mutually exclusive")
    if args.temperature is not None:
        return occupation_from_temperature(args.temperature)
    return args.nbar if args.nbar is not None else 0.0


def _build_params(args) -> SystemParams:
    """The model flags, with g = kappa = 0.1 and mbar = 0 where not given."""
    g, kappa, mbar = (default if value is None else value for value, default in
                      ((args.g, 0.1), (args.kappa, 0.1), (args.mbar, 0.0)))
    return SystemParams(g=g, kappa=kappa, delta=args.delta,
                        nbar=_resolve_nbar(args), mbar=mbar)


def _build_qubit(args) -> QubitInitState:
    return QubitInitState(args.a00, 1.0 - args.a00,
                          complex(args.a01_re, args.a01_im))


def _build_init(args, params: SystemParams) -> GaussianState:
    if args.init == "coherent":  # a start value the start ignores is refused
        if args.mbar:
            raise ConfigError("--init coherent starts at M = 1/2; omit --mbar")
        return GaussianState.coherent(args.q0, args.p0)
    if args.q0 or args.p0:
        raise ConfigError("--init thermal starts at the origin; omit --q0 and --p0")
    return GaussianState.thermal(params.mbar)


def _outdir(args) -> Path:
    name = args.outdir or os.environ.get("OSCPROBE_OUTDIR") or "."
    path = Path(name)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot use output directory {path}: {err}") from err
    return path


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    if not (math.isfinite(t_max) and t_max >= dt > 0.0):
        raise ConfigError("need finite t_max >= dt > 0")
    stop = t_max + 0.5 * dt
    if stop / dt > MAX_GRID_POINTS:  # np.arange makes ceil(stop / dt) points
        raise ConfigError(f"time grid exceeds the {MAX_GRID_POINTS}-point limit")
    return np.arange(0.0, stop, dt)


def _qubit_metadata(qubit: QubitInitState) -> dict:
    return {"a00": qubit.a00, "a01_re": qubit.a01.real, "a01_im": qubit.a01.imag}


def cmd_propagate(args) -> int:
    if not (math.isfinite(args.noise) and args.noise >= 0.0):
        raise ConfigError("--noise must be finite and >= 0")
    params = _build_params(args)
    qubit = _build_qubit(args)
    init = _build_init(args, params)
    times = _time_grid(args.t_max, args.dt)
    coh = coherence_trace(times, params, init)
    cols = _curve_columns(times, params, init, qubit)
    if args.noise > 0.0:
        # the center enters only the phase, so F is that of a thermal start
        noisy = synthesize_series(params, init.cov.s11, times, args.noise,
                                  np.random.default_rng(args.seed)).fgen
        # keep |coherence|^2 == fgen exact in the emitted record
        coh = coh * np.sqrt(noisy / cols["fgen"])
        cols["fgen"] = noisy
    meta = {**asdict(params), "M": init.cov.s11, **_qubit_metadata(qubit),
            "init": args.init, "q0": args.q0, "p0": args.p0,
            "noise": args.noise, "seed": args.seed}
    out = _outdir(args) / args.output
    write_csv(out, meta, {"t": times, "coherence_re": coh.real,
                          "coherence_im": coh.imag, **cols})
    print(f"wrote {out}")
    return 0


def cmd_fidelity(args) -> int:
    params = _build_params(args)
    qubit = _build_qubit(args)
    times = _time_grid(args.t_max, args.dt)
    meta = {**asdict(params), "M": params.M, **_qubit_metadata(qubit),
            "fuj_limit": fidelity_uj_limit(params)}
    cols = _curve_columns(times, params, GaussianState.thermal(params.mbar), qubit)
    out = _outdir(args) / args.output
    write_csv(out, meta, {"t": times, **cols})
    print(f"wrote {out}")
    return 0


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"cannot parse times {text!r}") from err
    if not times:
        raise ConfigError("no evaluation times given")
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ConfigError("times must be finite and >= 0")
    return times


def _axis(bound: float, step: float) -> np.ndarray:
    if not (math.isfinite(bound) and 0.0 < step <= bound):
        raise ConfigError("need finite bound > 0 and 0 < step <= bound")
    stop = bound + 0.5 * step
    # np.arange makes n = ceil((stop + bound) / step) points per axis, and
    # n^2 exceeds the limit exactly when n exceeds its integer square root
    if (stop + bound) / step > math.isqrt(MAX_GRID_POINTS):
        raise ConfigError(f"grid exceeds the {MAX_GRID_POINTS}-point limit")
    return np.arange(-bound, stop, step)


def _write_wigner(out: Path, qs, t: float, params: SystemParams,
                  init: GaussianState, qubit: QubitInitState, args,
                  extra: dict) -> np.ndarray:
    """Reduced Wigner grid on qs x qs at time t -> CSV (q varies fastest)."""
    w = reduced_wigner_grid(qs, qs, t, params, init, qubit)
    meta = {**asdict(params), "t": t, "bound": args.bound,
            "step": args.step, **_qubit_metadata(qubit), **extra,
            "grid_integral": float(np.sum(w)) * args.step ** 2}
    write_grid_csv(out, meta, qs, qs, w)
    print(f"wrote {out}")
    return w


def cmd_wigner(args) -> int:
    params = _build_params(args)
    qubit = _build_qubit(args)
    init = _build_init(args, params)
    times = _parse_times(args.times)
    names = [f"wigner_t{t:g}.csv" for t in times]
    if len(set(names)) < len(names):
        raise ConfigError(f"--times {args.times!r} repeat a file name")
    qs = _axis(args.bound, args.step)
    outdir = _outdir(args)
    extra = {"init": args.init, "q0": args.q0, "p0": args.p0}
    for name, t in zip(names, times):
        _write_wigner(outdir / name, qs, t, params, init, qubit, args, extra)
    return 0


def _fill_or_refuse(args, keys, own: dict, reader: str) -> None:
    """Fill each flag of keys not given from own; refuse a given one not in own."""
    for key in keys:
        if getattr(args, key) is None:
            setattr(args, key, own.get(key))
        elif key not in own:
            raise ConfigError(f"{reader} reads no --{key.replace('_', '-')}")


def cmd_oracle(args) -> int:
    explicit = any(getattr(args, key) is not None
                   for key in ("g", "kappa", "nbar", "temperature", "mbar"))
    mode, own = (("a pinned point", {"t": 10.0}) if explicit else
                 ("random points", {"points": 4, "seed": 0, "t_max": 20.0}))
    _fill_or_refuse(args, ("points", "seed", "t_max", "t"), own, f"oracle at {mode}")
    if explicit:
        points = [(_build_params(args), args.t)]
    elif not 1 <= args.points <= MAX_ORACLE_POINTS:
        raise ConfigError(f"--points must be >= 1 and <= {MAX_ORACLE_POINTS}")
    else:
        points = sample_comparison_points(args.points, args.seed,
                                          t_max=args.t_max, delta=args.delta)
    config, qubit = OracleConfig(dim=args.dim), QubitInitState.balanced()
    results, log = [], []
    for i, (params, t) in enumerate(points, 1):
        start = time.perf_counter()
        row = compare_point(params, qubit, config, t)
        log.append(f"oracle point {i}/{len(points)}: dim {row['dim']}, band "
                   f"{row['band']}, dims tried {row['dims_tried']}, rhs_evals "
                   f"{row['rhs_evals']}, "
                   f"{1e3 * (time.perf_counter() - start):.1f} ms")
        results.append({**row, **asdict(params)})
    maxdev = {k: max(row[k] for row in results) for k in ORACLE_TOLERANCES}
    ok = all(maxdev[k] <= bound for k, bound in ORACLE_TOLERANCES.items())
    report = {
        "points": results,
        "max_deviation": maxdev,
        "tolerances": ORACLE_TOLERANCES,
        "seed": args.seed,
        "n_points": len(points),
        "pass": ok,
    }
    out = _outdir(args) / args.output
    write_json(out, report)
    # timings go to stderr, once the report is written, so a refusal stays
    # one error line and the report stays byte-deterministic
    print("\n".join(log), file=sys.stderr)
    status = "PASS" if ok else "FAIL"
    worst = max(maxdev.values())
    print(f"oracle {status}: {len(points)} points, worst deviation {worst:.3g} "
          f"(report: {out})")
    return 0 if ok else 1


def _nan_to_none(x):
    """x with each NaN float, also inside a dict, as None (null in the JSON)."""
    if isinstance(x, dict):
        return {k: _nan_to_none(v) for k, v in x.items()}
    return None if isinstance(x, float) and math.isnan(x) else x


def _header_float(value, key: str, source: str) -> float | None:
    if isinstance(value, str):
        raise ConfigError(f"{source}: header value {key}={value!r} is not a number")
    return None if value is None else float(value)


def cmd_estimate(args) -> int:
    series, drawn = [], {}  # noise seed -> the record drawn at it
    for name in args.input:
        meta, cols = read_csv(name)
        if "t" not in cols or "fgen" not in cols:
            raise ConfigError(f"{name}: needs 't' and 'fgen' columns")
        noise = _header_float(meta.get("noise") or None, "noise", name)
        seed = meta.get("seed") if (noise or 0.0) > 0.0 else None
        if seed is not None and seed in drawn:
            raise ConfigError(f"{drawn[seed]} and {name} share noise seed {seed}, so "
                              "their noise is identical: use distinct --seed values")
        drawn[seed] = name
        series.append(CoherenceSeries(
            times=cols["t"], fgen=np.minimum(cols["fgen"], 1.0),
            M=_header_float(meta.get("M"), "M", name), noise=noise))
    report = fit_parameters(series, mode=args.mode)
    # undefined values are NaN in the report and null in the JSON
    payload = _nan_to_none({**asdict(report), "nbar": report.nbar, "mbar": report.mbar,
                            "inputs": [Path(name).name for name in args.input]})
    out = _outdir(args) / args.output
    write_json(out, payload)
    if not report.converged:
        print(f"warning: the {report.method} fit did not converge after "
              f"{report.nfev} residual and {report.njev} Jacobian evaluations",
              file=sys.stderr)
    print(f"estimate ({report.method}): g={report.g:.6g} kappa={report.kappa:.6g} "
          f"M={report.M:.6g} N={report.N:.6g} (report: {out})")
    return 0


_FIG1_TIMES = (0.0, 3.0, 10.0, 50.0)


def _reproduce_fig1(args) -> int:
    if args.nbar is not None or args.temperature is not None or args.mbar is not None:
        raise ConfigError("fig1 parameters are fixed; omit --nbar/--temperature/--mbar")
    params = SystemParams(g=2.5, kappa=0.1, delta=0.0,
                          nbar=occupation_from_temperature(1.0), mbar=0.0)
    outdir = _outdir(args)
    qubit = QubitInitState.balanced()
    init = GaussianState.thermal(params.mbar)
    qs = _axis(args.bound, args.step)
    lobes = []
    for t in _FIG1_TIMES:
        w = _write_wigner(outdir / f"fig1_wigner_t{t:g}.csv", qs, t, params,
                          init, qubit, args, {})
        peak_a, peak_b = wigner_lobe_centers(qs, qs, w)
        d = displacement_vector(t, params).as_array()
        up, down = -0.5 * d, 0.5 * d
        # match extracted peaks to the analytic centers by distance
        if (np.linalg.norm(peak_a - up) + np.linalg.norm(peak_b - down)
                > np.linalg.norm(peak_a - down) + np.linalg.norm(peak_b - up)):
            peak_a, peak_b = peak_b, peak_a
        err = max(float(np.linalg.norm(peak_a - up)),
                  float(np.linalg.norm(peak_b - down)))
        lobes.append({
            "t": t,
            "lobe_up": list(peak_a),
            "lobe_down": list(peak_b),
            "analytic_up": list(up),
            "analytic_down": list(down),
            "center_error": err,
            "separation": float(np.linalg.norm(peak_a - peak_b)),
            "analytic_separation": float(np.linalg.norm(d)),
        })
    write_json(outdir / "fig1_lobes.json", {"times": lobes})
    print(f"wrote {outdir / 'fig1_lobes.json'}")
    return 0


def _reproduce_curves(args, figure: str) -> int:
    if args.mbar is None or (args.nbar is None and args.temperature is None):
        raise ConfigError(
            f"{figure} needs --mbar and --nbar (or --temperature): the panel "
            "temperatures are required inputs")
    nbar = _resolve_nbar(args)
    times = _time_grid(args.t_max, args.dt)
    panels = [(g, kappa) for g in (0.05, 0.1, 0.2) for kappa in (0.01, 0.1)]
    if len(panels) * times.size > MAX_GRID_POINTS:
        raise ConfigError(f"{figure} rows exceed the {MAX_GRID_POINTS}-point limit")
    quantity, values = "fgen" if figure == "fig2" else "fuj", []
    for g, kappa in panels:
        params = SystemParams(g=g, kappa=kappa, delta=0.0, nbar=nbar,
                              mbar=args.mbar)
        values.append(_curve_columns(times, params, GaussianState.thermal(args.mbar),
                                     QubitInitState.balanced())[quantity])
    col_g, col_k = np.repeat(panels, times.size, axis=0).T
    meta = {"figure": figure, "nbar": nbar, "mbar": args.mbar, "M": params.M,
            "quantity": quantity}
    out = _outdir(args) / f"{figure}_curves.csv"
    write_csv(out, meta, {"g": col_g, "kappa": col_k,
                          "t": np.tile(times, len(panels)),
                          "value": np.concatenate(values)})
    print(f"wrote {out}")
    return 0


def cmd_reproduce(args) -> int:
    # before any output directory: fill in the figure's grid flags, refuse the rest
    _fill_or_refuse(args, ("t_max", "dt", "bound", "step"),
                    {"bound": 8.0, "step": 0.05} if args.figure == "fig1"
                    else {"t_max": 100.0, "dt": 0.05}, args.figure)
    if args.figure == "fig1":
        return _reproduce_fig1(args)
    return _reproduce_curves(args, args.figure)


_COMMANDS = {
    "propagate": cmd_propagate,
    "fidelity": cmd_fidelity,
    "wigner": cmd_wigner,
    "oracle": cmd_oracle,
    "estimate": cmd_estimate,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        if (getattr(args, "seed", None) or 0) < 0:
            raise ConfigError("--seed must be >= 0")
        return _COMMANDS[args.command](args)
    except TruncationLeakError as err:
        print(f"error: {err} (suggested dim: {err.suggested_dim})",
              file=sys.stderr)
        return 1
    except OscprobeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
