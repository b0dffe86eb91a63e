"""Command-line tools around the closed forms, the oracle, and the estimator.

Commands:
  propagate   coherence trace, fidelities, purities on a time grid -> CSV
  wigner      reduced Wigner grids at chosen times -> CSV per time
  fidelity    generalized/Uhlmann-Jozsa fidelity and purity curves -> CSV
  oracle      truncated-basis cross-check of the closed forms -> JSON report
  estimate    fit (g, kappa, N) to recorded coherence curves -> JSON report
  reproduce   canned datasets fig1 | fig2 | fig3 -> CSV + plotting stub

Shared behavior:
  * model flags --g --kappa --delta --mbar and --nbar xor --temperature;
  * --config FILE: flat JSON whose keys are the flag dests (t_max, a01_re)
    and override the flags; keys, types and choices are read off the parser,
    and anything outside them is rejected;
  * --outdir DIR, defaulting to $OSCPROBE_OUTDIR, then the current directory;
  * all outputs are deterministic: a rerun with equal inputs is byte-identical
    (randomness only enters through explicit --seed values).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .datafiles import read_csv, write_csv, write_json
from .errors import ConfigError, OscprobeError, TruncationLeakError
from .estimate import CoherenceSeries, fit_parameters
from .fidelity import (fidelity_generalized, fidelity_uj_blocks,
                       fidelity_uj_limit, purity_oscillator, purity_qubit)
from .fock import OracleConfig, compare_point, sample_comparison_points
from .phase_space import (GaussianState, QubitInitState, SystemParams,
                          occupation_from_temperature)
from .propagator import (coherence_trace, displacement_vector,
                         reduced_wigner_grid, wigner_lobe_centers)

MAX_GRID_POINTS = 10_000_000

def _add_param_flags(p: argparse.ArgumentParser, defaults: bool = True):
    p.add_argument("--g", type=float, default=0.1 if defaults else None)
    p.add_argument("--kappa", type=float, default=0.1 if defaults else None)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--nbar", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None,
                   help="bath temperature, converted to nbar; exclusive with --nbar")
    p.add_argument("--mbar", type=float, default=0.0 if defaults else None)


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
    _add_param_flags(p, defaults=False)
    p.add_argument("--points", type=int, default=4,
                   help="number of random comparison points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=float, default=10.0,
                   help="evaluation time when model flags pin a single point")
    p.add_argument("--t-max", dest="t_max", type=float, default=20.0)
    p.add_argument("--dim", type=int, default=None,
                   help="fixed number-basis size; by default each point is "
                        "sized from a closed-form bound on its tail and "
                        "doubled (at most twice) if the leak guard trips")
    p.add_argument("--method", choices=("rk", "expm"), default="rk")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-10)
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=1e-12)
    p.add_argument("--tol-fgen", dest="tol_fgen", type=float, default=1e-6)
    p.add_argument("--tol-fuj", dest="tol_fuj", type=float, default=1e-5)
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
    p.add_argument("--t-max", dest="t_max", type=float, default=100.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--bound", type=float, default=8.0)
    p.add_argument("--step", type=float, default=0.05)
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


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Merge --config JSON over the parsed flags (config wins)."""
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    try:
        data = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    allowed = _config_schema(parser, args.command)
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown config key {key!r} for command {args.command!r}")
        want, choices = allowed[key]
        if want is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config key {key!r} must be a number")
            value = float(value)
        elif want is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"config key {key!r} must be an integer")
        elif want is str and not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"config key {key!r} must be one of {', '.join(choices)}")
        setattr(args, key, value)


def _resolve_nbar(args) -> float:
    if args.nbar is not None and args.temperature is not None:
        raise ConfigError("--nbar and --temperature are mutually exclusive")
    if args.temperature is not None:
        return occupation_from_temperature(args.temperature)
    return args.nbar if args.nbar is not None else 0.0


def _build_params(args) -> SystemParams:
    return SystemParams(g=args.g, kappa=args.kappa, delta=args.delta,
                        nbar=_resolve_nbar(args), mbar=args.mbar)


def _build_qubit(args) -> QubitInitState:
    return QubitInitState(args.a00, 1.0 - args.a00,
                          complex(args.a01_re, args.a01_im))


def _build_init(args, params: SystemParams) -> GaussianState:
    if args.init == "coherent":
        return GaussianState.coherent(args.q0, args.p0)
    return GaussianState.thermal(params.mbar)


def _outdir(args) -> Path:
    name = args.outdir or os.environ.get("OSCPROBE_OUTDIR") or "."
    path = Path(name)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    if not (t_max > 0.0 and dt > 0.0 and t_max >= dt):
        raise ConfigError("need t_max >= dt > 0")
    return np.arange(0.0, t_max + 0.5 * dt, dt)


def _param_metadata(params: SystemParams) -> dict:
    return {"g": params.g, "kappa": params.kappa, "delta": params.delta,
            "nbar": params.nbar, "mbar": params.mbar}


def _qubit_metadata(qubit: QubitInitState) -> dict:
    return {"a00": qubit.a00, "a01_re": qubit.a01.real, "a01_im": qubit.a01.imag}


def _curve_columns(times, params: SystemParams, init: GaussianState, M: float,
                   qubit: QubitInitState) -> dict:
    """The fgen, fuj and purity columns of `propagate` and `fidelity`."""
    return {"fgen": fidelity_generalized(times, params, init),
            "fuj": fidelity_uj_blocks(times, params, M),
            "purity_qubit": purity_qubit(times, params, M, qubit),
            "purity_oscillator": purity_oscillator(times, params, M, qubit)}


def cmd_propagate(args) -> int:
    params = _build_params(args)
    qubit = _build_qubit(args)
    init = _build_init(args, params)
    times = _time_grid(args.t_max, args.dt)
    coh = coherence_trace(times, params, init)
    # the evolved blocks keep a scalar covariance for both supported inits
    m_label = params.M if args.init == "thermal" else 0.5
    cols = _curve_columns(times, params, init, m_label, qubit)
    if args.noise > 0.0:
        fgen = cols["fgen"]
        rng = np.random.default_rng(args.seed)
        noisy = fgen * (1.0 + args.noise * rng.standard_normal(fgen.shape))
        noisy = np.clip(noisy, 1e-300, 1.0)
        # keep |coherence|^2 == fgen exact in the emitted record
        coh = coh * np.sqrt(noisy / fgen)
        cols["fgen"] = noisy
    meta = {**_param_metadata(params), "M": m_label, **_qubit_metadata(qubit),
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
    meta = {**_param_metadata(params), "M": params.M, **_qubit_metadata(qubit),
            "fuj_limit": fidelity_uj_limit(params)}
    out = _outdir(args) / args.output
    write_csv(out, meta, {"t": times, **_curve_columns(
        times, params, GaussianState.thermal(params.mbar), params.M, qubit)})
    print(f"wrote {out}")
    return 0


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"cannot parse times {text!r}") from err
    if not times:
        raise ConfigError("no evaluation times given")
    if any(t < 0.0 for t in times):
        raise ConfigError("times must be >= 0")
    return times


def _axis(bound: float, step: float) -> np.ndarray:
    if not (bound > 0.0 and 0.0 < step <= bound):
        raise ConfigError("need bound > 0 and 0 < step <= bound")
    qs = np.arange(-bound, bound + 0.5 * step, step)
    if qs.size * qs.size > MAX_GRID_POINTS:
        raise ConfigError(
            f"grid of {qs.size}^2 points exceeds the {MAX_GRID_POINTS} limit")
    return qs


def _write_wigner(out: Path, qs, t: float, params: SystemParams,
                  init: GaussianState, qubit: QubitInitState, args,
                  extra: dict) -> np.ndarray:
    """Reduced Wigner grid on qs x qs at time t -> CSV (q varies fastest)."""
    w = reduced_wigner_grid(qs, qs, t, params, init, qubit)
    qq, pp = np.meshgrid(qs, qs)
    meta = {**_param_metadata(params), "t": t, "bound": args.bound,
            "step": args.step, **_qubit_metadata(qubit), **extra,
            "grid_integral": float(np.sum(w)) * args.step ** 2}
    write_csv(out, meta, {"q": qq.ravel(), "p": pp.ravel(), "w": w.ravel()})
    print(f"wrote {out}")
    return w


def cmd_wigner(args) -> int:
    params = _build_params(args)
    qubit = _build_qubit(args)
    init = _build_init(args, params)
    times = _parse_times(args.times)
    qs = _axis(args.bound, args.step)
    outdir = _outdir(args)
    extra = {"init": args.init, "q0": args.q0, "p0": args.p0}
    for t in times:
        _write_wigner(outdir / f"wigner_t{t:g}.csv", qs, t, params, init,
                      qubit, args, extra)
    return 0


def cmd_oracle(args) -> int:
    explicit = any(getattr(args, key) is not None
                   for key in ("g", "kappa", "nbar", "temperature", "mbar"))
    if explicit:
        params = SystemParams(
            g=args.g if args.g is not None else 0.1,
            kappa=args.kappa if args.kappa is not None else 0.1,
            delta=args.delta,
            nbar=_resolve_nbar(args),
            mbar=args.mbar if args.mbar is not None else 0.0)
        points = [(params, args.t)]
    else:
        points = sample_comparison_points(args.points, args.seed,
                                          t_max=args.t_max, delta=args.delta)
    config = OracleConfig(dim=args.dim, rel_tol=args.rel_tol,
                          abs_tol=args.abs_tol, method=args.method)
    qubit = QubitInitState.balanced()
    results = []
    for params, t in points:
        row = compare_point(params, qubit, config, t)
        row.update(_param_metadata(params))
        results.append(row)
    tolerances = {"dev_fgen": args.tol_fgen, "dev_fuj": args.tol_fuj,
                  "dev_coherence": args.tol_fgen,
                  "dev_purity_qubit": args.tol_fgen,
                  "dev_purity_oscillator": args.tol_fgen}
    maxdev = {k: max(row[k] for row in results) for k in tolerances}
    ok = all(maxdev[k] <= tolerances[k] for k in tolerances)
    report = {
        "points": results,
        "max_deviation": maxdev,
        "tolerances": tolerances,
        "method": args.method,
        "seed": None if explicit else args.seed,
        "n_points": len(points),
        "pass": ok,
    }
    out = _outdir(args) / args.output
    write_json(out, report)
    status = "PASS" if ok else "FAIL"
    worst = max(maxdev.values())
    print(f"oracle {status}: {len(points)} points, worst deviation {worst:.3g} "
          f"(report: {out})")
    return 0 if ok else 1


def _nan_to_none(x):
    return None if isinstance(x, float) and math.isnan(x) else x


def cmd_estimate(args) -> int:
    series = []
    names = []
    for name in args.input:
        meta, cols = read_csv(name)
        if "t" not in cols or "fgen" not in cols:
            raise ConfigError(f"{name}: needs 't' and 'fgen' columns")
        m_label = meta.get("M")
        noise = meta.get("noise")
        series.append(CoherenceSeries(
            times=cols["t"], fgen=np.minimum(cols["fgen"], 1.0),
            M=float(m_label) if m_label is not None else None,
            noise=float(noise) if noise else None))
        names.append(Path(name).name)
    report = fit_parameters(series if len(series) > 1 else series[0],
                            mode=args.mode)
    # undefined values are NaN in the report and null in the JSON
    payload = {
        "g": report.g, "kappa": report.kappa, "M": _nan_to_none(report.M),
        "N": report.N, "nbar": report.nbar, "mbar": _nan_to_none(report.mbar),
        "residual_norm": report.residual_norm,
        "std_errors": {k: _nan_to_none(v) for k, v in report.std_errors.items()},
        "method": report.method,
        "converged": report.converged,
        "nfev": report.nfev,
        "inputs": names,
    }
    out = _outdir(args) / args.output
    write_json(out, payload)
    if not report.converged:
        print(f"warning: the {report.method} fit did not converge "
              f"after {report.nfev} evaluations", file=sys.stderr)
    print(f"estimate ({report.method}): g={report.g:.6g} kappa={report.kappa:.6g} "
          f"M={report.M:.6g} N={report.N:.6g} (report: {out})")
    return 0


_FIG1_TIMES = (0.0, 3.0, 10.0, 50.0)


def _plot_stub(csv_names: list[str], title: str, kind: str) -> str:
    files = ", ".join(repr(n) for n in csv_names)
    if kind == "wigner":
        body = """\
for name in FILES:
    rows = np.genfromtxt(name, delimiter=",", comments="#", names=True)
    q = np.unique(rows["q"])
    p = np.unique(rows["p"])
    w = rows["w"].reshape(p.size, q.size)
    fig, ax = plt.subplots()
    ax.pcolormesh(q, p, w, shading="auto")
    ax.set_xlabel("q")
    ax.set_ylabel("p")
    ax.set_title(f"{TITLE}: {name}")
    fig.savefig(name.replace(".csv", ".png"), dpi=150)
"""
    else:
        body = """\
fig, ax = plt.subplots()
for name in FILES:
    rows = np.genfromtxt(name, delimiter=",", comments="#", names=True)
    for g in np.unique(rows["g"]):
        for kappa in np.unique(rows["kappa"]):
            sel = (rows["g"] == g) & (rows["kappa"] == kappa)
            style = "-" if kappa == min(np.unique(rows["kappa"])) else "--"
            ax.plot(rows["t"][sel], rows["value"][sel], style,
                    label=f"g={g:g}, kappa={kappa:g}")
ax.set_xlabel("t")
ax.set_ylabel(TITLE)
ax.legend(fontsize=7)
fig.savefig("%s.png" % TITLE.replace(" ", "_"), dpi=150)
"""
    return (f'"""Plotting stub for {title}; run separately '
            f'(needs matplotlib, not a package dependency)."""\n'
            "import numpy as np\n"
            "import matplotlib.pyplot as plt\n\n"
            f"FILES = [{files}]\n"
            f"TITLE = {title!r}\n\n" + body)


def _reproduce_fig1(args, outdir: Path) -> int:
    if args.nbar is not None or args.temperature is not None or args.mbar is not None:
        raise ConfigError("fig1 parameters are fixed; omit --nbar/--temperature/--mbar")
    params = SystemParams(g=2.5, kappa=0.1, delta=0.0,
                          nbar=occupation_from_temperature(1.0), mbar=0.0)
    qubit = QubitInitState.balanced()
    init = GaussianState.thermal(params.mbar)
    qs = _axis(args.bound, args.step)
    csv_names = []
    lobes = []
    for t in _FIG1_TIMES:
        name = f"fig1_wigner_t{t:g}.csv"
        w = _write_wigner(outdir / name, qs, t, params, init, qubit, args, {})
        csv_names.append(name)
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
    (outdir / "fig1_plot.py").write_text(
        _plot_stub(csv_names, "reduced Wigner function", "wigner"))
    print(f"wrote {outdir / 'fig1_lobes.json'} and {outdir / 'fig1_plot.py'}")
    return 0


def _reproduce_curves(args, outdir: Path, figure: str) -> int:
    if args.mbar is None or (args.nbar is None and args.temperature is None):
        raise ConfigError(
            f"{figure} needs --mbar and --nbar (or --temperature): the panel "
            "temperatures are required inputs")
    nbar = _resolve_nbar(args)
    times = _time_grid(args.t_max, args.dt)
    gs, kappas = (0.05, 0.1, 0.2), (0.01, 0.1)
    col_g, col_k, col_t, col_v = [], [], [], []
    for g in gs:
        for kappa in kappas:
            params = SystemParams(g=g, kappa=kappa, delta=0.0,
                                  nbar=nbar, mbar=args.mbar)
            if figure == "fig2":
                vals = np.asarray(fidelity_generalized(
                    times, params, GaussianState.thermal(args.mbar)))
            else:
                vals = fidelity_uj_blocks(times, params, params.M)
            col_g.append(np.full(times.shape, g))
            col_k.append(np.full(times.shape, kappa))
            col_t.append(times)
            col_v.append(vals)
    meta = {"figure": figure, "nbar": nbar, "mbar": args.mbar,
            "M": args.mbar + 0.5,
            "quantity": "fgen" if figure == "fig2" else "fuj"}
    name = f"{figure}_curves.csv"
    write_csv(outdir / name, meta, {
        "g": np.concatenate(col_g),
        "kappa": np.concatenate(col_k),
        "t": np.concatenate(col_t),
        "value": np.concatenate(col_v),
    })
    title = "generalized fidelity" if figure == "fig2" else "Uhlmann-Jozsa fidelity"
    (outdir / f"{figure}_plot.py").write_text(_plot_stub([name], title, "curves"))
    print(f"wrote {outdir / name} and {outdir / f'{figure}_plot.py'}")
    return 0


def cmd_reproduce(args) -> int:
    outdir = _outdir(args)
    if args.figure == "fig1":
        return _reproduce_fig1(args, outdir)
    return _reproduce_curves(args, outdir, args.figure)


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
