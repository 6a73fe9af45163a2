"""Command-line front end.

Subcommands reproduce the toolkit's headline numbers as machine-readable
data: ``duration`` (phase-condition root and its curve), ``shortcut``
(counterdiabatic run trace), ``simulate`` (trace for a user schedule),
``optimize`` / ``mintime`` / ``sweep`` (bounded-control synthesis) and
``entangle`` (metrics of a supplied state).  Time series go to CSV with a
metadata comment block, scalar results to JSON on stdout.  A flat
JSON config file may supply any option; explicit flags win.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .dynamics import (
    ControlSchedule,
    JunctionParams,
    TruncatedState,
    initial_state,
    propagate,
    symmetric_preparation,
)
from .entanglement import (
    concurrence,
    dominant_trace,
    entanglement_exact,
    entanglement_of_concurrence,
)
from .optimal_control import maximize, minimum_time, sweep
from .shortcuts import (
    counterdiabatic_controls,
    duration_lhs,
    profile_fast,
    profile_original,
    solve_duration,
)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# option handling

_COMMON = {"out": None, "config": None}

_DEFAULTS = {
    "duration": {
        "profile": None,
        "knots": "0.9,0.2,0.8",
        "grid_min": 0.5,
        "grid_max": 300.0,
        "grid_step": 0.5,
        **_COMMON,
    },
    "shortcut": {
        "profile": None,
        "knots": "0.9,0.2,0.8",
        "alpha": 0.1,
        "kappa": 0.0,
        "omega": 0.0,
        "t": None,
        "steps": 10_000,
        "samples": 4001,
        **_COMMON,
    },
    "simulate": {
        "schedule": None,
        "alpha": 0.1,
        "kappa": 0.0,
        "omega": 0.0,
        "steps": 10_000,
        **_COMMON,
    },
    "optimize": {
        "t": None,
        "bounds": "1,0.25",
        "segments": 100,
        "seeds": 8,
        "alpha": 0.1,
        "kappa": 0.0,
        "base_seed": 1234,
        "max_iter": 2000,
        **_COMMON,
    },
    "mintime": {
        "bounds": "1,0.25",
        "segments": 100,
        "seeds": 8,
        "epsilon": 0.005,
        "alpha": 0.1,
        "base_seed": 1234,
        "max_iter": 2000,
        **_COMMON,
    },
    "sweep": {
        "t": "1:7:0.1",
        "kappa": "0,0.01,0.05,0.1",
        "bounds": "1,0.25",
        "segments": 100,
        "seeds": 2,
        "alpha": 0.1,
        "base_seed": 1234,
        "max_iter": 800,
        **_COMMON,
    },
    "entangle": {"state": None, "alpha": None, **_COMMON},
}

_REQUIRED = {
    "duration": ("profile",),
    "shortcut": ("profile",),
    "simulate": ("schedule",),
    "optimize": ("t",),
    "mintime": (),
    "sweep": (),
    "entangle": ("state",),
}


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Config-file values fill unset flags; hard defaults fill the rest."""
    defaults = _DEFAULTS[command]
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_").lower()
            if norm not in defaults:
                raise ConfigError(f"unknown config key {key!r} for {command!r}")
            if isinstance(value, (dict, list)):
                raise ConfigError(f"config key {key!r} must be a scalar")
            merged[norm] = value
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    for key in _REQUIRED[command]:
        if merged[key] is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    merged["config"] = None  # path itself is not part of the run identity
    return merged


def _run_identity(options: dict) -> dict:
    """Options that define the run; output paths are I/O plumbing, not
    configuration, and must not perturb hashes or file bytes."""
    return {k: v for k, v in options.items() if k not in ("out", "config")}


def _config_hash(options: dict) -> str:
    blob = json.dumps(_run_identity(options), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _parse_floats(text, count=None, name="value"):
    try:
        vals = [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse {name} list {text!r}")
    if count is not None and len(vals) != count:
        raise ConfigError(f"{name} needs {count} comma-separated values")
    return vals

def _parse_grid(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError("duration grid must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"cannot parse duration grid {text!r}")
    if step <= 0 or stop < start:
        raise ConfigError("duration grid must be increasing")
    n = int(round((stop - start) / step))
    return start + step * np.arange(n + 1)


def _build_profile(options):
    kind = options["profile"]
    if kind == "original":
        return profile_original()
    if kind == "fast":
        s0, s1, s2 = _parse_floats(options["knots"], 3, "knots")
        return profile_fast(s0, s1, s2)
    raise ConfigError(f"unknown profile {options['profile']!r}")


def _write_csv(path, command, options, header, rows):
    with open(path, "w", newline="") as f:
        f.write(f"# version={__version__}\n")
        f.write(f"# command={command}\n")
        f.write(f"# config_hash={_config_hash(options)}\n")
        f.write(f"# config={json.dumps(_run_identity(options), sort_keys=True, default=str)}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            # repr round-trips float64 exactly, so written schedules replay
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _emit_json(command, options, payload):
    doc = {"command": command, "config_hash": _config_hash(options)}
    doc.update(payload)
    print(json.dumps(doc, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# commands

def _trace_rows(traj, schedule, alpha, kappa):
    """Per-sample trace columns shared by ``shortcut`` and ``simulate``."""
    t = traj.times
    u, j = schedule.controls_at(t)
    amps = traj.amplitudes
    norm_complex = (amps[:, 3] - amps[:, 1] * amps[:, 2]) / alpha**2
    conc = dominant_trace(amps) / alpha**2
    one, two = traj.manifold_populations()
    res_one = np.abs(one - one[0] * np.exp(-kappa * t))
    res_two = np.abs(two - two[0] * np.exp(-2.0 * kappa * t))
    header = [
        "t", "u", "j", "re_c11_minus_product", "im_c11_minus_product",
        "concurrence_norm", "one_quantum_residual", "two_quanta_residual",
    ]
    rows = [
        (
            float(t[i]), float(u[i]), float(j[i]),
            float(norm_complex[i].real), float(norm_complex[i].imag),
            float(conc[i]), float(res_one[i]), float(res_two[i]),
        )
        for i in range(t.size)
    ]
    return header, rows, conc


def cmd_duration(options) -> int:
    profile = _build_profile(options)
    lo, hi, step = options["grid_min"], options["grid_max"], options["grid_step"]
    if not (0.0 < lo < hi and step > 0.0):
        raise ConfigError("grid bounds must satisfy 0 < min < max with step > 0")
    root = solve_duration(profile, scan=(float(lo), float(hi), float(step)))
    if options["out"]:
        grid = np.arange(float(lo), float(hi) + 1e-12, float(step))
        rows = [(float(t), float(duration_lhs(profile, t))) for t in grid]
        rows.append((float(root), float(duration_lhs(profile, root))))
        _write_csv(options["out"], "duration", options, ["T", "lhs"], rows)
    _emit_json("duration", options, {"root": root, "profile": options["profile"]})
    return 0


def cmd_shortcut(options) -> int:
    alpha = float(options["alpha"])
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive (an empty junction has no concurrence to normalise)")
    kappa = float(options["kappa"])
    profile = _build_profile(options)
    duration = options["t"]
    duration = solve_duration(profile) if duration is None else float(duration)
    schedule, record = counterdiabatic_controls(profile, duration, int(options["samples"]))
    prep = symmetric_preparation(alpha)
    traj = propagate(
        initial_state(prep), schedule,
        JunctionParams(float(options["omega"]), kappa), int(options["steps"]),
    )
    header, rows, conc = _trace_rows(traj, schedule, alpha, kappa)
    if options["out"]:
        _write_csv(options["out"], "shortcut", options, header, rows)
    _emit_json("shortcut", options, {
        "T": duration,
        "theta": record.theta,
        "zeta": record.zeta,
        "final_concurrence_norm": float(conc[-1]),
        "peak_concurrence_norm": float(conc.max()),
    })
    return 0


def _load_schedule(path) -> ControlSchedule:
    times, u, j = [], [], []
    try:
        with open(path) as f:
            lines = [ln for ln in map(str.strip, f) if ln and not ln.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read schedule: {exc}")
    for i, line in enumerate(lines):
        parts = line.split(",")
        try:
            vals = [float(p) for p in parts[:3]]
        except ValueError:
            if i == 0:
                continue  # header row
            raise ConfigError(f"non-numeric schedule row: {line!r}")
        if len(vals) < 3:
            raise ConfigError(f"schedule rows need t,u,j columns: {line!r}")
        times.append(vals[0]); u.append(vals[1]); j.append(vals[2])
    if not times:
        raise ConfigError("schedule file holds no samples")
    try:
        return ControlSchedule(np.array(times), np.array(u), np.array(j))
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}")


def cmd_simulate(options) -> int:
    alpha = float(options["alpha"])
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    schedule = _load_schedule(options["schedule"])
    kappa = float(options["kappa"])
    traj = propagate(
        initial_state(symmetric_preparation(alpha)), schedule,
        JunctionParams(float(options["omega"]), kappa), int(options["steps"]),
    )
    header, rows, conc = _trace_rows(traj, schedule, alpha, kappa)
    if options["out"]:
        _write_csv(options["out"], "simulate", options, header, rows)
    _emit_json("simulate", options, {
        "T": schedule.duration,
        "final_concurrence_norm": float(conc[-1]),
        "peak_concurrence_norm": float(conc.max()),
    })
    return 0


def cmd_optimize(options) -> int:
    duration = float(options["t"])
    bounds = tuple(_parse_floats(options["bounds"], 2, "bounds"))
    res = maximize(
        duration, bounds, int(options["segments"]), int(options["seeds"]),
        JunctionParams(0.0, float(options["kappa"])),
        prep=symmetric_preparation(float(options["alpha"])),
        base_seed=int(options["base_seed"]),
        max_iter=int(options["max_iter"]),
    )
    if options["out"]:
        dt = duration / res.best.segments
        rows = [
            (k, float(k * dt), float(res.best.u[k]), float(res.best.j[k]))
            for k in range(res.best.segments)
        ]
        _write_csv(options["out"], "optimize", options, ["segment", "t_start", "u", "j"], rows)
    _emit_json("optimize", options, {
        "T": duration,
        "objective": res.objective,
        "iterations": res.iterations,
        "converged": res.converged,
        "seed": res.seed,
    })
    return 0


def cmd_mintime(options) -> int:
    bounds = tuple(_parse_floats(options["bounds"], 2, "bounds"))
    tstar = minimum_time(
        bounds, int(options["segments"]), float(options["epsilon"]),
        prep=symmetric_preparation(float(options["alpha"])),
        seeds=int(options["seeds"]),
        base_seed=int(options["base_seed"]),
        max_iter=int(options["max_iter"]),
    )
    _emit_json("mintime", options, {
        "minimum_time": tstar,
        "epsilon": float(options["epsilon"]),
        "bounds": list(bounds),
    })
    return 0


def cmd_sweep(options) -> int:
    grid = _parse_grid(options["t"])
    kappas = _parse_floats(options["kappa"], name="kappa")
    bounds = tuple(_parse_floats(options["bounds"], 2, "bounds"))
    curves = sweep(
        grid, bounds, int(options["segments"]), kappas,
        prep=symmetric_preparation(float(options["alpha"])),
        seeds=int(options["seeds"]),
        base_seed=int(options["base_seed"]),
        max_iter=int(options["max_iter"]),
    )
    if options["out"]:
        rows = [
            (float(c.kappa), float(t), float(v))
            for c in curves
            for t, v in zip(c.durations, c.objectives)
        ]
        _write_csv(options["out"], "sweep", options, ["kappa", "T", "objective"], rows)
    summary = {
        f"argmax_T_kappa_{c.kappa:g}": float(c.durations[int(np.argmax(c.objectives))])
        for c in curves
    }
    summary["max_objective_kappa_0"] = float(max(
        (c.objectives.max() for c in curves if c.kappa == 0.0), default=float("nan")
    ))
    _emit_json("sweep", options, summary)
    return 0


def cmd_entangle(options) -> int:
    tokens = str(options["state"]).split(",")
    if len(tokens) != 6:
        raise ConfigError("state needs 6 comma-separated complex amplitudes "
                          "(c00,c10,c01,c11,c20,c02)")
    try:
        amps = [complex(tok.strip()) for tok in tokens]
    except ValueError:
        raise ConfigError(f"cannot parse state amplitudes {options['state']!r}")
    state = TruncatedState(*amps)
    alpha = options["alpha"]
    alpha = float(alpha) if alpha is not None else None
    cv = concurrence(state, alpha)
    result = entanglement_exact(state)
    payload = {
        "concurrence_full": cv.full,
        "concurrence_dominant": cv.dominant,
        "concurrence_normalized": cv.normalized,
        "eigenvalues": list(result.eigenvalues),
        "entropy_bits": result.entropy,
        "triple_product": result.triple_product,
    }
    if cv.full <= 1.0:
        payload["entropy_of_concurrence_bits"] = entanglement_of_concurrence(
            min(cv.dominant, 1.0)
        )
    _emit_json("entangle", options, payload)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub):
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--config", help="flat JSON config file; flags override it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjjctrl",
        description="Entanglement-maximising control synthesis for a weakly "
        "pumped bosonic Josephson junction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("duration", help="solve the phase-condition duration")
    p.add_argument("--profile", choices=["original", "fast"])
    p.add_argument("--knots", help="fast-profile knots s0,s1,s2")
    p.add_argument("--grid-min", dest="grid_min", type=float)
    p.add_argument("--grid-max", dest="grid_max", type=float)
    p.add_argument("--grid-step", dest="grid_step", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_duration)

    p = subs.add_parser("shortcut", help="run a counterdiabatic shortcut")
    p.add_argument("--profile", choices=["original", "fast"])
    p.add_argument("--knots")
    p.add_argument("--alpha", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--T", dest="t", type=float, help="duration; omit to auto-solve")
    p.add_argument("--steps", type=int)
    p.add_argument("--samples", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_shortcut)

    p = subs.add_parser("simulate", help="propagate a schedule from CSV")
    p.add_argument("--schedule", help="CSV with t,u,j columns")
    p.add_argument("--alpha", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--steps", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("optimize", help="maximise final concurrence at fixed T")
    p.add_argument("--T", dest="t", type=float)
    p.add_argument("--bounds", help="U_max,J_max")
    p.add_argument("--segments", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--base-seed", dest="base_seed", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("mintime", help="minimum duration reaching the ceiling")
    p.add_argument("--bounds")
    p.add_argument("--segments", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--base-seed", dest="base_seed", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_mintime)

    p = subs.add_parser("sweep", help="objective vs duration per loss rate")
    p.add_argument("--T", dest="t", help="grid start:stop:step")
    p.add_argument("--kappa", help="comma-separated loss rates")
    p.add_argument("--bounds")
    p.add_argument("--segments", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--base-seed", dest="base_seed", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("entangle", help="entanglement metrics of a state")
    p.add_argument("--state", help="c00,c10,c01,c11,c20,c02 complex literals")
    p.add_argument("--alpha", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_entangle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        options = _merge_options(args.command, args)
        return args.func(options)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
