"""Command-line front end.

Subcommands reproduce the toolkit's headline numbers as machine-readable
data: ``duration`` (phase-condition root and its curve), ``shortcut``
(counterdiabatic run trace), ``simulate`` (trace for a user schedule),
``optimize`` / ``mintime`` / ``sweep`` (bounded-control synthesis) and
``entangle`` (metrics of a supplied state).  Time series go to CSV with a
metadata comment block (``--out``, taken by ``duration``, ``shortcut``,
``simulate``, ``optimize`` and ``sweep``), scalar results to strict JSON
on stdout.  Every option is declared once, in ``_COMMANDS``.  A flat JSON
config file may supply any option; its values go through the same
converter and choices as the flag's text, ``null`` leaves an option unset,
and explicit flags win.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections.abc import Callable
from typing import NamedTuple

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


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# option handling

def _positive_float(text):
    """Converter for alpha, which normalises the concurrence: zero, negative
    and NaN amplitudes are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


class _Opt(NamedTuple):
    """One option; ``type`` converts flag and config text alike."""
    type: Callable[[str], object] = str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False  # otherwise a None default leaves the option unset


_PROFILE = _Opt(choices=("original", "fast"), required=True)
_ALPHA = _Opt(_positive_float, 0.1)
_OUT = _Opt(help="output CSV path")

#: subcommand -> (help, {config key: _Opt}); the flag is ``_flag(key)``.
_COMMANDS = {
    "duration": ("solve the phase-condition duration", {
        "profile": _PROFILE,
        "knots": _Opt(str, "0.9,0.2,0.8", "fast-profile knots s0,s1,s2"),
        "grid_min": _Opt(float, 0.5),
        "grid_max": _Opt(float, 300.0),
        "grid_step": _Opt(float, 0.5),
        "out": _OUT,
    }),
    "shortcut": ("run a counterdiabatic shortcut", {
        "profile": _PROFILE,
        "knots": _Opt(str, "0.9,0.2,0.8"),
        "alpha": _ALPHA,
        "kappa": _Opt(float, 0.0),
        "omega": _Opt(float, 0.0),
        "t": _Opt(float, None, "duration; omit to auto-solve"),
        "steps": _Opt(int, 10_000),
        "samples": _Opt(int, 4001),
        "out": _OUT,
    }),
    "simulate": ("propagate a schedule from CSV", {
        "schedule": _Opt(help="CSV with t,u,j columns", required=True),
        "alpha": _ALPHA,
        "kappa": _Opt(float, 0.0),
        "omega": _Opt(float, 0.0),
        "steps": _Opt(int, 10_000),
        "out": _OUT,
    }),
    "optimize": ("maximise final concurrence at fixed T", {
        "t": _Opt(float, required=True),
        "bounds": _Opt(str, "1,0.25", "U_max,J_max"),
        "segments": _Opt(int, 100),
        "seeds": _Opt(int, 8),
        "alpha": _ALPHA,
        "kappa": _Opt(float, 0.0),
        "base_seed": _Opt(int, 1234),
        "max_iter": _Opt(int, 2000),
        "out": _OUT,
    }),
    "mintime": ("minimum duration reaching the ceiling", {
        "bounds": _Opt(str, "1,0.25"),
        "segments": _Opt(int, 100),
        "seeds": _Opt(int, 8),
        "epsilon": _Opt(float, 0.005),
        "alpha": _ALPHA,
        "base_seed": _Opt(int, 1234),
        "max_iter": _Opt(int, 2000),
    }),
    "sweep": ("objective vs duration per loss rate", {
        "t": _Opt(str, "1:7:0.1", "grid start:stop:step"),
        "kappa": _Opt(str, "0,0.01,0.05,0.1", "comma-separated loss rates"),
        "bounds": _Opt(str, "1,0.25"),
        "segments": _Opt(int, 100),
        "seeds": _Opt(int, 2),
        "alpha": _ALPHA,
        "base_seed": _Opt(int, 1234),
        "max_iter": _Opt(int, 800),
        "out": _OUT,
    }),
    "entangle": ("entanglement metrics of a state", {
        "state": _Opt(help="c00,c10,c01,c11,c20,c02 complex literals", required=True),
        "alpha": _ALPHA._replace(default=None),
    }),
}


def _flag(key: str) -> str:
    return "--T" if key == "t" else "--" + key.replace("_", "-")


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Config-file values fill unset flags; the table's defaults fill the rest.
    A config value's text goes through its option's converter and choices,
    as a flag's does; ``null`` leaves the option unset."""
    table = _COMMANDS[command][1]
    merged = {key: opt.default for key, opt in table.items()}
    if args.config:
        try:
            with open(args.config) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_").lower()
            if norm not in table:
                raise ConfigError(f"unknown config key {key!r} for {command!r}")
            if isinstance(value, (dict, list)):
                raise ConfigError(f"config key {key!r} must be a scalar")
            if value is None:
                continue
            opt = table[norm]
            try:
                merged[norm] = opt.type(str(value))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}")
            if opt.choices is not None and merged[norm] not in opt.choices:
                raise ConfigError(f"config key {key!r} must be one of {', '.join(opt.choices)}")
    for key, opt in table.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
        if opt.required and merged[key] is None:
            raise ConfigError(f"missing required option {_flag(key)}")
    return merged


def _run_identity(options: dict) -> dict:
    """Options that define the run; the output path is I/O plumbing, not
    configuration, and must not perturb hashes or file bytes."""
    return {k: v for k, v in options.items() if k != "out"}


def _config_hash(options: dict) -> str:
    blob = json.dumps(_run_identity(options), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _parse_floats(text, count=None, name="value"):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse {name} list {text!r}")
    if count is not None and len(vals) != count:
        raise ConfigError(f"{name} needs {count} comma-separated values")
    return vals

def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("duration grid must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"cannot parse duration grid {text!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"duration grid must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ConfigError("duration grid must be increasing")
    n = int(round((stop - start) / step))
    return start + step * np.arange(n + 1)


def _build_profile(options):
    # The knots are part of every run's identity, so they are checked
    # whatever the profile: building the fast profile is that check.
    fast = profile_fast(*_parse_floats(options["knots"], 3, "knots"))
    return fast if options["profile"] == "fast" else profile_original()


def _write_csv(path, command, options, header, rows):
    """Metadata comments, the header, then one line per row, streamed.

    Rows hold Python ints and floats (not numpy scalars, whose repr names
    the type); repr round-trips a float exactly, so written schedules
    replay.  No field needs quoting, so the lines are the bytes
    ``csv.writer`` writes for the same rows.
    """
    with open(path, "w", newline="") as f:
        f.write(f"# version={__version__}\n")
        f.write(f"# command={command}\n")
        f.write(f"# config_hash={_config_hash(options)}\n")
        f.write(f"# config={json.dumps(_run_identity(options), sort_keys=True, default=str)}\n")
        f.write(",".join(header) + "\r\n")
        f.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _array_rows(table, block=1024):
    """Rows of a 2-d array as lists of Python floats, converted one block at
    a time: a 10k-row trace never exists as Python objects all at once."""
    for start in range(0, len(table), block):
        yield from table[start : start + block].tolist()


def _emit_json(command, options, payload):
    doc = {"command": command, "config_hash": _config_hash(options)}
    doc.update(payload)
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or infinity: not strict JSON
        raise FloatingPointError(f"non-finite result: {exc}") from None
    print(text)


# ---------------------------------------------------------------------------
# commands

_TRACE_HEADER = [
    "t", "u", "j", "re_c11_minus_product", "im_c11_minus_product",
    "concurrence_norm", "one_quantum_residual", "two_quanta_residual",
]


def _trace_table(traj, schedule, alpha, kappa):
    """Per-sample trace shared by ``shortcut`` and ``simulate``: one
    (samples x 8) array with the ``_TRACE_HEADER`` columns, and C/alpha^2."""
    t = traj.times
    u, j = schedule.controls_at(t)
    amps = traj.amplitudes
    norm_complex = (amps[:, 3] - amps[:, 1] * amps[:, 2]) / alpha**2
    conc = dominant_trace(amps) / alpha**2
    one, two = traj.manifold_populations()
    res_one = np.abs(one - one[0] * np.exp(-kappa * t))
    res_two = np.abs(two - two[0] * np.exp(-2.0 * kappa * t))
    table = np.column_stack(
        (t, u, j, norm_complex.real, norm_complex.imag, conc, res_one, res_two)
    )
    return table, conc


def cmd_duration(options) -> int:
    profile = _build_profile(options)
    for key in ("grid_min", "grid_max", "grid_step"):
        if not math.isfinite(options[key]):
            raise ConfigError(f"{_flag(key)} must be finite, got {options[key]!r}")
    lo, hi, step = options["grid_min"], options["grid_max"], options["grid_step"]
    if not (0.0 < lo < hi and step > 0.0):
        raise ConfigError("grid bounds must satisfy 0 < min < max with step > 0")
    root = solve_duration(profile, scan=(lo, hi, step))
    if options["out"]:
        durations = np.append(np.arange(lo, hi + 1e-12, step), root)
        lhs = duration_lhs(profile, durations)
        rows = zip(durations.tolist(), lhs.tolist())
        _write_csv(options["out"], "duration", options, ["T", "lhs"], rows)
    _emit_json("duration", options, {"root": root, "profile": options["profile"]})
    return 0


def cmd_shortcut(options) -> int:
    alpha, kappa = options["alpha"], options["kappa"]
    profile = _build_profile(options)
    duration = options["t"] if options["t"] is not None else solve_duration(profile)
    schedule, record = counterdiabatic_controls(profile, duration, options["samples"])
    traj = propagate(
        initial_state(symmetric_preparation(alpha)), schedule,
        JunctionParams(options["omega"], kappa), options["steps"],
    )
    table, conc = _trace_table(traj, schedule, alpha, kappa)
    if options["out"]:
        _write_csv(options["out"], "shortcut", options, _TRACE_HEADER, _array_rows(table))
    _emit_json("shortcut", options, {
        "T": duration,
        "theta": record.theta,
        "zeta": record.zeta,
        "final_concurrence_norm": float(conc[-1]),
        "peak_concurrence_norm": float(conc.max()),
    })
    return 0


def _load_schedule(path) -> ControlSchedule:
    """t,u,j samples of a schedule CSV, parsed as the file is read: no line
    is kept once its floats are taken.  Blank and ``#`` lines are skipped,
    and the first other line may be a non-numeric header."""
    times, u, j = [], [], []
    try:
        with open(path) as f:
            lines = (ln for ln in map(str.strip, f) if ln and not ln.startswith("#"))
            for i, line in enumerate(lines):
                try:
                    vals = [float(p) for p in line.split(",")[:3]]
                except ValueError:
                    if i == 0:
                        continue  # header row
                    raise ConfigError(f"non-numeric schedule row: {line!r}")
                if len(vals) < 3:
                    raise ConfigError(f"schedule rows need t,u,j columns: {line!r}")
                times.append(vals[0]); u.append(vals[1]); j.append(vals[2])
    except OSError as exc:
        raise ConfigError(f"cannot read schedule: {exc}")
    if not times:
        raise ConfigError("schedule file holds no samples")
    try:
        return ControlSchedule(np.array(times), np.array(u), np.array(j))
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}")


def cmd_simulate(options) -> int:
    alpha, kappa = options["alpha"], options["kappa"]
    schedule = _load_schedule(options["schedule"])
    traj = propagate(
        initial_state(symmetric_preparation(alpha)), schedule,
        JunctionParams(options["omega"], kappa), options["steps"],
    )
    table, conc = _trace_table(traj, schedule, alpha, kappa)
    if options["out"]:
        _write_csv(options["out"], "simulate", options, _TRACE_HEADER, _array_rows(table))
    _emit_json("simulate", options, {
        "T": schedule.duration,
        "final_concurrence_norm": float(conc[-1]),
        "peak_concurrence_norm": float(conc.max()),
    })
    return 0


def cmd_optimize(options) -> int:
    duration = options["t"]
    bounds = tuple(_parse_floats(options["bounds"], 2, "bounds"))
    res = maximize(
        duration, bounds, options["segments"], options["seeds"],
        JunctionParams(0.0, options["kappa"]),
        prep=symmetric_preparation(options["alpha"]),
        base_seed=options["base_seed"],
        max_iter=options["max_iter"],
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
        bounds, options["segments"], options["epsilon"],
        prep=symmetric_preparation(options["alpha"]),
        seeds=options["seeds"],
        base_seed=options["base_seed"],
        max_iter=options["max_iter"],
    )
    _emit_json("mintime", options, {
        "minimum_time": tstar,
        "epsilon": options["epsilon"],
        "bounds": list(bounds),
    })
    return 0


def cmd_sweep(options) -> int:
    grid = _parse_grid(options["t"])
    kappas = _parse_floats(options["kappa"], name="kappa")
    bounds = tuple(_parse_floats(options["bounds"], 2, "bounds"))
    curves = sweep(
        grid, bounds, options["segments"], kappas,
        prep=symmetric_preparation(options["alpha"]),
        seeds=options["seeds"],
        base_seed=options["base_seed"],
        max_iter=options["max_iter"],
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
    lossless = [c.objectives.max() for c in curves if c.kappa == 0.0]
    if lossless:
        summary["max_objective_kappa_0"] = float(max(lossless))
    _emit_json("sweep", options, summary)
    return 0


def cmd_entangle(options) -> int:
    tokens = options["state"].split(",")
    if len(tokens) != 6:
        raise ConfigError("state needs 6 comma-separated complex amplitudes "
                          "(c00,c10,c01,c11,c20,c02)")
    try:
        amps = [complex(tok.strip()) for tok in tokens]
    except ValueError:
        raise ConfigError(f"cannot parse state amplitudes {options['state']!r}")
    state = TruncatedState(*amps)
    cv = concurrence(state, options["alpha"])
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjjctrl",
        description="Entanglement-maximising control synthesis for a weakly "
        "pumped bosonic Josephson junction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, table) in _COMMANDS.items():
        p = subs.add_parser(command, help=summary)
        for key, opt in table.items():
            p.add_argument(_flag(key), dest=key, type=opt.type, choices=opt.choices, help=opt.help)
        p.add_argument("--config", help="flat JSON config file; flags override it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        options = _merge_options(args.command, args)
        # looked up at call time, so a wrapped ``cmd_*`` is the one that runs
        return globals()[f"cmd_{args.command}"](options)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
