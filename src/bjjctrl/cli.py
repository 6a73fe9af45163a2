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
import functools
import itertools
import json
import math
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import __version__, _csvfloat
from .dynamics import (
    ControlSchedule,
    ControlVector,
    JunctionParams,
    TruncatedState,
    initial_state,
    propagate,
    symmetric_preparation,
)
from .entanglement import (
    MAX_NORMALIZED_CONCURRENCE,
    concurrence,
    dominant_trace,
    entanglement_exact,
    entanglement_of_concurrence,
)
from .optimal_control import maximize, minimum_time, sweep
from .shortcuts import (
    counterdiabatic_controls,
    duration_grid,
    duration_lhs,
    phases,
    profile_fast,
    profile_original,
    solve_duration,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# option handling

def _positive_float(text):
    """Converter for alpha, which normalises the concurrence as C/alpha^2:
    zero, negative and NaN amplitudes are refused, and so is one whose
    square is below the normal floats (the ratio would lose bits or be NaN)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    if value * value < sys.float_info.min:
        raise argparse.ArgumentTypeError(f"its square underflows, got {text!r}")
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
        "out": _OUT,
    }),
    "simulate": ("propagate a schedule from CSV", {
        "schedule": _Opt(help="CSV with t,u,j or segment,t_start,u,j columns", required=True),
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
        "t": _Opt(str, "1:7:0.1", "grid start:stop:step, stop inclusive, never passed"),
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


def _config_text(options: dict) -> str:
    return json.dumps(_run_identity(options), sort_keys=True, default=str)


def _config_hash(options: dict) -> str:
    """First 12 hex digits of the SHA-256 of ``_config_text``."""
    return _sha256_hex(_config_text(options).encode())[:12]


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) by Newton's method on integers, from above."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


_PRIMES = [p for p in range(2, 312) if all(p % d for d in range(2, math.isqrt(p) + 1))]
#: FIPS 180-4, 4.2.2 and 5.3.3: the first 32 bits of the fractional parts of
#: the cube roots of the first 64 primes, and of the square roots of the first 8.
_K = [_integer_root(p << 96, 3) & 0xFFFFFFFF for p in _PRIMES]
_H0 = [_integer_root(p << 64, 2) & 0xFFFFFFFF for p in _PRIMES[:8]]


def _sha256_hex(data: bytes) -> str:
    """SHA-256 (FIPS 180-4) of ``data`` as hex.  ``hashlib`` would map
    OpenSSL's libcrypto, several MB of resident memory, into every run for
    one short digest.  A 32-bit word x rotates right by n as
    (x | x << 32) >> n, masked."""
    m = 0xFFFFFFFF
    h = list(_H0)
    data += b"\x80" + bytes((55 - len(data)) % 64) + (8 * len(data)).to_bytes(8, "big")
    for block in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big") for i in range(block, block + 64, 4)]
        for i in range(16, 64):
            x, y = w[i - 15], w[i - 2]
            xx, yy = x | x << 32, y | y << 32
            s0 = (xx >> 7 ^ xx >> 18) & m ^ x >> 3
            s1 = (yy >> 17 ^ yy >> 19) & m ^ y >> 10
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & m)
        a, b, c, d, e, f, g, hh = h
        for k, wi in zip(_K, w):
            aa, ee = a | a << 32, e | e << 32
            t1 = hh + ((ee >> 6 ^ ee >> 11 ^ ee >> 25) & m) + (e & f ^ ~e & g) + k + wi
            t2 = ((aa >> 2 ^ aa >> 13 ^ aa >> 22) & m) + (a & b ^ a & c ^ b & c)
            hh, g, f, e = g, f, e, (d + t1) & m
            d, c, b, a = c, b, a, (t1 + t2) & m
        h = [(x + y) & m for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return "".join(f"{x:08x}" for x in h)


def _parse_floats(text, count=None, name="value"):
    """Comma-separated floats; an empty field is an error."""
    try:
        vals = [float(tok) for tok in text.split(",")]
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
        return duration_grid(*map(float, parts))
    except ValueError as exc:
        raise ConfigError(f"duration grid {text!r}: {exc}") from None


def _build_profile(options):
    # The knots are part of every run's identity, so they are checked
    # whatever the profile: building the fast profile is that check.
    fast = profile_fast(*_parse_floats(options["knots"], 3, "knots"))
    return fast if options["profile"] == "fast" else profile_original()


def _write_csv(path, command, options, config_hash, header, columns):
    """Metadata comments, the header, then one line per row.

    ``columns`` are equal-length columns of ints or floats (int64 or
    float64 arrays, or lists of Python numbers), one per header name.  Each
    field is the text ``repr`` gives the number (shortest round-trip for a
    float, so written schedules replay bit for bit), built block by block
    by ``_csvfloat.csv_rows``; a non-finite float is a ``FloatingPointError``
    before the file is opened.  No field needs quoting, so the lines are
    the bytes ``csv.writer`` writes for the same rows.  ``config_hash`` is
    ``_config_hash(options)``, which the command's JSON carries too.
    """
    rows = _csvfloat.csv_rows(columns)
    try:
        f = open(path, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None
    with f:
        f.write(
            f"# version={__version__}\n# command={command}\n# config_hash={config_hash}\n"
            f"# config={_config_text(options)}\n{','.join(header)}\r\n".encode()
        )
        f.writelines(rows)


def _emit_json(command, config_hash, payload):
    doc = {"command": command, "config_hash": config_hash}
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


def _run_trace(command, options, schedule, summary):
    """Propagate the symmetric preparation along ``schedule`` for
    ``shortcut`` and ``simulate``: the trace, one row per sample with the
    ``_TRACE_HEADER`` columns, goes to ``--out`` (built only then), and the
    final and peak C/alpha^2, with ``summary()`` taken after them, to stdout."""
    alpha, kappa = options["alpha"], options["kappa"]
    traj = propagate(
        initial_state(symmetric_preparation(alpha)), schedule,
        JunctionParams(options["omega"], kappa), options["steps"],
    )
    amps = traj.amplitudes
    conc = dominant_trace(amps) / alpha**2
    peak = float(conc.max())
    if peak > MAX_NORMALIZED_CONCURRENCE * (1.0 + 1e-12):
        # no evolution, lossless or lossy, exceeds it: the propagation lost precision
        raise FloatingPointError(f"peak C/alpha^2 {peak!r} exceeds the ceiling 1 + sqrt(2)")
    config_hash = _config_hash(options)
    payload = dict(summary(), final_concurrence_norm=float(conc[-1]), peak_concurrence_norm=peak)
    if options["out"]:
        t = traj.times
        u, j = schedule.controls_at(t)
        norm_complex = (amps[:, 3] - amps[:, 1] * amps[:, 2]) / alpha**2
        one, two = traj.manifold_populations()
        decay = np.exp(-kappa * t + 0j).real  # rounds alike at every SIMD level
        columns = (t, u, j, norm_complex.real, norm_complex.imag, conc,
                   np.abs(one - one[0] * decay), np.abs(two - two[0] * decay * decay))
        del traj, amps, one, two  # the amplitudes are the largest array: write without them
        _write_csv(options["out"], command, options, config_hash, _TRACE_HEADER, columns)
    _emit_json(command, config_hash, payload)
    return 0


def cmd_duration(options) -> int:
    profile = _build_profile(options)
    for key in ("grid_min", "grid_max", "grid_step"):
        if not math.isfinite(options[key]):
            raise ConfigError(f"{_flag(key)} must be finite, got {options[key]!r}")
    lo, hi, step = options["grid_min"], options["grid_max"], options["grid_step"]
    if not 0.0 < lo < hi:
        raise ConfigError("grid bounds must satisfy 0 < min < max")
    # the curve below is the grid the root scan accepted, bit for bit
    root = solve_duration(profile, scan=(lo, hi, step))
    config_hash = _config_hash(options)
    if options["out"]:
        durations = np.append(duration_grid(lo, hi, step), root)
        _write_csv(options["out"], "duration", options, config_hash, ["T", "lhs"],
                   (durations, duration_lhs(profile, durations)))
    _emit_json("duration", config_hash, {"root": root, "profile": options["profile"]})
    return 0


def cmd_shortcut(options) -> int:
    profile = _build_profile(options)
    duration = options["t"] if options["t"] is not None else solve_duration(profile)
    # the phases come after the trace, whose controls refuse a T too short to be finite
    return _run_trace("shortcut", options, counterdiabatic_controls(profile, duration),
                      lambda: {"T": duration, **vars(phases(profile, duration))})


#: Leading header names of the schedule CSVs ``simulate`` replays: sampled
#: controls (a trace's further columns are ignored) and the segments that
#: ``optimize`` writes.
_SAMPLED = ("t", "u", "j")
_SEGMENTS = ("segment", "t_start", "u", "j")


def _load_schedule(path) -> ControlSchedule | ControlVector:
    """The schedule of a CSV, parsed by numpy's reader as the file is read.
    Blank and ``#`` lines are skipped anywhere, but for the last
    ``# config=`` line; the first other line is the header, and the rest
    are data rows, in which ``#`` text is an error."""
    config = None

    def lines(f):
        nonlocal config
        for line in map(str.strip, f):
            if line.startswith("# config="):
                config = line[len("# config="):]
            if line and not line.startswith("#"):
                yield line

    try:
        with open(path) as f:
            rows = lines(f)
            header = next(rows, "")
            fields = tuple(header.split(","))
            layout = next((h for h in (_SAMPLED, _SEGMENTS) if fields[:len(h)] == h), None)
            if layout is None and header:
                raise ConfigError(f"want a t,u,j or segment,t_start,u,j header: {header!r}")
            first = next(rows, None)  # np.loadtxt warns on a file without rows
            if first is None:
                raise ConfigError("schedule file holds no samples")
            try:
                table = np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None,
                                   usecols=range(len(layout)), ndmin=2)
            except ValueError as exc:
                raise ConfigError(
                    f"non-numeric schedule row (rows need numeric {','.join(layout)} columns): {exc}"
                )
    except OSError as exc:
        raise ConfigError(f"cannot read schedule: {exc}")
    try:
        if layout is _SAMPLED:
            return ControlSchedule(*table.T)
        return _segment_schedule(*table.T, config)
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}")


def _segment_schedule(segment, t_start, u, j, config) -> ControlVector:
    """The controls ``optimize`` wrote: T is the ``t`` of its config line,
    and segment k must start at exactly k * (T / N)."""
    try:
        duration = json.loads(config).get("t")
    except (TypeError, ValueError, AttributeError):
        duration = None
    if type(duration) not in (int, float):
        raise ConfigError("a segment schedule needs the duration t on its '# config=' line")
    dt = duration / len(u)
    k = np.arange(len(u))
    if not (np.array_equal(segment, k) and np.array_equal(t_start, k * dt)):
        raise ConfigError(f"segments must be numbered 0..N-1 and start on the grid k * {dt!r}")
    return ControlVector(u, j, duration)


def cmd_simulate(options) -> int:
    schedule = _load_schedule(options["schedule"])
    return _run_trace("simulate", options, schedule, lambda: {"T": schedule.duration})


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
    config_hash = _config_hash(options)
    if options["out"]:
        k = np.arange(res.best.segments)
        _write_csv(options["out"], "optimize", options, config_hash,
                   ["segment", "t_start", "u", "j"],
                   (k, k * (duration / res.best.segments), res.best.u, res.best.j))
    _emit_json("optimize", config_hash, {
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
    _emit_json("mintime", _config_hash(options), {
        "minimum_time": tstar,
        "epsilon": options["epsilon"],
        "bounds": list(bounds),
    })
    return 0


def cmd_sweep(options) -> int:
    grid = _parse_grid(options["t"])
    kappas = _parse_floats(options["kappa"], name="kappa")
    keys = [f"argmax_T_kappa_{kappa:g}" for kappa in kappas]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"--kappa {options['kappa']!r} repeats a rate at 6 significant digits")
    bounds = tuple(_parse_floats(options["bounds"], 2, "bounds"))
    curves = sweep(
        grid, bounds, options["segments"], kappas,
        prep=symmetric_preparation(options["alpha"]),
        seeds=options["seeds"],
        base_seed=options["base_seed"],
        max_iter=options["max_iter"],
    )
    config_hash = _config_hash(options)
    if options["out"]:
        _write_csv(options["out"], "sweep", options, config_hash, ["kappa", "T", "objective"], (
            np.concatenate([np.full(len(c.durations), c.kappa, float) for c in curves]),
            np.concatenate([c.durations for c in curves]),
            np.concatenate([c.objectives for c in curves]),
        ))
    summary = {
        key: float(c.durations[int(np.argmax(c.objectives))]) for key, c in zip(keys, curves)
    }
    lossless = [c.objectives.max() for c in curves if c.kappa == 0.0]
    if lossless:
        summary["max_objective_kappa_0"] = float(max(lossless))
    _emit_json("sweep", config_hash, summary)
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
    _emit_json("entangle", _config_hash(options), payload)
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: ``main``
    called in process reuses it instead of leaving a parser's reference
    cycles to the garbage collector on every call."""
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
