"""Benchmark of the bjjctrl command line, end to end and per module.

    python3 bench/run.py --workload {shortcut,optimize,mintime} --seed N \
        --seconds S --trace {0,1}

Runs whole passes of the workload's CLI operations in this process, through
``bjjctrl.cli.main``, until the next pass would end past ``--seconds``
(at least one pass).  With ``--trace 0`` the passes run untraced and the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
passes alternate and the per-module metrics are printed, with the tracing
overhead.  End-to-end times are given at a fixed reference speed of the
machine (see ``speed.py``).  Outputs are checked after the timed passes.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Progress and check failures go to stderr.  Run it from the
repository root with BLAS threads pinned to 1, as BENCHMARK.json's command
does.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import speed
import workloads
from tracing import Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
OBJECTIVE_CALLS = 100
GRADIENT_CALLS = 30
MODULES = ("cli", "shortcuts", "dynamics", "entanglement", "optimal_control")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def measure_setup(sampler, name, seed, size):
    """Median over fresh interpreters of importing numpy and bjjctrl, plus
    generating the workload's inputs, at reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def set_up():
        subprocess.run([sys.executable, "-c", "import numpy, bjjctrl.cli"],
                       env=env, check=True, timeout=120)
        workloads.build(name, seed, size)

    return statistics.median(sampler.time(set_up)[2] for _ in range(SETUP_REPEATS))


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, workload, directory, sampler, tracer=None, first_task=0):
    directory.mkdir(parents=True)
    result = workloads.PassOutput(directory)

    def run_ops():
        for index, op in enumerate(workload.ops):
            try:
                argv = op.argv(result.docs)
            except KeyError:  # an earlier operation it depends on failed
                result.codes[op.name] = None
                continue
            if tracer is not None:
                tracer.task = first_task + index
            code, stdout, stderr = invoke(cli, argv)
            result.codes[op.name] = code
            result.errors[op.name] = stderr
            if code == 0:
                result.docs[op.name] = json.loads(stdout)

    cwd = os.getcwd()
    os.chdir(directory)
    try:
        _, result.wall_s, result.reference_s = sampler.time(run_ops)
    finally:
        os.chdir(cwd)
    return result


def check_pass(workload, output, first):
    """Failure messages per operation name; empty when all passed."""
    failures = {}
    for op in workload.ops:
        code = output.codes.get(op.name)
        if code != 0:
            tail = output.errors.get(op.name, "").strip().splitlines()[-1:]
            failures[op.name] = f"exit code {code} {' '.join(tail)}"
            continue
        try:
            op.check(output)
            if op.out is not None and output is not first:
                same = (output.directory / op.out).read_bytes() == (first.directory / op.out).read_bytes()
                checks.require(same, f"{op.out} bytes differ from the first pass")
        except (checks.CheckFailed, KeyError, OSError) as exc:
            failures[op.name] = f"{type(exc).__name__}: {exc}"
    return failures


def time_calls(fn, calls):
    times = []
    for _ in range(calls):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def objective_timings(workload, output):
    """Median ms of one public objective and one objective_gradient call on
    the workload's answer, untraced."""
    from bjjctrl.dynamics import symmetric_preparation
    from bjjctrl.optimal_control import ControlVector, objective, objective_gradient

    u, j, duration = workload.answer(output)
    cv = ControlVector(u=u, j=j, duration=duration)
    prep = symmetric_preparation(workload.alpha)
    return (1e3 * time_calls(lambda: objective(cv, prep), OBJECTIVE_CALLS),
            1e3 * time_calls(lambda: objective_gradient(cv, prep), GRADIENT_CALLS))


def unit_of(name):
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_metrics(summary, csv_bytes):
    self_s, calls, total_s, counts = (summary[k] for k in ("self_s", "calls", "total_s", "counts"))

    def per_call_ms(key):
        return 1e3 * total_s[key] / calls[key] if calls[key] else 0.0

    propagate_s = total_s["dynamics.propagate"]
    rk4_steps = counts["dynamics.rk4_steps"]
    metrics = {f"{m}.self_s": self_s[m] for m in MODULES}
    metrics.update({
        "cli.csv_bytes": csv_bytes,
        "shortcuts.solve_duration_s": total_s["shortcuts.solve_duration"],
        "shortcuts.duration_lhs_calls": calls["shortcuts.duration_lhs"],
        "shortcuts.duration_lhs_ms": per_call_ms("shortcuts.duration_lhs"),
        "shortcuts.counterdiabatic_controls_ms": per_call_ms("shortcuts.counterdiabatic_controls"),
        "dynamics.propagate_calls": calls["dynamics.propagate"],
        "dynamics.propagate_s": propagate_s,
        "dynamics.rk4_steps": rk4_steps,
        "dynamics.rk4_steps_per_s": rk4_steps / propagate_s if propagate_s else 0.0,
        "entanglement.dominant_trace_ms": per_call_ms("entanglement.dominant_trace"),
        "optimal_control.maximize_calls": calls["optimal_control.maximize"],
        "optimal_control.maximize_s": total_s["optimal_control.maximize"],
        "optimal_control.winner_iterations": counts["optimal_control.iterations"],
        "optimal_control.minimum_time_s": total_s["optimal_control.minimum_time"],
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny shrinks every workload, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "bjjctrl" / "cli.py").is_file():
        log(f"bjjctrl sources not found under {SRC}; run from a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from bjjctrl import cli

    workload = workloads.build(args.workload, args.seed, args.size)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    modules = [sys.modules[f"bjjctrl.{m}"] for m in MODULES]

    passes, traced, summaries = [], [], []
    with speed.Sampler() as sampler:
        setup_s = measure_setup(sampler, args.workload, args.seed, args.size)
        start = perf_counter()
        while True:
            output = run_pass(cli, workload, run_dir / f"pass{len(passes) + len(traced)}", sampler)
            passes.append(output)
            log(f"{args.workload} pass {len(passes)}: {output.wall_s:.3f} s,"
                f" {output.reference_s:.3f} s at reference speed")
            if tracer is not None:
                first_span = len(tracer.spans)
                tracer.install(modules)
                try:
                    output = run_pass(cli, workload, run_dir / f"pass{len(passes) + len(traced)}",
                                      sampler, tracer, first_task=len(workload.ops) * len(traced))
                finally:
                    tracer.uninstall()
                traced.append(output)
                summaries.append(summarize(tracer.spans[first_span:]))
                log(f"{args.workload} traced pass {len(traced)}: {output.wall_s:.3f} s,"
                    f" {output.reference_s:.3f} s at reference speed")
            elapsed = perf_counter() - start
            if elapsed * (1 + 1 / len(passes)) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_passes = passes + traced
    attempted = failed = 0
    correct = True
    for output in all_passes:
        failures = check_pass(workload, output, all_passes[0])
        attempted += len(workload.ops)
        failed += len(failures)
        for op in workload.ops:
            if op.name in failures:
                log(f"FAILED {op.name} in {output.directory.name}: {failures[op.name]}"
                    + (f" (known fault: {op.known_fault})" if op.known_fault else ""))
                correct = correct and op.known_fault is not None
    answered = [p for p in all_passes if all(c == 0 for c in p.codes.values())]

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p.reference_s for p in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "concurrence_norm": (min((workload.concurrence(p.docs) for p in answered), default=0.0), "1"),
            "min_time": (min((workload.min_time(p.docs) for p in answered), default=0.0), "1/E0"),
        }
    else:
        tracer.write(run_dir / "trace.json")
        layer = {}
        for summary, output in zip(summaries, traced):
            csv_bytes = sum((output.directory / op.out).stat().st_size
                            for op in workload.ops if op.out and output.codes.get(op.name) == 0)
            for key, value in per_layer_metrics(summary, csv_bytes).items():
                layer.setdefault(key, []).append(value)
        metrics = {key: (statistics.median_low(values), unit_of(key)) for key, values in layer.items()}
        objective_ms, gradient_ms = objective_timings(workload, answered[0]) if answered else (0.0, 0.0)
        overhead_s = (statistics.median(p.reference_s for p in traced)
                      - statistics.median(p.reference_s for p in passes))
        metrics.update({
            "optimal_control.objective_ms": (objective_ms, "ms"),
            "optimal_control.objective_gradient_ms": (gradient_ms, "ms"),
            "trace.overhead_s": (overhead_s, "s"),
        })

    for output in all_passes:
        shutil.rmtree(output.directory, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
