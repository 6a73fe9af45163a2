"""Self-test of the benchmark: it runs every workload at a tiny size, and
every check must reject a tampered output.

    python3 -m pytest -q bench/selftest
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from bjjctrl import cli  # noqa: E402

SEED = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    if workload == "optimize":  # the replay of optimised controls fails every time
        assert result["failed"] * 2 == result["attempted"]
        assert result["correct"]
    if workload == "shortcut":
        assert result["failed"] == 0 and result["correct"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shortcut", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One tiny pass of shortcut and optimize, run in this process."""
    base = tmp_path_factory.mktemp("passes")
    out = {}
    with speed.Sampler() as sampler:
        for name in ("shortcut", "optimize"):
            workload = workloads.build(name, SEED, "tiny")
            out[name] = (workload, run.run_pass(cli, workload, base / name, sampler))
    return out


def test_real_outputs_pass_every_check_but_the_known_fault(passes):
    for name, (workload, output) in passes.items():
        failures = run.check_pass(workload, output, output)
        faulty = {op.name for op in workload.ops if op.known_fault}
        assert set(failures) == faulty, failures


def _tamper(output, directory, filename=None, column=None, row=None, edit=None, doc=None):
    shutil.copytree(output.directory, directory)
    docs = copy.deepcopy(output.docs)
    if doc is not None:
        op, key, change = doc
        docs[op][key] = change(docs[op][key])
    if filename is not None:
        path = directory / filename
        lines = path.read_text().splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        index = lines[start].strip().split(",").index(column)
        data = list(range(start + 1, len(lines)))
        fields = lines[data[row]].rstrip("\n").split(",")
        fields[index] = repr(edit(float(fields[index])))
        lines[data[row]] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
    return workloads.PassOutput(directory, docs, dict(output.codes), dict(output.errors))


TAMPERED = {
    "duration root": ("shortcut", "duration_original", {"doc": ("duration_original", "root", lambda v: v + 0.1)}),
    "curve at the root": ("shortcut", "duration_fast",
                          {"filename": "lhs_fast.csv", "column": "lhs", "row": -1, "edit": lambda v: v + 1e-3}),
    "curve crosses early": ("shortcut", "duration_fast",
                            {"filename": "lhs_fast.csv", "column": "lhs", "row": 20, "edit": lambda v: 4.0}),
    "phase condition": ("shortcut", "fast", {"doc": ("fast", "theta", lambda v: v + 0.01)}),
    "delivery": ("shortcut", "original", {"doc": ("original", "final_concurrence_norm", lambda v: v - 0.01)}),
    "ceiling": ("shortcut", "fast",
                {"filename": "fast.csv", "column": "concurrence_norm", "row": 100, "edit": lambda v: 2.5}),
    "conservation": ("shortcut", "fast",
                     {"filename": "fast.csv", "column": "two_quanta_residual", "row": 7, "edit": lambda v: v + 1e-9}),
    "trace vs answer": ("shortcut", "original",
                        {"filename": "original.csv", "column": "concurrence_norm", "row": -1,
                         "edit": lambda v: v + 1e-12}),
    "loss factorisation": ("shortcut", "lossy",
                           {"filename": "lossy.csv", "column": "concurrence_norm", "row": 500,
                            "edit": lambda v: v + 1e-7}),
    "simulate delivery": ("shortcut", "replay", {"doc": ("replay", "final_concurrence_norm", lambda v: v - 0.01)}),
    "expm objective": ("optimize", "optimize",
                       {"filename": "controls.csv", "column": "u", "row": 3,
                        "edit": lambda v: v - 1e-6 if v > 0.5 else v + 1e-6}),  # stays in bounds
    "reported objective": ("optimize", "optimize", {"doc": ("optimize", "objective", lambda v: v + 1e-8)}),
    "bounds": ("optimize", "optimize",
               {"filename": "controls.csv", "column": "j", "row": 0, "edit": lambda v: 0.3}),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_check_rejects_tampered_output(case, passes, tmp_path):
    name, op, tamper = TAMPERED[case]
    workload, output = passes[name]
    tampered = _tamper(output, tmp_path / "p", **tamper)
    failures = run.check_pass(workload, tampered, tampered)
    assert op in failures


def test_changed_csv_bytes_across_passes_fail(passes, tmp_path):
    workload, output = passes["optimize"]
    second = _tamper(output, tmp_path / "p")
    path = second.directory / "controls.csv"  # same values, other metadata bytes
    path.write_text(path.read_text().replace("command=optimize", "command=optimise"))
    assert "optimize" in run.check_pass(workload, second, output)
    assert "optimize" not in run.check_pass(workload, _tamper(output, tmp_path / "q"), output)


def test_mintime_window():
    checks.minimum_time({"minimum_time": 6.4375})
    for bad in (6.25, 7.25):
        with pytest.raises(checks.CheckFailed):
            checks.minimum_time({"minimum_time": bad})
