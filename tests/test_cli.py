import hashlib
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from bjjctrl import cli
from bjjctrl.dynamics import ControlSchedule

CLI = [sys.executable, "-m", "bjjctrl.cli"]


def run_cli(*args):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=900
    )
    return proc.returncode, proc.stdout, proc.stderr


def main_in_process(capsys, *args):
    """``cli.main`` in this process; argparse's exit becomes a return code."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def read_csv(path):
    meta = {}
    rows = []
    header = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(tok) for tok in line.split(",")])
    return meta, header, np.array(rows)


# ---------------------------------------------------------------------------
# duration

def test_duration_roots_match_reference_values(tmp_path):
    code, out, _ = run_cli("duration", "--profile", "original")
    assert code == 0
    assert json.loads(out)["root"] == pytest.approx(77.724, abs=0.05)

    out_file = tmp_path / "fast.csv"
    code, out, _ = run_cli("duration", "--profile", "fast", "--out", str(out_file))
    assert code == 0
    assert json.loads(out)["root"] == pytest.approx(15.665, abs=0.05)
    meta, header, rows = read_csv(out_file)
    assert header == ["T", "lhs"]
    assert meta["command"] == "duration"
    assert "config_hash" in meta and "version" in meta
    # last row is the root itself, where the curve sits at pi
    assert rows[-1, 1] == pytest.approx(math.pi, abs=1e-6)


def test_duration_without_crossing_fails_numerically():
    code, _, err = run_cli("duration", "--profile", "fast", "--grid-max", "5")
    assert code == 3
    assert "crossing" in err


@pytest.mark.parametrize("flags,named", [
    (("--grid-max", "inf"), "--grid-max must be finite, got inf"),
    (("--grid-min", "nan"), "--grid-min must be finite, got nan"),
    (("--grid-step", "inf", "--out", "never.csv"), "--grid-step must be finite, got inf"),
    (("--grid-step", "1e-17"), "scan step 1e-17 does not advance past T = 0.5"),
])
def test_duration_rejects_grid_that_cannot_be_scanned(tmp_path, monkeypatch, capsys, flags, named):
    monkeypatch.chdir(tmp_path)
    code, out, err = main_in_process(capsys, "duration", "--profile", "fast", *flags)
    assert code == 2 and out == ""
    assert named in err
    assert not (tmp_path / "never.csv").exists()


# ---------------------------------------------------------------------------
# shortcut + simulate

def test_shortcut_reaches_maximum(tmp_path):
    out_file = tmp_path / "fast_run.csv"
    code, out, _ = run_cli(
        "shortcut", "--profile", "fast", "--steps", "4000", "--out", str(out_file)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["final_concurrence_norm"] == pytest.approx(2.4142, abs=1e-3)
    wrapped = (doc["theta"] - doc["zeta"] + math.pi) % (2 * math.pi) - math.pi
    assert math.cos(doc["theta"] - doc["zeta"]) == pytest.approx(-1.0, abs=1e-9)
    meta, header, rows = read_csv(out_file)
    assert header[:3] == ["t", "u", "j"]
    assert rows[-1, 5] == pytest.approx(2.4142, abs=1e-3)
    assert np.max(rows[:, 6]) < 1e-9  # conserved one-quantum population
    assert np.max(rows[:, 7]) < 1e-9


def test_shortcut_with_loss_applies_decay_factor():
    code, out, _ = run_cli(
        "shortcut", "--profile", "fast", "--kappa", "0.05", "--steps", "4000"
    )
    assert code == 0
    doc = json.loads(out)
    want = 2.41421 * math.exp(-0.05 * doc["T"])
    assert doc["final_concurrence_norm"] == pytest.approx(want, abs=1e-3)


def test_shortcut_rejects_empty_junction():
    code, _, err = run_cli("shortcut", "--profile", "fast", "--alpha", "0")
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_shortcut_rejects_non_finite_duration(duration):
    code, out, err = run_cli("shortcut", "--profile", "fast", "--T", duration)
    assert code == 2 and out == ""
    assert err == f"configuration error: duration must be finite and positive, got {duration}\n"


def test_simulate_roundtrip(tmp_path):
    sched_file = tmp_path / "controls.csv"
    code, out, _ = run_cli(
        "shortcut", "--profile", "fast", "--steps", "100",
        "--samples", "2001", "--out", str(sched_file),
    )
    assert code == 0
    solved = json.loads(out)["T"]
    code, out, _ = run_cli(
        "simulate", "--schedule", str(sched_file), "--steps", "4000"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["T"] == pytest.approx(solved, rel=1e-12)
    assert doc["final_concurrence_norm"] == pytest.approx(2.4142, abs=1e-3)


def test_simulate_rejects_missing_file(tmp_path):
    code, _, err = run_cli("simulate", "--schedule", str(tmp_path / "nope.csv"))
    assert code == 2


def test_simulate_rejects_non_numeric_row(tmp_path):
    sched_file = tmp_path / "bad.csv"
    sched_file.write_text("t,u,j\n0,0.5,0.1\n1,oops,0.1\n2,0.5,0.1\n3,0.5,0.1\n")
    code, out, err = run_cli("simulate", "--schedule", str(sched_file))
    assert code == 2
    assert "oops" in err and out == ""


# ---------------------------------------------------------------------------
# optimization commands

def test_optimize_at_t7(tmp_path):
    out_file = tmp_path / "controls.csv"
    code, out, _ = run_cli("optimize", "--T", "7", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] >= 2.402
    assert doc["converged"] is True
    meta, header, rows = read_csv(out_file)
    assert header == ["segment", "t_start", "u", "j"]
    assert rows.shape[0] == 100
    assert rows[:, 2].max() <= 1.0 + 1e-9
    assert rows[:, 3].max() <= 0.25 + 1e-9


def test_optimize_rejects_negative_seeds():
    code, out, err = run_cli("optimize", "--T", "3", "--seeds", "-1")
    assert code == 2
    assert "seeds" in err and out == ""


def test_mintime_window():
    code, out, _ = run_cli("mintime", "--seeds", "6")
    assert code == 0
    doc = json.loads(out)
    assert 6.3 <= doc["minimum_time"] <= 7.2


def test_sweep_curves_and_determinism(tmp_path):
    args = (
        "sweep", "--T", "2:6:1", "--kappa", "0,0.05", "--segments", "40",
        "--seeds", "2", "--max-iter", "300",
    )
    file_a = tmp_path / "a.csv"
    file_b = tmp_path / "b.csv"
    code_a, out_a, _ = run_cli(*args, "--out", str(file_a))
    code_b, out_b, _ = run_cli(*args, "--out", str(file_b))
    assert code_a == code_b == 0
    assert out_a == out_b
    assert file_a.read_bytes() == file_b.read_bytes()

    meta, header, rows = read_csv(file_a)
    assert header == ["kappa", "T", "objective"]
    lossless = rows[rows[:, 0] == 0.0]
    lossy = rows[rows[:, 0] == 0.05]
    assert np.all(np.diff(lossless[:, 2]) >= -1e-3)
    np.testing.assert_allclose(
        lossy[:, 2], lossless[:, 2] * np.exp(-0.05 * lossless[:, 1]), atol=1e-12
    )


@pytest.mark.parametrize("grid", ["1:inf:1", "1:2:nan", "nan:2:1"])
def test_sweep_rejects_non_finite_grid(capsys, grid):
    code, out, err = main_in_process(capsys, "sweep", "--T", grid)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: duration grid")


@pytest.mark.parametrize("argv", [
    ("optimize", "--T", "2"),
    ("mintime",),
    ("sweep", "--T", "1:2:1"),
])
@pytest.mark.parametrize("bounds", ["-1,0.25", "1,-0.25", "inf,0.25", "1,nan"])
def test_optimiser_commands_reject_invalid_bounds(capsys, argv, bounds):
    code, out, err = main_in_process(
        capsys, *argv, f"--bounds={bounds}", "--segments", "4", "--seeds", "0", "--max-iter", "5",
    )
    assert code == 2 and out == ""
    assert "bounds" in err


# ---------------------------------------------------------------------------
# written CSV bytes

#: sha256 of each CSV, as the csv-module writer wrote it; the file name is
#: part of simulate's config line, so the runs share one directory.
CSV_SHA256 = [
    (("shortcut", "--profile", "fast", "--steps", "200", "--out", "shortcut.csv"),
     "49390bbaaa069afb62e5c485d18f87081d6fd5e9326e2907f8209a0b6018d9a0",
     "f6fa3d9110daca8fbb2fbcaeffe5d0054ebd097ee713745aaaffc3757463adb6"),
    (("simulate", "--schedule", "shortcut.csv", "--steps", "200", "--out", "simulate.csv"),
     "5ce2e029eda6f46561a291bfd63210312deadd2035e2bc7cb0e1a78d4ae9aaf7",
     "2307b4aa11af8a89180767f93b4dd363e3c5674f5da2dd0babd05b96d2fe3361"),
    (("optimize", "--T", "3", "--segments", "10", "--seeds", "1", "--out", "optimize.csv"),
     "0f8dc57fcc1b4715a3b294de0476a637288158c0c817960544625e4e9c6bf224",
     "35a807b96c4cb8d5fdfa65bc984d142ebdc01babb8aafb740d91808d0aa69537"),
    (("sweep", "--T", "1:2:0.5", "--segments", "4", "--seeds", "1", "--max-iter", "5",
      "--out", "sweep.csv"),
     "429f394ac835b7999630d685e0cc942553e23a81588135e41de4fa4bdad08274",
     "91ad09edf203857e5c72eb427c526faa2cc8d530797751b64c2e7e03a662c716"),
    (("duration", "--profile", "fast", "--out", "duration.csv"),
     "012dc7c6d8607acf3d9f33555ab14a7d9d7726593b6607cea7ddd8794d59e6f5",
     "16bfadfad622aafdda4a78cd307dd591cdfabfd9a36a6b4af199b22f0f335375"),
    (("shortcut", "--profile", "original", "--steps", "200", "--out", "shortcut_original.csv"),
     "355896995d91ce1f3d49172e8c28df4d59d66d0d40b80006415f7a9537201848",
     "736acb2c0e6d340cf1aeb1192441b3be51ce4f41db7fc1be5aa9f82acfb21e1a"),
]


def test_csv_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    """Each run's CSV and its stdout (T, theta and zeta of a shortcut
    included) are pinned byte for byte."""
    monkeypatch.chdir(tmp_path)
    for argv, csv_digest, stdout_digest in CSV_SHA256:
        code, out, err = main_in_process(capsys, *argv)
        assert code == 0, err
        written = (tmp_path / argv[-1]).read_bytes()
        assert hashlib.sha256(written).hexdigest() == csv_digest, argv[0]
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest, argv[0]


# ---------------------------------------------------------------------------
# entangle + config handling

def test_entangle_metrics_roundtrip():
    state = "0.995,0.070710678j,0.070710678j,0.0070710678,0,0"
    code, out, _ = run_cli("entangle", "--state", state, "--alpha", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["concurrence_normalized"] == pytest.approx(1 + math.sqrt(2), abs=1e-6)
    assert doc["eigenvalues"][0] == pytest.approx(1.0, abs=1e-3)
    assert doc["entropy_bits"] == pytest.approx(
        doc["entropy_of_concurrence_bits"], abs=1e-4
    )


def test_entangle_rejects_malformed_state():
    code, _, err = run_cli("entangle", "--state", "1,2,3")
    assert code == 2
    assert "6" in err


def test_config_file_supplies_options(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"profile": "fast", "grid_max": 40.0}))
    code, out, _ = run_cli("duration", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["root"] == pytest.approx(15.665, abs=0.05)


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"profile": "original"}))
    code, out, _ = run_cli("duration", "--profile", "fast", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["root"] == pytest.approx(15.665, abs=0.05)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"profile": "fast", "bogus_knob": 1}))
    code, _, err = run_cli("duration", "--config", str(cfg))
    assert code == 2
    assert "bogus_knob" in err


def test_missing_required_option_rejected():
    code, _, err = run_cli("duration")
    assert code == 2
    assert "profile" in err


def test_config_numbers_hash_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"profile": "fast", "grid_max": 40}))
    code, out, _ = main_in_process(capsys, "duration", "--config", str(cfg))
    assert code == 0
    code, flag_out, _ = main_in_process(capsys, "duration", "--profile", "fast", "--grid-max", "40")
    assert code == 0
    assert json.loads(out)["config_hash"] == json.loads(flag_out)["config_hash"]


@pytest.mark.parametrize("entry", [{"steps": 150.7}, {"alpha": True}, {"profile": "slow"}])
def test_config_values_are_checked_like_flags(tmp_path, capsys, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"profile": "fast", **entry}))
    code, out, err = main_in_process(capsys, "shortcut", "--config", str(cfg))
    assert code == 2 and out == ""
    assert next(iter(entry)) in err


def test_config_null_leaves_option_unset(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"profile": None, "grid_max": None}))
    code, out, err = main_in_process(capsys, "duration", "--config", str(cfg))
    assert code == 2 and "--profile" in err
    code, out, _ = main_in_process(capsys, "duration", "--profile", "fast", "--config", str(cfg))
    assert code == 0
    code, plain, _ = main_in_process(capsys, "duration", "--profile", "fast")
    assert json.loads(out)["config_hash"] == json.loads(plain)["config_hash"]


@pytest.mark.parametrize("argv", [
    ("shortcut", "--profile", "fast"),
    ("simulate", "--schedule", "x.csv"),
    ("optimize", "--T", "3"),
    ("mintime",),
    ("sweep",),
    ("entangle", "--state", "1,0,0,0,0,0"),
])
@pytest.mark.parametrize("alpha", ["0", "-0.1", "nan"])
def test_alpha_must_be_positive(capsys, argv, alpha):
    code, out, err = main_in_process(capsys, *argv, "--alpha", alpha)
    assert code == 2 and out == ""
    assert "alpha" in err


def test_optimize_rejects_negative_max_iter(capsys):
    code, out, err = main_in_process(capsys, "optimize", "--T", "3", "--max-iter", "-1")
    assert code == 2
    assert "max_iter" in err and out == ""


def test_sweep_without_lossless_rate_prints_strict_json(capsys):
    code, out, _ = main_in_process(
        capsys, "sweep", "--T", "1:2:1", "--kappa", "0.05", "--segments", "4",
        "--seeds", "0", "--max-iter", "5",
    )
    assert code == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    doc = json.loads(out, parse_constant=refuse)
    assert set(doc) == {"command", "config_hash", "argmax_T_kappa_0.05"}


def test_non_finite_result_is_a_numerical_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "minimum_time", lambda *a, **k: float("nan"))
    code, out, err = main_in_process(capsys, "mintime")
    assert code == 3 and out == ""
    assert "non-finite" in err


# ---------------------------------------------------------------------------
# the CLI surface: option strings and config hashes per subcommand

COMMON_FLAGS = {"-h", "--help", "--config"}
OPTIMISER_FLAGS = {"--bounds", "--segments", "--seeds", "--alpha", "--base-seed", "--max-iter"}
FLAGS = {
    "duration": {"--profile", "--knots", "--grid-min", "--grid-max", "--grid-step", "--out"},
    "shortcut": {"--profile", "--knots", "--alpha", "--kappa", "--omega", "--T", "--steps",
                 "--samples", "--out"},
    "simulate": {"--schedule", "--alpha", "--kappa", "--omega", "--steps", "--out"},
    "optimize": OPTIMISER_FLAGS | {"--T", "--kappa", "--out"},
    "mintime": OPTIMISER_FLAGS | {"--epsilon"},
    "sweep": OPTIMISER_FLAGS | {"--T", "--kappa", "--out"},
    "entangle": {"--state", "--alpha"},
}


@pytest.mark.parametrize("argv", [("duration",), ("shortcut", "--T", "10", "--steps", "10")])
@pytest.mark.parametrize("knots", ["x", "0.9,0.2", "1.5,0.2,0.8", "0.9,0.8,0.2", "nan,0.2,0.8"])
def test_knots_are_checked_for_every_profile(capsys, argv, knots):
    """The knots enter every run's config hash, so the original profile,
    which does not use them, must not accept malformed ones either."""
    code, out, err = main_in_process(capsys, *argv, "--profile", "original", "--knots", knots)
    assert code == 2 and out == ""
    assert "knots" in err or "s0" in err


def test_subcommand_flags():
    subparsers = cli._build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(FLAGS)
    for name, sub in subparsers.items():
        flags = {s for action in sub._actions for s in action.option_strings}
        assert flags == FLAGS[name] | COMMON_FLAGS, name


@pytest.mark.parametrize("argv, config_hash", [
    (("duration", "--profile", "fast"), "4e1cc4d158f4"),
    (("shortcut", "--profile", "fast"), "0db2538608bb"),
    (("simulate", "--schedule", "x.csv"), "d3c27ff65697"),
    (("optimize", "--T", "7"), "39caf1c93735"),
    (("mintime",), "2b5fa3402463"),
    (("sweep",), "da803e6c572f"),
    (("entangle", "--state", "1,0,0,0,0,0"), "f7faf703a4ab"),
])
def test_config_hash_of_flag_runs_is_pinned(monkeypatch, capsys, argv, config_hash):
    """The hash covers each option's value and type; a default or converter
    that drifts changes it, and with it every written CSV's metadata."""
    real_propagate = cli.propagate
    best = SimpleNamespace(segments=2, u=np.zeros(2), j=np.zeros(2))
    monkeypatch.setattr(cli, "propagate", lambda s, sched, p, steps: real_propagate(s, sched, p, 10))
    monkeypatch.setattr(cli, "solve_duration", lambda *a, **k: 15.0)
    monkeypatch.setattr(cli, "_load_schedule", lambda path: ControlSchedule(
        np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([0.1, 0.1])))
    monkeypatch.setattr(cli, "maximize", lambda *a, **k: SimpleNamespace(
        best=best, objective=1.0, iterations=1, converged=True, seed=0))
    monkeypatch.setattr(cli, "minimum_time", lambda *a, **k: 6.5)
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: [])
    code, out, _ = main_in_process(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config_hash"] == config_hash
