import json
import math
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "bjjctrl.cli"]


def run_cli(*args):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=900
    )
    return proc.returncode, proc.stdout, proc.stderr


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
