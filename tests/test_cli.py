import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bjjctrl
from bjjctrl import cli, optimal_control, shortcuts
from bjjctrl.dynamics import ControlSchedule, ControlVector, Trajectory
from bjjctrl.optimal_control import OptimizationResult

CLI = [sys.executable, "-m", "bjjctrl.cli"]
#: The CLI runs the bjjctrl these tests import, also when pytest put it on
#: the path itself.
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    ),
}


def run_cli(*args):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=900, env=ENV
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


def test_duration_refuses_grid_of_too_many_points(tmp_path, monkeypatch, capsys):
    # 0.5 + 1e-15 > 0.5, so the scan would advance through about 1.5e16
    # points below the root; only the point count stops it and its --out grid
    monkeypatch.chdir(tmp_path)
    code, out, err = main_in_process(
        capsys, "duration", "--profile", "fast", "--grid-step", "1e-15", "--out", "never.csv",
    )
    assert code == 2 and out == ""
    assert "scan step 1e-15 gives more than 1000000 points" in err
    assert not (tmp_path / "never.csv").exists()


def test_duration_curve_is_the_scanned_grid(tmp_path, monkeypatch, capsys):
    """With a step whose multiples round, the --out curve, less its root
    row, is the scan's grid bit for bit, and the scan walked its prefix."""
    scanned = []
    real_lhs = shortcuts.duration_lhs

    def recording(profile, duration):
        if np.ndim(duration):  # a scan block; bisection steps are scalars
            scanned.extend(duration.tolist())
        return real_lhs(profile, duration)

    monkeypatch.setattr(shortcuts, "duration_lhs", recording)
    monkeypatch.chdir(tmp_path)
    code, _, _ = main_in_process(
        capsys, "duration", "--profile", "fast", "--grid-step", "0.3", "--out", "curve.csv",
    )
    assert code == 0
    _, _, rows = read_csv(tmp_path / "curve.csv")
    curve = rows[:-1, 0].tolist()
    assert curve == shortcuts.duration_grid(0.5, 300.0, 0.3).tolist()
    assert scanned and scanned == curve[: len(scanned)]
    assert curve[-1] <= 300.0 < curve[-1] + 0.3


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


def test_trace_columns_are_built_only_for_out(tmp_path, monkeypatch, capsys):
    """Without ``--out`` a trace prints its summary and builds no CSV column,
    the manifold populations among them."""
    monkeypatch.chdir(tmp_path)
    argv = ("shortcut", "--profile", "fast", "--T", "15", "--steps", "200")
    code, want, _ = main_in_process(capsys, *argv)
    assert code == 0

    def refuse(self):
        raise AssertionError("populations built for a run without --out")

    monkeypatch.setattr(Trajectory, "manifold_populations", refuse)
    assert main_in_process(capsys, *argv) == (0, want, "")
    with pytest.raises(AssertionError, match="without --out"):
        main_in_process(capsys, *argv, "--out", "trace.csv")


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


def test_simulate_replays_optimized_controls_exactly(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = main_in_process(
        capsys, "optimize", "--T", "7", "--segments", "20", "--seeds", "2", "--out", "x.csv"
    )
    assert code == 0, err
    objective = json.loads(out)["objective"]
    code, out, err = main_in_process(capsys, "simulate", "--schedule", "x.csv")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["T"] == 7.0
    assert abs(doc["final_concurrence_norm"] - objective) <= 1e-9


@st.composite
def written_controls(draw):
    """Finite controls on 1-200 segments and a duration in [0, 1e3]."""
    n = draw(st.integers(1, 200))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    u, j = (np.array(draw(st.lists(finite, min_size=n, max_size=n))) for _ in "uj")
    return ControlVector(u, j, draw(st.floats(0.0, 1e3)))


@settings(derandomize=True, deadline=None, database=None)
@given(written_controls())
def test_optimize_out_replays_bit_equal_property(controls):
    """Whatever controls ``maximize`` returns, ``optimize --out`` writes a
    schedule that loads back as the same u, j and T."""
    def found(duration, *args, **kwargs):
        assert duration == controls.duration
        return OptimizationResult(controls, 1.0, 3, True, 0, "flat")

    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(cli, "maximize", found)
        path = os.path.join(tmp, "controls.csv")
        assert cli.main(["optimize", f"--T={controls.duration!r}", "--out", path]) == 0
        loaded = cli._load_schedule(path)
    assert type(loaded) is ControlVector
    assert loaded.u.tobytes() == controls.u.tobytes()
    assert loaded.j.tobytes() == controls.j.tobytes()
    assert repr(loaded.duration) == repr(controls.duration)


#: Segments as ``optimize`` writes them: T from the config line, segment k
#: starting at k * T / N.
SEGMENTS = (
    '# config={"t": 2.0}\n'
    "segment,t_start,u,j\n0,0.0,0.5,0.1\n1,0.5,0.5,0.1\n2,1.0,0.5,0.1\n3,1.5,0.5,0.1\n"
)


@pytest.mark.parametrize("text, needle", [
    ("t,u,j\n0,0.5,0.1\n1,oops,0.1\n2,0.5,0.1\n3,0.5,0.1\n", "oops"),
    ("kappa,T,objective\n0.0,1.0,0.5\n0.0,2.0,1.5\n", "header"),
    ("T,lhs\n0.5,1.0\n1.0,2.0\n", "header"),
    ("0,0.5,0.1\n1,0.5,0.1\n", "header"),
    (SEGMENTS.split("\n", 1)[1], "config"),
    (SEGMENTS.replace("2,1.0,", "2,1.01,"), "grid"),
    ("t,u,j\n0,0.5,0.1\n1,0.5\n", "columns"),
], ids=["non_numeric", "sweep_csv", "duration_csv", "no_header", "segments_without_config",
        "segment_off_grid", "short_row"])
def test_simulate_rejects_non_numeric_row(tmp_path, capsys, text, needle):
    sched_file = tmp_path / "bad.csv"
    sched_file.write_text(text)
    code, out, err = main_in_process(capsys, "simulate", "--schedule", str(sched_file))
    assert code == 2
    assert err.startswith("configuration error") and needle in err and out == ""


@pytest.mark.parametrize("text", ["t,u,j\n", SEGMENTS.split("0,0.0", 1)[0]], ids=["sampled", "segments"])
def test_header_only_schedule_holds_no_samples(tmp_path, capsys, text):
    sched_file = tmp_path / "empty.csv"
    sched_file.write_text(text)
    code, out, err = main_in_process(capsys, "simulate", "--schedule", str(sched_file))
    assert (code, out) == (2, "")
    assert err == "configuration error: schedule file holds no samples\n"


def test_schedule_row_with_comment_text_is_non_numeric(tmp_path, capsys):
    sched_file = tmp_path / "noted.csv"
    sched_file.write_text("t,u,j\n0,0.5,0.1\n1,0.5,0.1 # note\n")
    code, out, err = main_in_process(capsys, "simulate", "--schedule", str(sched_file))
    assert (code, out) == (2, "")
    assert "non-numeric schedule row" in err and "# note" in err


def test_config_line_after_segment_header_is_honoured(tmp_path):
    config, rest = SEGMENTS.split("\n", 1)
    header, rows = rest.split("\n", 1)
    sched_file = tmp_path / "late_config.csv"
    sched_file.write_text(f"{header}\n{config}\n{rows}")
    loaded = cli._load_schedule(sched_file)
    assert type(loaded) is ControlVector and loaded.duration == 2.0
    assert loaded.u.tolist() == [0.5] * 4


def test_blank_lines_between_rows_are_skipped(tmp_path):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("t,u,j\n0,0.5,0.1\n1,0.25,0.2\n")
    spaced.write_text("\n  \nt,u,j\n0,0.5,0.1\n \t \n\n1,0.25,0.2\n   \n")
    a, b = cli._load_schedule(plain), cli._load_schedule(spaced)
    for column in ("times", "u", "j"):
        assert np.array_equal(getattr(a, column), getattr(b, column))


@st.composite
def sampled_controls(draw):
    """Strictly increasing times from 0 and finite u, j, subnormal and
    huge values included."""
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    times = [0.0, *sorted(draw(st.sets(positive, min_size=0, max_size=60)))]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    u, j = (draw(st.lists(finite, min_size=len(times), max_size=len(times))) for _ in "uj")
    return times, u, j


@settings(derandomize=True, deadline=None, database=None)
@given(sampled_controls())
def test_sampled_schedule_replays_bit_equal_property(columns):
    """Rows written as ``_write_csv`` writes them load back as the same
    times, u and j."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "schedule.csv")
        cli._write_csv(path, "shortcut", {}, cli._config_hash({}), ["t", "u", "j"], columns)
        loaded = cli._load_schedule(path)
    assert type(loaded) is ControlSchedule
    for got, want in zip((loaded.times, loaded.u, loaded.j), columns):
        assert got.tobytes() == np.array(want).tobytes()


def test_simulate_runaway_fails_with_one_line(tmp_path):
    """Every step is unitary whatever its size: under J = 1e6 and U = 0 the
    state stays a product state.  A rotation angle that overflows
    (J = 1e200) fails with one line and no warning."""
    steady = tmp_path / "steady.csv"
    steady.write_text("t,u,j\n0,0,1e6\n1,0,1e6\n")
    code, out, err = run_cli("simulate", "--schedule", str(steady), "--steps", "50")
    assert code == 0 and err == ""
    assert abs(json.loads(out)["peak_concurrence_norm"]) <= 1e-12
    runaway = tmp_path / "runaway.csv"
    runaway.write_text("t,u,j\n0,0,1e200\n1,0,1e200\n")
    code, out, err = run_cli("simulate", "--schedule", str(runaway), "--steps", "50")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "non-finite" in err and "Warning" not in err


@pytest.mark.parametrize("row", ["1.7e308,0", "0,-1.7e308"])
def test_simulate_controls_that_overflow_the_magnus_weighting_fail(tmp_path, capsys, row):
    """Finite samples whose weighted sums at the Gauss nodes overflow are a
    numerical failure, with one line and (the suite errors on warnings) no
    warning."""
    path = tmp_path / "huge.csv"
    path.write_text(f"t,u,j\n0,{row}\n1,{row}\n")
    code, out, err = main_in_process(capsys, "simulate", "--schedule", str(path), "--steps", "50")
    assert (code, out) == (3, "")
    assert err == "numerical failure: controls overflow in the Magnus step's node weighting\n"


@pytest.mark.parametrize("argv", [
    ("shortcut", "--profile", "fast", "--T", "10", "--steps", "10"),
    ("simulate", "--schedule", "flat.csv", "--steps", "10"),
    ("optimize", "--T", "2", "--segments", "4", "--seeds", "1"),
])
def test_negative_loss_rate_is_a_configuration_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flat.csv").write_text("t,u,j\n0,0,0\n1,0,0\n")
    code, out, err = main_in_process(capsys, *argv, "--kappa", "-0.1")
    assert (code, out) == (2, "")
    assert err == "configuration error: loss rate kappa must be >= 0\n"


def test_non_finite_frequency_is_a_configuration_error(capsys):
    code, out, err = main_in_process(
        capsys, "shortcut", "--profile", "fast", "--T", "10", "--steps", "10", "--omega", "nan"
    )
    assert (code, out) == (2, "")
    assert err == "configuration error: junction parameters must be finite\n"


def test_shortcut_trace_reads_back_as_its_schedule(tmp_path, monkeypatch, capsys):
    """A trace's t, u, j columns load as the same floats; its five trace
    columns are ignored."""
    monkeypatch.chdir(tmp_path)
    code, _, err = main_in_process(
        capsys, "shortcut", "--profile", "fast", "--steps", "200", "--out", "trace.csv"
    )
    assert code == 0, err
    _, header, rows = read_csv("trace.csv")
    assert header == cli._TRACE_HEADER
    schedule = cli._load_schedule("trace.csv")
    assert type(schedule) is ControlSchedule
    for got, column in zip((schedule.times, schedule.u, schedule.j), rows.T):
        assert np.array_equal(got, column)


@pytest.mark.parametrize("column, code", [(5, 0), (1, 2)])
def test_trace_rows_parse_only_the_schedule_columns(tmp_path, capsys, column, code):
    """A non-numeric field in a trace column past j still loads; in u it
    is a configuration error."""
    fields = ["0", "0.5", "0.1", "0", "0", "0", "0", "0"]
    fields[column] = "oops"
    header = ",".join(cli._TRACE_HEADER)
    sched_file = tmp_path / "trace.csv"
    sched_file.write_text(f"{header}\n{','.join(fields)}\n1,0.5,0.1,0,0,0,0,0\n")
    got, out, err = main_in_process(
        capsys, "simulate", "--schedule", str(sched_file), "--steps", "10"
    )
    assert got == code
    assert (out == "") == bool(code)
    assert ("non-numeric schedule row" in err) == bool(code)


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


@pytest.mark.parametrize("argv", [
    ("optimize", "--T", "3", "--seeds", "0"),
    ("mintime", "--seeds", "1", "--segments", "4"),
    ("sweep", "--T", "1:2:1", "--seeds", "1", "--segments", "4"),
])
def test_negative_base_seed_is_refused_by_name(capsys, argv):
    code, out, err = main_in_process(capsys, *argv, "--base-seed", "-1")
    assert (code, out, err) == (2, "", "configuration error: base_seed must be >= 0, got -1\n")


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


def test_sweep_cross_check_gap_is_a_numerical_failure(capsys, monkeypatch):
    real_objective = optimal_control.objective
    monkeypatch.setattr(optimal_control, "objective",
                        lambda *a, **k: real_objective(*a, **k) * (1.0 + 1e-9))
    code, out, err = main_in_process(
        capsys, "sweep", "--T", "1:2:1", "--kappa", "0,0.05", "--segments", "4",
        "--seeds", "1", "--max-iter", "5",
    )
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: lossy cross-check failed")


@pytest.mark.parametrize("grid", [
    "1:inf:1", "1:2:nan", "nan:2:1",
    # point counts of 1e12, infinity and 1e300: refused before the grid is built
    "1:2:1e-12", "1:1e308:1e-308", "1:2:1e-300",
])
def test_sweep_rejects_non_finite_grid(capsys, monkeypatch, grid):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid must be refused before any sweep")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    code, out, err = main_in_process(capsys, "sweep", "--T", grid)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: duration grid")


def test_sweep_grid_never_passes_its_stop(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        "sweep", "--T", "1:2:0.6", "--kappa", "0", "--segments", "4", "--seeds", "1",
        "--max-iter", "5", "--out", str(out_file),
    )
    assert code == 0
    _, _, rows = read_csv(out_file)
    assert rows[:, 1].tolist() == [1.0, 1.6]


@pytest.mark.parametrize("argv, named", [
    (("optimize", "--T", "2", "--bounds", "1,,0.25,"), "bounds list '1,,0.25,'"),
    (("optimize", "--T", "2", "--bounds", "1,0.25,"), "bounds list '1,0.25,'"),
    (("sweep", "--T", "1:2:1", "--kappa", "0,,0.05"), "kappa list '0,,0.05'"),
    (("sweep", "--T", "1:2:1", "--kappa", " "), "kappa list ' '"),
    (("duration", "--profile", "fast", "--knots", "0.9,0.2,,0.8"), "knots list '0.9,0.2,,0.8'"),
])
def test_empty_list_field_is_a_configuration_error(capsys, monkeypatch, argv, named):
    for name in ("maximize", "sweep", "solve_duration"):
        monkeypatch.setattr(cli, name, _refuse_to_run)
    code, out, err = main_in_process(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err


def test_list_values_may_carry_spaces(capsys):
    code, out, _ = main_in_process(
        capsys, "optimize", "--T", "2", "--bounds", " 1 , 0.25 ", "--segments", "4",
        "--seeds", "1", "--max-iter", "5",
    )
    assert code == 0 and json.loads(out)["T"] == 2.0


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a malformed list must be refused before any work")


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
     "fbcbe035291647970068606d407951d1a308cd3ee6a2b5e68fe6d53c125d2ef4",
     "920d1efe28049afb22a559913f61872a49d9195bb7102727e3a7c202da29f953"),
    (("simulate", "--schedule", "shortcut.csv", "--steps", "200", "--out", "simulate.csv"),
     "c61a06fc6cdf95dd62f45f61bbfbb395abed2032c42309c468b8cbfbd3fb1562",
     "0f9f1c2e562dcd48729b4b4e6edbc9747da6f1bc9630f2348c2a3621f4903935"),
    (("optimize", "--T", "3", "--segments", "10", "--seeds", "1", "--out", "optimize.csv"),
     "da94ae84db9631c524c4c65868b800d7479f0cfd44fe0ddff2a9caa5340c5c9c",
     "8957da0ceda2dd3836ec6e678282dc8e1c654c06a28404361f809d097b0b7998"),
    (("sweep", "--T", "1:2:0.5", "--segments", "4", "--seeds", "1", "--max-iter", "5",
      "--out", "sweep.csv"),
     "ca2d59ede72525c5dfae9f9c42964abf9056b52c791eae4f5659eb2530dfcb58",
     "02f0f30fee60fe3d6050c137b77820a69b31aa745b3d8dd3d4be7460229420de"),
    (("duration", "--profile", "fast", "--out", "duration.csv"),
     "222f3b1bc74e3f1f4eaa639b969d7cd8eb62f37d04e3c1b68811e4f2838ad76b",
     "493f1329b68d2f4f43dabe86aec2902a023ec6207ec1cec20a701a6ba2af4762"),
    (("shortcut", "--profile", "original", "--steps", "200", "--out", "shortcut_original.csv"),
     "61e85706336b38097ab7ddd043db8f19359073b0ff480d227248ac960c8f3ad0",
     "07582f8a0af1d8779480d6f7823d2a628f49261c0b0a86b8681300724fbb91b7"),
    (("shortcut", "--profile", "fast", "--kappa", "0.05", "--steps", "200",
      "--out", "shortcut_lossy.csv"),
     "991a7245df14bbef42ef303d5bbafcbab9754b26c1619b3ab1149bc47bd349d5",
     "563ff7c348c0f7a664756266f209954491e48044e2261d7080127053133b854a"),
]


def test_csv_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    """Each run's CSV and its stdout (T, theta and zeta of a shortcut
    included) are pinned byte for byte."""
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for argv, csv_digest, stdout_digest in CSV_SHA256:
        code, out, err = main_in_process(capsys, *argv)
        assert code == 0, err
        for what, data, digest in (("CSV", (tmp_path / argv[-1]).read_bytes(), csv_digest),
                                   ("stdout", out.encode(), stdout_digest)):
            found = hashlib.sha256(data).hexdigest()
            if found != digest:
                mismatches.append((" ".join(argv), what, found))
    assert not mismatches, "\n".join(f"{cmd}: {what} {found}" for cmd, what, found in mismatches)


#: Runs the ``CSV_SHA256`` commands in one process, in the working
#: directory, and prints their exit codes and stdouts, with the SIMD
#: dispatch levels numpy runs, as one JSON document.
PINNED_RUN = """
import contextlib, io, json, sys
from numpy._core import _multiarray_umath as umath
from bjjctrl import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append((cli.main(argv), out.getvalue()))
on = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
print(json.dumps({"runs": runs, "dispatch": on}))
"""


def dispatch_masks():
    """One ``NPY_DISABLE_CPU_FEATURES`` value per SIMD dispatch level this
    host runs: the level and every level above it, so that numpy falls
    back to the next level down, as on a host without it."""
    from numpy._core import _multiarray_umath as umath

    on = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return [" ".join(on[i:]) for i in range(len(on))]


def pinned_values(directory, mask):
    """Each ``CSV_SHA256`` command, run in a subprocess in ``directory``
    with the dispatch levels ``mask`` off, as (data, exact, numbers): its
    stdout and CSV bytes, the parts of them that must match exactly, and
    the stdout numbers followed by the CSV entries."""
    env = {k: v for k, v in ENV.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if mask:
        env["NPY_DISABLE_CPU_FEATURES"] = mask
    argvs = [list(argv) for argv, _, _ in CSV_SHA256]
    proc = subprocess.run([sys.executable, "-c", PINNED_RUN, json.dumps(argvs)], cwd=directory,
                          capture_output=True, text=True, timeout=900, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert not set(mask.split()) & set(doc["dispatch"]), doc["dispatch"]
    values = []
    for (code, out), argv in zip(doc["runs"], argvs):
        assert code == 0, argv
        printed = json.loads(out)
        numeric = sorted(k for k, v in printed.items() if type(v) in (int, float))
        meta, header, rows = read_csv(Path(directory) / argv[-1])
        exact = ({k: v for k, v in printed.items() if k not in numeric}, numeric, meta, header,
                 rows.shape)
        data = (out.encode(), (Path(directory) / argv[-1]).read_bytes())
        values.append((data, exact, np.concatenate(([printed[k] for k in numeric], rows.ravel()))))
    return values


def relative_gaps(want, got):
    """Per command, the largest gap of ``got``'s numbers from ``want``'s
    (both as ``pinned_values`` gives them), relative to their size but at
    least 1: the outputs are normalised to order 1, and the conservation
    residuals, relative already, are rounding noise.  Where the exact
    parts differ, the gap is infinite."""
    gaps = []
    for (_, want_exact, a), (_, exact, b) in zip(want, got):
        if exact != want_exact:
            gaps.append(math.inf)
        else:
            gaps.append(float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(abs(a), abs(b))))))
    return gaps


def test_pinned_commands_agree_across_simd_levels(tmp_path):
    """Down to X86_V3 (AVX2) every kernel the pinned commands call rounds
    alike, so each writes this host's bytes; below it complex multiply
    rounds differently, and every pinned value must still agree with this
    host's to 1e-12 relative."""
    masks = dispatch_masks()
    if not masks:
        pytest.skip("numpy dispatches no SIMD level above its baseline here")
    (tmp_path / "full").mkdir()
    want = pinned_values(tmp_path / "full", "")
    failures = []
    for i, mask in enumerate(masks):
        (tmp_path / str(i)).mkdir()
        got = pinned_values(tmp_path / str(i), mask)
        if "X86_V3" not in mask.split():
            for (argv, _, _), w, g in zip(CSV_SHA256, want, got):
                if w[0] != g[0]:
                    failures.append(f"{mask}: {' '.join(argv)}: bytes differ")
            continue
        for (argv, _, _), gap in zip(CSV_SHA256, relative_gaps(want, got)):
            if not gap <= 1e-12:
                failures.append(f"{mask}: {' '.join(argv)}: relative gap {gap:.3g}")
    assert not failures, "\n".join(failures)


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


#: Each command that takes --alpha, with its required options.
ALPHA_ARGVS = [
    ("shortcut", "--profile", "fast"),
    ("simulate", "--schedule", "x.csv"),
    ("optimize", "--T", "3"),
    ("mintime",),
    ("sweep",),
    ("entangle", "--state", "1,0,0,0,0,0"),
]


@pytest.mark.parametrize("argv", ALPHA_ARGVS)
@pytest.mark.parametrize("alpha", ["0", "-0.1", "nan"])
def test_alpha_must_be_positive(capsys, argv, alpha):
    code, out, err = main_in_process(capsys, *argv, "--alpha", alpha)
    assert code == 2 and out == ""
    assert "alpha" in err


#: The largest alpha whose square is not a normal float.
_ALPHA_SUBNORMAL = math.nextafter(math.sqrt(sys.float_info.min), 0.0)


@pytest.mark.parametrize("argv", ALPHA_ARGVS)
@pytest.mark.parametrize("alpha", ["1e-170", "1e-160", repr(_ALPHA_SUBNORMAL)])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_alpha_whose_square_is_not_normal_is_refused(tmp_path, capsys, argv, alpha, via):
    """C/alpha^2 would lose bits (alpha^2 subnormal) or be 0/0; the flag's
    refusal is argparse's usage block and one error line, the config
    file's one line."""
    if via == "flag":
        extra = ("--alpha", alpha)
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": float(alpha)}))
        extra = ("--config", str(cfg))
    code, out, err = main_in_process(capsys, *argv, *extra)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert "Warning" not in err and f"square underflows, got {alpha!r}" in lines[-1]
    if via == "config":
        assert len(lines) == 1
    else:
        assert lines[0].startswith("usage:")


def test_alpha_whose_square_is_normal_keeps_the_ratio(capsys):
    """C/alpha^2 does not depend on alpha: the smallest accepted alpha gives
    the default's ratio to rel 1e-15, about 5 ulps.  An alpha whose square is
    subnormal may only be refused: at 1e-160 the ratio would move by 5e-4."""
    smallest = repr(math.nextafter(_ALPHA_SUBNORMAL, 1.0))
    argv = ("shortcut", "--profile", "fast", "--steps", "50", "--samples", "11", "--alpha")
    ratios = {}
    for alpha in ("1e-160", smallest, "0.1"):
        code, out, err = main_in_process(capsys, *argv, alpha)
        if code == 0:
            assert err == ""
            ratios[alpha] = json.loads(out)["final_concurrence_norm"]
        else:
            assert code == 2 and float(alpha) ** 2 < sys.float_info.min
    assert smallest in ratios
    for alpha, ratio in ratios.items():
        assert ratio == pytest.approx(ratios["0.1"], rel=1e-15, abs=0), alpha


@pytest.mark.parametrize("argv, code", [
    (("shortcut", "--profile", "fast", "--steps", "50", "--samples", "11"), 2),
    (("entangle", "--state", "1,0,0,0,0,0"), 0),
])
def test_alpha_whose_square_overflows_is_treated_like_1e100(capsys, argv, code):
    """alpha^2 overflows to infinity at 1e160 without raising: ``shortcut``
    refuses it with the weak-pumping cap, as it does 1e100, and
    ``entangle`` reports the metrics it reports at 1e100."""
    runs = {alpha: main_in_process(capsys, *argv, "--alpha", alpha) for alpha in ("1e100", "1e160")}
    for alpha, (got, out, err) in runs.items():
        assert got == code, (alpha, err)
        if code == 2:
            assert out == "" and err.endswith("exceeds the weak-pumping cap 0.1\n")
            assert len(err.splitlines()) == 1 and "Warning" not in err
        else:
            assert err == ""
    if code == 0:
        docs = [json.loads(out) for _, out, _ in runs.values()]
        for doc in docs:
            del doc["config_hash"]
        assert docs[0] == docs[1]


@pytest.mark.parametrize("duration, ulp", [
    pytest.param(duration, ulp, id=duration) for duration, ulp in (
        ("1e200", "1.7e+184"), ("1e150", "1.82e+134"), ("1e100", "1.94e+84"),
        ("1e50", "2.08e+34"), ("1e30", "1.41e+14"), ("8388608", "1.86e-09"),
    )
])
def test_huge_shortcut_duration_fails_instead_of_passing_the_ceiling(capsys, tmp_path, duration, ulp):
    """Phases of order T carry no significant bits at T = 1e30 and above:
    the trace's concurrence passed the ceiling no evolution can exceed at
    1e50 and stayed below it, wrong, at 1e30, 1e100 and 1e150, and T^2
    overflowed at 1e200.  Every T from 2^23 up, where ulp(T) * E0 passes
    1e-9 rad, is a numerical failure, and no CSV is written."""
    message = (f"T = {float(duration)!r} is too long: its phases resolve to ulp(T) * E0 = "
               f"{ulp} rad, above 1e-09")
    out_csv = tmp_path / "trace.csv"
    code, out, err = main_in_process(
        capsys, "shortcut", "--profile", "fast", "--T", duration, "--steps", "50",
        "--samples", "11", "--out", str(out_csv),
    )
    assert (code, out, err) == (3, "", f"numerical failure: {message}\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("argv, message", [
    (("shortcut", "--profile", "fast", "--T", "1e-300"), "schedule samples must be finite"),
    (("optimize", "--T", "5e-324", "--segments", "4", "--seeds", "1", "--max-iter", "3"),
     "controls must be finite"),
])
def test_tiny_duration_is_refused_without_warnings(capsys, argv, message):
    """Rates of order 1/T overflow; the schedule types refuse the
    non-finite controls, and nothing warns on the way."""
    code, out, err = main_in_process(capsys, *argv)
    assert (code, out, err) == (2, "", f"configuration error: {message}\n")


EVERY_COMMAND = """
import contextlib, io, sys
from bjjctrl import cli
runs = (["duration", "--profile", "fast"],
        ["shortcut", "--profile", "fast", "--steps", "50", "--samples", "11", "--out", "trace.csv"],
        ["simulate", "--schedule", "trace.csv", "--steps", "50"],
        ["entangle", "--state", "1,0,0,0,0,0", "--alpha", "0.1"],
        ["optimize", "--T", "3", "--segments", "4", "--seeds", "2", "--max-iter", "5"],
        ["mintime", "--segments", "4", "--seeds", "1", "--max-iter", "5"],
        ["sweep", "--T", "1:3:1", "--segments", "4", "--seeds", "1", "--max-iter", "5"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, [m for m in ("numpy.random", "_hashlib", "numpy.polynomial") if m in sys.modules])
"""


def test_no_command_loads_numpy_random_openssl_or_numpy_polynomial(tmp_path):
    """Resident memory no command needs: ``numpy.random`` (about 5.4 MB,
    3.5 MB of it for the ``secrets`` → ``hmac`` → ``_hashlib`` chain that
    maps OpenSSL's libcrypto) would serve only the optimiser's random
    starts, which draw its stream without it; ``hashlib`` would serve one
    config hash, and ``numpy.polynomial`` two profile helpers."""
    proc = subprocess.run([sys.executable, "-c", EVERY_COMMAND], cwd=tmp_path,
                          capture_output=True, text=True, timeout=900, env=ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0, 0, 0, 0, 0, 0] []\n", "")


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(st.binary(min_size=130, max_size=130), st.binary(max_size=1000))
def test_sha256_matches_hashlib(head, data):
    """Every length 0..130 (the padding edges at 55, 56, 63 and 64 bytes and
    the third block) as prefixes of ``head``, and one longer message."""
    for message in [head[:n] for n in range(131)] + [data]:
        assert cli._sha256_hex(message) == hashlib.sha256(message).hexdigest()


@pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
def test_optimize_rejects_duration_that_is_not_finite_and_nonnegative(capsys, duration):
    code, out, err = main_in_process(
        capsys, "optimize", f"--T={duration}", "--segments", "4", "--seeds", "1",
    )
    assert code == 2 and out == ""
    assert f"duration must be finite and >= 0, got {float(duration)!r}" in err


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


#: Exported functions no command runs, and why they stay.
UNREACHED_EXPORTS = {
    "estimate_min_duration": "the speed estimate 2 pi/(sqrt(2) - 1), criterion 2's reference",
    "objective_gradient": "the gradient API that the benchmark times",
}


def test_every_exported_function_is_run_by_a_command(tmp_path, monkeypatch, capsys):
    """One tiny run of each command, in process, reaches every function
    ``bjjctrl`` exports but those of ``UNREACHED_EXPORTS``."""
    monkeypatch.chdir(tmp_path)
    runs = [
        ("duration", "--profile", "original"),
        ("shortcut", "--profile", "fast", "--steps", "20", "--samples", "21", "--out", "s.csv"),
        ("optimize", "--T", "2", "--segments", "4", "--seeds", "1", "--out", "c.csv"),
        ("simulate", "--schedule", "c.csv", "--steps", "20"),
        ("mintime", "--segments", "4", "--seeds", "1", "--epsilon", "0.05", "--max-iter", "50"),
        ("sweep", "--T", "1:2:0.5", "--kappa", "0,0.05", "--segments", "4", "--seeds", "1",
         "--max-iter", "50"),
        ("entangle", "--state", "1,0,0,0,0,0"),
    ]
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv in runs:
        sys.setprofile(record)
        try:
            code, _, err = main_in_process(capsys, *argv)
        finally:
            sys.setprofile(None)
        assert code == 0, (argv, err)
    unreached = {
        name for name, value in vars(bjjctrl).items()
        if inspect.isfunction(value) and value.__code__ not in reached
    }
    assert unreached == set(UNREACHED_EXPORTS)


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


# ---------------------------------------------------------------------------
# the command-line contract over option texts

#: Option texts: non-finite, signed, zero, subnormal, tiny and huge numbers,
#: empty and non-numeric text, good and bad lists and grids, and a
#: directory (as a path to read or write).
OPTION_TEXTS = ["nan", "inf", "-inf", "-1", "0", "3", "5e-324", "1e-300", "1e300", "", "abc",
                "1,0.25", "0,0.05", "0.9,0.2,0.8", "1,,2", "1,2,3", "1:2:0.5", "2:1:0.5", "1:2:0", "."]

#: Each command with the options that keep a run small (the drawn options
#: come after, so they win); every size option drawn is one of
#: ``OPTION_TEXTS``, so at most 3.
CONTRACT_BASES = {
    "duration": ("--profile", "fast"),
    "shortcut": ("--profile", "fast", "--steps", "20", "--samples", "11"),
    "simulate": ("--schedule", "schedule.csv", "--steps", "20"),
    "optimize": ("--T", "3", "--segments", "4", "--seeds", "1", "--max-iter", "5"),
    "mintime": ("--segments", "4", "--seeds", "1", "--max-iter", "5"),
    "sweep": ("--T", "1:2:0.5", "--segments", "4", "--seeds", "1", "--max-iter", "5"),
    "entangle": ("--state", "1,0,0,0,0,0"),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(CONTRACT_BASES)))
    keys = sorted(cli._COMMANDS[command][1]) + ["config"]
    drawn = draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(OPTION_TEXTS)),
                          max_size=3))
    return [command, *CONTRACT_BASES[command],
            *(f"{cli._flag(key) if key != 'config' else '--config'}={text}" for key, text in drawn)]


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(command_lines())
@example(["duration", "--profile", "fast", "--grid-min=5e-324"])  # phi'/T overflowed, warning
@example(["shortcut", *CONTRACT_BASES["shortcut"], "--out=."])  # a traceback, exit 1
def test_any_option_text_exits_0_2_or_3_with_one_error_line(argv):
    """Every command, whatever text its options get: exit 0, 2 or 3; a
    refusal prints one error line (after argparse's usage block, for a
    flag argparse refuses) and nothing on stdout; and no warning."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        os.chdir(tmp)
        try:
            Path("schedule.csv").write_text("t,u,j\n0,0.5,0.1\n1,0.5,0.1\n")
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    assert not [str(w.message) for w in caught], argv
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code:
        lines = err.getvalue().splitlines()
        message = [line for line in lines if not line.startswith(("usage:", " "))]
        assert len(message) == 1 and out.getvalue() == "", (argv, lines)
