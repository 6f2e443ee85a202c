import csv
import json

import pytest

import bitalloc.cli
from bitalloc.cli import _DEFAULT_SPECS, EXIT_PLAN_ERROR, _plan_from_args, build_parser, main
from bitalloc.experiments import EXIT_ALL_FAILED, EXIT_OK, Experiment, ExperimentPlan


def test_validate_passes(capsys):
    code = main(["validate", "--samples", "20000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "subtractive: pass" in out
    assert "non-subtractive: pass" in out


def test_solve_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        [
            "solve",
            "--trials",
            "1",
            "--solver",
            "barrier",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    assert (tmp_path / "run.aggregates.csv").exists()
    assert (tmp_path / "run.trace-0-barrier.csv").exists()


def test_config_file_round_trip(tmp_path):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"kind": "grid-laplacian", "d": 5, "budget_per_sensor": 2.0}))
    code = main(["rounding-gap", "--config", str(config), "--trials", "1", "--seed", "2"])
    assert code == 0


def test_sweep_flag(tmp_path, capsys):
    code = main(
        [
            "sensor-scaling",
            "--sweep",
            "2,4",
            "--trials",
            "1",
            "--seed",
            "0",
            "--out",
            str(tmp_path / "scale.csv"),
        ]
    )
    assert code == 0
    header, *rows = (tmp_path / "scale.csv").read_text().strip().splitlines()
    assert len(rows) == 2


def test_missing_config_is_plan_error(capsys):
    code = main(["solve", "--config", "/nonexistent/spec.json"])
    assert code == 1
    assert "plan error" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["1", "0"])
def test_too_few_samples_is_plan_error(samples, capsys):
    # one sample has no standard error to test the model against
    code = main(["validate", "--samples", samples])
    assert code == EXIT_PLAN_ERROR
    assert "samples must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--time-limit", "0"],
        ["solve", "--time-limit", "-1"],
        ["solve", "--time-limit", "nan"],
        ["uniform-sweep", "--sweep", "-1"],
        ["uniform-sweep", "--sweep", "2,nan"],
        ["uniform-sweep", "--sweep", "inf"],
        ["uniform-sweep", "--sweep", ""],
        ["sensor-scaling", "--sweep", ""],
        ["sensor-scaling", "--sweep", "-5"],
        ["sensor-scaling", "--sweep", "0"],
        ["sensor-scaling", "--sweep", "nan"],
        # numpy's generator rejected a negative seed deep inside instance generation
        ["solve", "--seed", "-3"],
        ["solve", "--seed", "-3", "--threads", "2"],
    ],
)
def test_bad_plan_values_are_plan_errors(argv, capsys):
    code = main(argv + ["--trials", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_PLAN_ERROR
    assert "plan error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "grid-laplacian", "d": 5, "budget_per_sensor": float("nan")},
        {"kind": "grid-laplacian", "d": 5, "budget_per_sensor": float("inf")},
        # rng.uniform(0.5, inf) raised a raw OverflowError out of instance generation
        {"kind": "grid-laplacian", "d": 5, "kappa": {"low": 0.5, "high": float("inf")}},
    ],
    ids=["nan-budget", "inf-budget", "inf-kappa"],
)
def test_non_finite_config_is_plan_error(spec, tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec))
    code = main(["solve", "--config", str(config), "--trials", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_PLAN_ERROR
    assert "plan error" in err
    assert "Traceback" not in err


def test_bad_flag_exits_one():
    with pytest.raises(SystemExit) as exc_info:
        main(["solve", "--solver", "simplex"])
    assert exc_info.value.code == 1


def test_bad_solver_names_the_choices(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["solve", "--solver", "simplex"])
    assert exc_info.value.code == EXIT_PLAN_ERROR
    assert "choose from 'fw', 'barrier', 'both'" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", list(Experiment), ids=lambda e: e.value)
def test_bare_subcommand_plans_the_defaults(experiment):
    # every default a bare subcommand runs with is ExperimentPlan's own
    plan = _plan_from_args(build_parser().parse_args([experiment.value]))
    assert plan == ExperimentPlan(experiment, _DEFAULT_SPECS[experiment])


def test_solver_flag_only_on_solve(capsys):
    # only solve reads the solver choice, and validate reads neither a trial
    # count nor a time limit; a flag nothing reads is a usage error
    commands = ("compare", "rounding-gap", "uniform-sweep", "sensor-scaling", "validate")
    unread = [(command, "--solver", "fw") for command in commands]
    unread += [("validate", "--trials", "5"), ("validate", "--time-limit", "1")]
    for command, flag, value in unread:
        with pytest.raises(SystemExit) as exc_info:
            main([command, flag, value])
        assert exc_info.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1


def test_all_failed_exit_code(tmp_path):
    config = tmp_path / "spec.json"
    config.write_text(
        json.dumps({"kind": "grid-laplacian", "d": 4, "budget_per_sensor": 0.0})
    )
    code = main(["rounding-gap", "--config", str(config), "--trials", "2"])
    assert code == 2


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_missing_matrix_file_fails_every_row(tmp_path):
    missing = tmp_path / "absent.mtx"
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"kind": "from-files", "paths": {"sensing_matrix": str(missing)}}))
    out = tmp_path / "rows.csv"
    code = main(["solve", "--config", str(config), "--trials", "2", "--out", str(out)])
    assert code == EXIT_ALL_FAILED
    errors = [row["error"] for row in _rows(out)]
    assert len(errors) == 4
    assert all(error.startswith("MatrixFormatError:") and str(missing) in error for error in errors)


def test_unusable_out_fails_before_the_run(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setattr(bitalloc.cli, "run", lambda plan: pytest.fail("a trial ran"))
    code = main(["solve", "--trials", "1", "--out", str(blocker / "rows.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_PLAN_ERROR
    assert "plan error" in err and str(blocker) in err


def test_out_naming_a_directory_fails_before_the_run(tmp_path, monkeypatch, capsys):
    # writing the summary into a directory raised IsADirectoryError after the trials had run
    monkeypatch.setattr(bitalloc.cli, "run", lambda plan: pytest.fail("a trial ran"))
    code = main(["rounding-gap", "--trials", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_PLAN_ERROR
    assert "plan error" in err and str(tmp_path) in err



@pytest.mark.parametrize("exists", [True, False], ids=["existing-file", "new-file"])
def test_unwritable_out_fails_before_the_run(exists, tmp_path, monkeypatch, capsys):
    # an --out file that cannot be written was found only after every trial had run;
    # access is patched because a permission bit does not stop the superuser
    out = tmp_path / "run.csv"
    if exists:
        out.write_text("kept\n")
    target = out if exists else tmp_path
    real_access = bitalloc.cli.os.access
    monkeypatch.setattr(bitalloc.cli.os, "access", lambda path, mode: path != target and real_access(path, mode))
    monkeypatch.setattr(bitalloc.cli, "run", lambda plan: pytest.fail("a trial ran"))
    code = main(["rounding-gap", "--trials", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_PLAN_ERROR
    assert "plan error" in err and str(out) in err
    assert (out.read_text() == "kept\n") if exists else not out.exists()

@pytest.fixture
def unsaturated_config(tmp_path):
    # plan seed 0: the barrier stops with about 0.74 of B = 200 unspent, so rounding's precondition fails
    config = tmp_path / "gaussian.json"
    config.write_text(json.dumps({"kind": "random-gaussian", "d": 8, "m": 100}))
    return config


def test_unsaturated_solve_row_notes_the_rounding(unsaturated_config, tmp_path):
    out = tmp_path / "solve.csv"
    argv = ["solve", "--solver", "barrier", "--trials", "1", "--config", str(unsaturated_config)]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    (row,) = _rows(out)
    assert row["rounding_note"].startswith("continuous allocation must saturate the budget")
    assert row["error"] == "" and row["objective_rounded"] == ""
    assert float(row["budget_slack"]) > 0.5


def test_unsaturated_rounding_gap_row_fails(unsaturated_config, tmp_path):
    out = tmp_path / "gap.csv"
    argv = ["rounding-gap", "--trials", "1", "--config", str(unsaturated_config)]
    assert main(argv + ["--out", str(out)]) == EXIT_ALL_FAILED
    (row,) = _rows(out)
    assert row["error"].startswith("RoundingPreconditionError:")
    assert row["objective_relaxed"] == "" and row["budget"] == "200.0"
    assert not list(tmp_path.glob("gap.trace-*"))
