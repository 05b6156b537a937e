import json
from pathlib import Path

import pytest

from fracmax.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIM_CONFIG = {
    "set": {"generator": {"kind": "power_sequence", "a": 1.0}, "cap": 1_000_000},
    "methods": ["kappa", "minkowski"],
    "expect": {"method": "kappa", "value": 0.5, "tol": 0.05},
    "bound_check": {"exponents": [0.5], "constant": 10.0},
}

DOMINATION_CONFIG = {
    "kind": "domination",
    "config": {
        "set": {
            "generator": {
                "kind": "union",
                "members": [{"kind": "power_sequence", "a": 1.0}, {"kind": "lacunary"}],
            },
            "cap": 1_000_000,
        },
        "multiplier": {"family": "band_bump"},
        "f": {"kind": "gaussian_bump", "width": 1.0},
        "alpha": 0.45,
        "beta": 0.3,
        "grid": {"n": 256, "extent": 8.0, "dim": 1},
        "j_range": [-2, 2],
        "depth": 2,
        "s_resolution": 64,
    },
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_dim_power_sequence_report(tmp_path):
    config = write(tmp_path, "dim.json", DIM_CONFIG)
    out = tmp_path / "out"
    assert main(["dim", "--config", config, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "dim_report.json").read_text())
    assert abs(report["results"]["kappa"]["value"] - 0.5) <= 0.05
    assert report["results"]["expectation"]["passed"]
    table = (out / "counts.csv").read_text().splitlines()
    assert table[0] == "delta,count,delta_pow_a_count" and len(table) == 10


def test_dim_cantor_report(tmp_path):
    import math

    config = write(
        tmp_path,
        "cantor.json",
        {
            "set": {"generator": {"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 12}},
            "methods": ["minkowski"],
            "schedule": {"delta_max": 3.0**-2, "delta_min": 3.0**-10 * 0.999, "count": 9},
            "expect": {"method": "minkowski", "value": math.log(2) / math.log(3), "tol": 0.03},
        },
    )
    out = tmp_path / "out"
    assert main(["dim", "--config", config, "--out", str(out)]) == EXIT_OK


def test_dim_empty_set_is_input_error(tmp_path):
    config = write(
        tmp_path,
        "empty.json",
        {"set": {"generator": {"kind": "explicit", "points": [97.0]}}, "j": 0},
    )
    assert main(["dim", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_dim_failed_expectation_exits_two(tmp_path):
    bad = dict(DIM_CONFIG, expect={"method": "kappa", "value": 0.9, "tol": 0.01})
    config = write(tmp_path, "bad_expect.json", bad)
    assert main(["dim", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_FAILED


def test_malformed_json_exit_one_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"set": nope}')
    assert main(["dim", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unknown_suite_exit_one(tmp_path):
    assert main(["verify", "--suite", "bogus", "--out", str(tmp_path)]) == EXIT_INPUT


def test_verify_single_suite(tmp_path, capsys):
    assert main(["verify", "--suite", "fraccalc", "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_passed"] and report["suites"][0]["suite"] == "fraccalc"
    assert "[pass] fraccalc." in capsys.readouterr().out


def test_experiment_domination_and_determinism(tmp_path):
    config = write(tmp_path, "exp.json", DOMINATION_CONFIG)
    out = tmp_path / "out"
    assert main(["experiment", "--config", config, "--out", str(out), "--seed", "3"]) == EXIT_OK
    first = (out / "experiment_report.json").read_bytes()
    assert main(["experiment", "--config", config, "--out", str(out), "--seed", "3"]) == EXIT_OK
    assert (out / "experiment_report.json").read_bytes() == first
    report = json.loads(first)
    assert report["seed"] == 3 and report["config"]["alpha"] == 0.45
    assert (out / "ratio_histogram.csv").exists()


def test_experiment_halfwave(tmp_path):
    payload = {
        "kind": "halfwave",
        "hw_alpha": 0.5,
        "hw_beta": 0.4,
        "t_min": 0.025,
        "t_max": 0.35,
        "config": {
            "set": {"generator": {"kind": "power_sequence", "a": 1.0}},
            "multiplier": {"family": "band_bump"},
            "f": {"kind": "gaussian_bump", "width": 1.0},
            "grid": {"n": 512, "extent": 8.0, "dim": 1},
        },
    }
    config = write(tmp_path, "hw.json", payload)
    out = tmp_path / "out"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "experiment_report.json").read_text())
    assert report["results"]["beta_fit"] >= 0.3
    assert (out / "rates.csv").read_text().splitlines()[0] == "t,sup_difference"


def test_experiment_probe(tmp_path):
    payload = {
        "kind": "probe",
        "trials": 2,
        "config": {
            "set": {"generator": {"kind": "lacunary"}},
            "multiplier": {"family": "band_bump"},
            "f": {"kind": "gaussian_bump", "width": 1.0},
            "grid": {"n": 256, "extent": 8.0, "dim": 1},
            "j_range": [-1, 1],
            "depth": 2,
        },
    }
    config = write(tmp_path, "probe.json", payload)
    out = tmp_path / "out"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "experiment_report.json").read_text())
    assert report["results"]["lower_bound"] > 0
    assert len(report["results"]["per_trial"]) == 2


def test_experiment_unknown_kind(tmp_path):
    config = write(tmp_path, "bad.json", dict(DOMINATION_CONFIG, kind="mystery"))
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_halfwave_on_cantor_set_is_input_error(tmp_path, capsys):
    payload = {
        "kind": "halfwave",
        "config": {
            "set": {"generator": {"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 4}},
            "multiplier": {"family": "band_bump"},
            "f": {"kind": "gaussian_bump", "width": 1.0},
            "grid": {"n": 256, "extent": 8.0, "dim": 1},
        },
    }
    config = write(tmp_path, "hw.json", payload)
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: a Cantor set has no small-time schedule\n"


def _experiment(kind, **changes):
    """The domination test config run as `kind`, with config entries replaced."""
    return dict(DOMINATION_CONFIG, kind=kind, config=dict(DOMINATION_CONFIG["config"], **changes))


@pytest.mark.parametrize(
    "command, payload",
    [
        pytest.param("experiment", _experiment("probe", grid={"n": 256, "dim": 2}), id="probe_dim_2"),
        pytest.param("experiment", _experiment("domination", grid={"n": 256, "dim": 2}), id="domination_dim_2"),
        pytest.param("experiment", _experiment("domination", depth=-1), id="negative_depth"),
        pytest.param("experiment", _experiment("domination", grid={"n": 1000}), id="n_not_power_of_two"),
        pytest.param("experiment", _experiment("domination", j_range=[2, -2]), id="reversed_j_range"),
        pytest.param("experiment", _experiment("probe", f={"kind": "nope"}), id="unknown_f_kind"),
        pytest.param("dim", dict(DIM_CONFIG, expect={"method": "gap_sum", "value": 0.5}), id="expect_method_not_run"),
        pytest.param("dim", dict(DIM_CONFIG, schedule={"delta_max": "big"}), id="non_numeric_schedule"),
        pytest.param("dim", dict(DIM_CONFIG, j="zero"), id="non_numeric_j"),
    ],
)
def test_config_error_exits_one(tmp_path, capsys, command, payload):
    config = write(tmp_path, "bad.json", payload)
    assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_probe_vanishing_trial_is_input_error(tmp_path, capsys):
    # band 3 of the random_band trial lies above the Nyquist frequency 2 of a 64-point grid
    config = write(tmp_path, "probe.json", _experiment("probe", grid={"n": 64}))
    out = tmp_path / "o"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: trial input random_band vanishes on the 64-point grid\n"
    assert not (out / "experiment_report.json").exists()


@pytest.mark.parametrize("command", ["dim", "verify", "experiment"])
def test_workers_flag_is_rejected(tmp_path, capsys, command):
    argv = [command, "--out", str(tmp_path / "o"), "--workers", "2"]
    if command != "verify":
        argv += ["--config", write(tmp_path, "dim.json", DIM_CONFIG)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def _strict_constant(name):
    raise ValueError(f"non-finite number {name} in report")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_runs(tmp_path, path):
    command = "experiment" if "kind" in json.loads(path.read_text()) else "dim"
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
    reports = sorted(tmp_path.glob("*.json"))
    assert reports
    for report in reports:
        json.loads(report.read_text(), parse_constant=_strict_constant)
