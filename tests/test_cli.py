import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracmax.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, INPUT_ERRORS, main
from fracmax.maximal_lab import ExperimentConfig, config_from_json

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


def _dim_set(generator):
    """The dim test config over the set with this generator."""
    return dict(DIM_CONFIG, set={"generator": generator})


@pytest.mark.parametrize(
    "command, payload",
    [
        pytest.param("experiment", _experiment("probe", grid={"n": 256, "dim": 2}), id="probe_dim_2"),
        pytest.param("experiment", _experiment("domination", grid={"n": 256, "dim": 2}), id="domination_dim_2"),
        pytest.param("experiment", _experiment("domination", depth=-1), id="negative_depth"),
        pytest.param("experiment", _experiment("domination", grid={"n": 1000}), id="n_not_power_of_two"),
        pytest.param("experiment", _experiment("domination", j_range=[2, -2]), id="reversed_j_range"),
        pytest.param("experiment", _experiment("probe", f={"kind": "nope"}), id="unknown_f_kind"),
        pytest.param("experiment", _experiment("domination", f={"kind": "gaussian_bump", "width": 0.0}), id="zero_width"),
        pytest.param(
            "experiment",
            _experiment("domination", f={"kind": "modulated_bump", "width": 0.0, "freq": 1.0}),
            id="zero_width_modulated",
        ),
        pytest.param(
            "experiment", _experiment("domination", f={"kind": "random_band", "band": 1, "seed": -1}), id="negative_seed"
        ),
        pytest.param("experiment", _experiment("domination", grid={"n": 256, "extent": 0.0}), id="zero_extent"),
        pytest.param("dim", dict(DIM_CONFIG, expect={"method": "gap_sum", "value": 0.5}), id="expect_method_not_run"),
        pytest.param("dim", dict(DIM_CONFIG, schedule={"delta_max": "big"}), id="non_numeric_schedule"),
        pytest.param("dim", dict(DIM_CONFIG, j="zero"), id="non_numeric_j"),
        pytest.param("dim", dict(DIM_CONFIG, bound_check={"exponents": ["x"]}), id="non_numeric_bound_exponent"),
        pytest.param("dim", dict(DIM_CONFIG, bound_check={"exponents": [1.5]}), id="bound_exponent_above_one"),
        pytest.param("dim", dict(DIM_CONFIG, bound_check=[]), id="bound_check_not_object"),
        pytest.param("dim", dict(DIM_CONFIG, table_exponent="x"), id="non_numeric_table_exponent"),
        pytest.param("dim", dict(DIM_CONFIG, expect={"method": "kappa", "value": "x"}), id="non_numeric_expect_value"),
        pytest.param("dim", dict(DIM_CONFIG, j_range=[3, -2]), id="dim_reversed_j_range"),
        pytest.param("dim", dict(DIM_CONFIG, schedule={"count": 3}), id="three_scale_schedule"),
        pytest.param("experiment", [DOMINATION_CONFIG], id="config_not_object"),
        pytest.param("experiment", _experiment("domination", grid=5), id="grid_not_object"),
        pytest.param("experiment", _experiment("domination", s_resolution=-5), id="negative_s_resolution"),
        pytest.param("experiment", dict(_experiment("halfwave"), hw_alpha=2.0), id="halfwave_alpha_above_one"),
        pytest.param("experiment", dict(_experiment("halfwave"), hw_beta="x"), id="non_numeric_halfwave_beta"),
        pytest.param("experiment", dict(_experiment("halfwave"), t_min=0), id="zero_t_min"),
        pytest.param(
            "experiment",
            _experiment("halfwave", set={"generator": {"kind": "explicit", "points": [0.1, 0.2]}}),
            id="halfwave_two_times",
        ),
        pytest.param("dim", dict(DIM_CONFIG, j=1.5), id="fractional_j"),
        pytest.param("experiment", _experiment("domination", j_range=[False, True]), id="bool_j_range"),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, set={"generator": {"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 2.5}}),
            id="fractional_cantor_levels",
        ),
        pytest.param("experiment", _experiment("domination", seed=True), id="bool_seed"),
        pytest.param("dim", _dim_set({"kind": "power_sequence", "a": "1.0"}), id="string_a"),
        pytest.param("dim", _dim_set({"kind": "power_sequence", "a": True}), id="bool_a"),
        pytest.param("dim", _dim_set({"kind": "explicit", "points": [True, 1.5]}), id="bool_point"),
        pytest.param("dim", dict(DIM_CONFIG, expect={"method": "kappa", "value": 0.5, "tol": "0.05"}), id="string_tol"),
        pytest.param("dim", _dim_set({"kind": "cantor", "base": 3, "digits": [False, 2], "levels": 4}), id="bool_digit"),
        pytest.param("dim", _dim_set({"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 65}), id="cantor_levels_65"),
        pytest.param("experiment", _experiment("domination", f={"kind": "gaussian_bump", "width": True}), id="bool_width"),
        pytest.param("experiment", _experiment("domination", grid={"n": 256, "extent": "8"}), id="string_extent"),
        pytest.param("experiment", dict(_experiment("halfwave"), hw_alpha="0.5"), id="string_hw_alpha"),
    ],
)
def test_config_error_exits_one(tmp_path, capsys, command, payload):
    config = write(tmp_path, "bad.json", payload)
    assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


FUZZ_DIM_CONFIG = {
    "set": {"generator": {"kind": "explicit", "points": [1.1, 1.3, 1.7, 2.6, 3.4]}},
    "schedule": {"delta_max": 0.5, "delta_min": 0.01, "count": 4},
    "methods": ["kappa", "minkowski", "distance_integral"],
    "j": 0,
    "j_range": [0, 1],
    "expect": {"method": "kappa", "value": 0.5, "tol": 1.0},
    "bound_check": {"exponents": [0.5], "constant": 10.0},
    "table_exponent": 0.5,
}
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3), st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3)
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(sorted(FUZZ_DIM_CONFIG)), value=JSON_VALUES)
def test_dim_config_fuzz_never_raises(tmp_path, field, value):
    config = write(tmp_path, "fuzz.json", dict(FUZZ_DIM_CONFIG, **{field: value}))
    assert main(["dim", "--config", config, "--out", str(tmp_path / "o")]) in (EXIT_OK, EXIT_INPUT, EXIT_FAILED)


def test_integral_float_fields_read_as_integers(tmp_path):
    payload = dict(DIM_CONFIG, set=dict(DIM_CONFIG["set"], cap=1e6), j=0.0)
    config = write(tmp_path, "dim.json", payload)
    assert '"cap": 1000000.0' in Path(config).read_text()
    assert main(["dim", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_OK


# the experiment config with each fuzzed field in place; `f` is drawn from FUZZ_F_SPECS
FUZZ_EXPERIMENT_CONFIG = dict(DOMINATION_CONFIG["config"], seed=0)
FUZZ_F_SPECS = [
    {"kind": "gaussian_bump", "width": 1.0},
    {"kind": "modulated_bump", "width": 1.0, "freq": 2.0},
    {"kind": "random_band", "band": 2, "seed": 5},
]
FUZZ_EXPERIMENT_FIELDS = (
    [(key,) for key in sorted(FUZZ_EXPERIMENT_CONFIG)]
    + [("grid", key) for key in ("n", "extent", "dim")]
    + [("f", key) for key in ("kind", "width", "freq", "band", "seed")]
)


@settings(max_examples=200, deadline=None)
@given(f=st.sampled_from(FUZZ_F_SPECS), path=st.sampled_from(FUZZ_EXPERIMENT_FIELDS), value=JSON_VALUES)
def test_experiment_config_fuzz_raises_only_input_errors(f, path, value):
    payload = copy.deepcopy(dict(FUZZ_EXPERIMENT_CONFIG, f=f))
    *parents, key = path
    node = payload
    for parent in parents:
        node = node[parent]
    node[key] = value
    try:
        config = config_from_json(payload)
    except INPUT_ERRORS:
        return
    assert isinstance(config, ExperimentConfig)


# every registry kind with fields, and the slots of an experiment config that take one
FUZZ_KINDS = {
    "generator": [
        {"kind": "power_sequence", "a": 1.0},
        {"kind": "explicit", "points": [1.1, 1.7]},
        {"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 4},
    ],
    "multiplier": [
        {"family": "limited_decay", "a": 1.0},
        {"family": "slow_decay", "beta": 1.0, "delta": 0.5},
        {"family": "oscillatory", "alpha": 0.5, "beta": 1.0},
    ],
    "f": FUZZ_F_SPECS,
}
FUZZ_KINDS["member"] = FUZZ_KINDS["generator"]
FUZZ_NESTED_FIELDS = [(slot, spec, key) for slot, specs in FUZZ_KINDS.items() for spec in specs for key in spec]


def _not_a_number(value):
    return isinstance(value, (bool, str))


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(FUZZ_NESTED_FIELDS), value=JSON_VALUES)
def test_nested_config_fuzz_rejects_non_numbers(target, value):
    slot, base, key = target
    spec = dict(base, **{key: value})
    payload = copy.deepcopy(FUZZ_EXPERIMENT_CONFIG)
    if slot == "generator":
        payload["set"] = {"generator": spec}
    elif slot == "member":
        payload["set"] = {"generator": {"kind": "union", "members": [spec, {"kind": "lacunary"}]}}
    else:
        payload[slot] = spec
    # a number field given a bool or a string, or a list field given a list holding one
    field = base[key]
    must_raise = (isinstance(field, (int, float)) and _not_a_number(value)) or (
        isinstance(field, list) and isinstance(value, list) and any(map(_not_a_number, value))
    )
    try:
        config = config_from_json(payload)
    except INPUT_ERRORS:
        return
    assert not must_raise, (slot, key, value)
    assert isinstance(config, ExperimentConfig)


def test_table_exponent_zero_is_used(tmp_path):
    config = write(tmp_path, "dim.json", dict(DIM_CONFIG, table_exponent=0))
    out = tmp_path / "o"
    assert main(["dim", "--config", config, "--out", str(out)]) == EXIT_OK
    rows = [row.split(",") for row in (out / "counts.csv").read_text().splitlines()[1:]]
    assert rows and all(float(power_count) == int(count) for _, count, power_count in rows)


def test_cantor_levels_64_runs(tmp_path):
    generator = {"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 64}
    config = write(tmp_path, "cantor.json", {"set": {"generator": generator, "cap": 1000}, "methods": ["minkowski"]})
    assert main(["dim", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_OK


def test_probe_vanishing_trial_is_input_error(tmp_path, capsys):
    # band 3 of the random_band trial lies above the Nyquist frequency 2 of a 64-point grid
    config = write(tmp_path, "probe.json", _experiment("probe", grid={"n": 64}))
    out = tmp_path / "o"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: trial input random_band vanishes on the 64-point grid\n"
    assert not (out / "experiment_report.json").exists()


def test_non_finite_report_is_input_error(tmp_path, capsys, monkeypatch):
    from fracmax import verify

    nan_check = verify.Check("nan_leaf", True, float("nan"), "true")
    monkeypatch.setattr(verify, "run_suite", lambda name, seed: verify.SuiteReport(name, seed, (nan_check,)))
    out = tmp_path / "o"
    assert main(["verify", "--suite", "fraccalc", "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: report holds a non-finite number") and err.count("\n") == 1, err
    assert not (out / "verify_report.json").exists()


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
