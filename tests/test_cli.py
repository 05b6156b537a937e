import argparse
import collections
import copy
import json
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracmax.cli import DIM_METHODS, EXIT_FAILED, EXIT_INPUT, EXIT_OK, INPUT_ERRORS, DimConfig, main
from fracmax.dilation_sets import GENERATORS, DilationSet, geometric_schedule
from fracmax.maximal_lab import EXPERIMENTS, FUNCTIONS
from fracmax.multipliers import _BAND_MEMO, FAMILIES
from fracmax.wire import _WIRE_NAMES, from_wire, to_wire

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

HALFWAVE_CONFIG = {
    "kind": "halfwave",
    "hw_alpha": 0.5,
    "hw_beta": 0.4,
    "t_min": 0.025,
    "t_max": 0.35,
    "config": {
        "set": {"generator": {"kind": "power_sequence", "a": 1.0}},
        "f": {"kind": "gaussian_bump", "width": 1.0},
        "grid": {"n": 512, "extent": 8.0, "dim": 1},
    },
}

PROBE_CONFIG = {
    "kind": "probe",
    "trials": 2,
    "config": {
        "set": {"generator": {"kind": "lacunary"}},
        "multiplier": {"family": "band_bump"},
        "grid": {"n": 256, "extent": 8.0, "dim": 1},
        "j_range": [-1, 1],
        "depth": 2,
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


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"set": {"generator": {"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 6}}, "methods": ["gap_sum"]},
            "error: bad dim config: gap_sum method needs a power-sequence generator\n",
        ),
        (
            # block 2 holds 1.25, but no block of j_range holds a point
            {"set": {"generator": {"kind": "explicit", "points": [5.0]}}, "j": 2, "j_range": [-2, 1]},
            "error: bad dim config: all blocks empty on the requested j range\n",
        ),
        (None, "error: cannot read config: "),
    ],
    ids=["gap_sum_on_cantor", "kappa_over_empty_blocks", "missing_config"],
)
def test_dim_input_errors_exit_one_with_one_error_line(tmp_path, capsys, payload, message):
    config = write(tmp_path, "dim.json", payload) if payload else str(tmp_path / "missing.json")
    assert main(["dim", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err


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
    assert _BAND_MEMO.get() is None


def test_verify_single_suite(tmp_path, capsys):
    assert main(["verify", "--suite", "fraccalc", "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_passed"] and report["suites"][0]["suite"] == "fraccalc"
    assert "[pass] fraccalc." in capsys.readouterr().out


def test_verify_all_twice_in_one_process_is_byte_identical(verify_all_twice):
    # the band memo scope closes after each run, so the second run starts from an empty memo
    for run in verify_all_twice:
        assert run.code == EXIT_OK
        assert run.memo_closed
    first, second = verify_all_twice
    assert (first.report, first.stdout) == (second.report, second.stdout)
    assert first.stdout.count("[pass] ") > 0 and "[FAIL]" not in first.stdout


def test_experiment_domination_and_determinism(tmp_path):
    config = write(tmp_path, "exp.json", DOMINATION_CONFIG)
    out = tmp_path / "out"
    assert main(["experiment", "--config", config, "--out", str(out), "--seed", "3"]) == EXIT_OK
    first = (out / "experiment_report.json").read_bytes()
    assert main(["experiment", "--config", config, "--out", str(out), "--seed", "3"]) == EXIT_OK
    assert (out / "experiment_report.json").read_bytes() == first
    report = json.loads(first)
    assert report["seed"] == 3 and report["config"]["config"]["alpha"] == 0.45
    assert len((out / "ratio_histogram.csv").read_text().splitlines()) == 33  # a header and 32 bins


@pytest.mark.parametrize("p", [2, 2.0])
def test_experiment_domination_accepts_p_two(tmp_path, p):
    config = write(tmp_path, "exp.json", _experiment("domination", p=p))
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_experiment_halfwave(tmp_path):
    config = write(tmp_path, "hw.json", HALFWAVE_CONFIG)
    out = tmp_path / "out"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "experiment_report.json").read_text())
    assert report["results"]["beta_fit"] >= 0.3
    header, *rows = (out / "rates.csv").read_text().splitlines()
    assert header == "t,sup_difference" and rows
    # every data row is two plain numbers, not numpy scalar reprs
    assert all(len([float(v) for v in row.split(",")]) == 2 for row in rows), rows[0]


def test_experiment_probe(tmp_path):
    config = write(tmp_path, "probe.json", PROBE_CONFIG)
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


def test_power_sequence_with_a_huge_decay_runs_dim_and_domination(tmp_path, capsys):
    # a = 1e300 made the block's point count inf: domination ended in a traceback, dim in a line naming no field
    huge = {"generator": {"kind": "power_sequence", "a": 1e300}}
    dim = dict(DIM_CONFIG, set=huge, expect={"method": "kappa", "value": 0.0, "tol": 0.05})
    assert main(["dim", "--config", write(tmp_path, "dim.json", dim), "--out", str(tmp_path / "d")]) == EXIT_OK
    assert json.loads((tmp_path / "d" / "dim_report.json").read_text())["results"]["kappa"]["value"] == 0.0
    config = write(tmp_path, "exp.json", _experiment("domination", set=huge))
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "e")]) == EXIT_OK
    assert capsys.readouterr().err == ""


ONE_POINT = {"generator": {"kind": "explicit", "points": [1.5]}}


def test_dim_at_the_extreme_block_indices_runs(tmp_path, capsys):
    # scaling block -1100 by 2.0 ** 1100 overflowed: a traceback over j_range, a line naming no field for j
    kappas = []
    for j_range in ([-1100, 0], [-2, 0]):
        config, out = write(tmp_path, "dim.json", {"set": ONE_POINT, "j_range": j_range}), tmp_path / str(j_range[0])
        assert main(["dim", "--config", config, "--out", str(out)]) == EXIT_OK
        kappas.append(json.loads((out / "dim_report.json").read_text())["results"]["kappa"])
    assert kappas[0] == kappas[1]
    config = write(tmp_path, "dim.json", {"set": ONE_POINT, "j": -1100})
    assert main(["dim", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: block -1100 of the set is empty\n"


@pytest.mark.parametrize("a", [0.001, 0.003])
def test_halfwave_at_a_tiny_decay_has_too_few_times(tmp_path, capsys, a):
    # t**(-1/a) overflowed; now the set gives no time (a = 0.001) or one repeated time (a = 0.003) in the window
    tiny = {"generator": {"kind": "power_sequence", "a": a}}
    payload = dict(HALFWAVE_CONFIG, config=dict(HALFWAVE_CONFIG["config"], set=tiny))
    config = write(tmp_path, "hw.json", payload)
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: need at least three evaluation times for a rate fit\n"


def test_dim_rejects_a_scale_below_the_dedup_tolerance_before_any_work(tmp_path, capsys, monkeypatch):
    # a power sequence's tail at delta_min 1e-17 held 1e17 cells; explicit points show the floor without a tail
    from fracmax import dilation_sets as ds

    monkeypatch.setattr(ds, "rescaled_block", lambda *args: pytest.fail("a block was materialized"))
    payload = dict(FUZZ_DIM_CONFIG, schedule={"delta_max": 0.5, "delta_min": 1e-16, "count": 4})
    assert main(["dim", "--config", write(tmp_path, "dim.json", payload), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: bad dim config: need 1e-15 <= delta_min") and err.count("\n") == 1, err


@pytest.mark.parametrize("t_min, first", [(5e-324, 5e-324), (1e-310, 2.0**-1029)])
def test_lacunary_halfwave_at_a_subnormal_t_min_runs(tmp_path, capsys, t_min, first):
    # 1 / t_min was inf, and the window's times ended in a traceback; now they run down to 2**-1074
    lacunary = {"generator": {"kind": "lacunary"}}
    payload = dict(HALFWAVE_CONFIG, t_min=t_min, config=dict(HALFWAVE_CONFIG["config"], set=lacunary))
    config = write(tmp_path, "hw.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at subnormal times the evolution moves f by round-off alone: those rows stay out of the fit
        assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    rows = [row.split(",") for row in (tmp_path / "o" / "rates.csv").read_text().splitlines()[1:]]
    times, diffs = [float(t) for t, _ in rows], [float(d) for _, d in rows]
    assert times[0] == first and times[-1] == 0.25 and len(rows) == 64  # every time stays in the report
    assert diffs[0] == diffs[1] < 1e-15  # the round trip's difference, equal at the first two times
    report = json.loads((tmp_path / "o" / "experiment_report.json").read_text())
    assert report["results"]["beta_fit"] > 0.999  # the round-off rows pulled it to 0.008


def test_lacunary_halfwave_with_an_overflowing_phase_is_input_error(tmp_path, capsys):
    # t * omega overflowed at t_max 1e308: a numpy warning, a nan row in rates.csv and exit 2
    lacunary = {"generator": {"kind": "lacunary"}}
    payload = dict(HALFWAVE_CONFIG, t_max=1e308, config=dict(HALFWAVE_CONFIG["config"], set=lacunary))
    config = write(tmp_path, "hw.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: the half-wave phase t (2 pi |xi|)^alpha overflows at t = 8.98846567431158e+307\n"
    assert not (tmp_path / "o" / "rates.csv").exists()


READ_FIELDS = {
    "domination": ({"set", "multiplier", "f", "alpha", "beta", "p", "grid", "j_range", "depth", "s_resolution"}, set()),
    "halfwave": ({"set", "f", "grid"}, {"hw_alpha", "hw_beta", "t_min", "t_max"}),
    "probe": ({"set", "multiplier", "p", "grid", "j_range", "depth", "seed"}, {"trials", "regularity_grid"}),
}


@pytest.mark.parametrize("payload", [DOMINATION_CONFIG, HALFWAVE_CONFIG, PROBE_CONFIG], ids=lambda p: p["kind"])
def test_experiment_echo_holds_exactly_the_fields_read(tmp_path, payload):
    config_fields, top_fields = READ_FIELDS[payload["kind"]]
    out = tmp_path / "o"
    assert main(["experiment", "--config", write(tmp_path, "exp.json", payload), "--out", str(out)]) == EXIT_OK
    report = (out / "experiment_report.json").read_bytes()
    echo = json.loads(report)["config"]
    assert echo.keys() == {"kind", "config"} | top_fields
    assert echo["config"].keys() == config_fields and echo["config"]["grid"].keys() == {"n", "extent", "dim"}
    # the echo is the resolved config file: run again, it writes the same report
    again = tmp_path / "again"
    assert main(["experiment", "--config", write(tmp_path, "echo.json", echo), "--out", str(again)]) == EXIT_OK
    assert (again / "experiment_report.json").read_bytes() == report


@pytest.mark.parametrize(
    "command, payload, code, note",
    [
        pytest.param(
            "experiment",
            dict(HALFWAVE_CONFIG, config=dict(HALFWAVE_CONFIG["config"], multiplier={"family": "band_bump"}, alpha=0.6)),
            EXIT_OK,
            "note: halfwave ignores config fields: config.multiplier, config.alpha\n",
            id="halfwave_multiplier",
        ),
        pytest.param(
            "experiment",
            dict(PROBE_CONFIG, config=dict(PROBE_CONFIG["config"], f={"kind": "nope"})),
            EXIT_OK,
            "note: probe ignores config fields: config.f\n",
            id="probe_f",
        ),
        pytest.param(
            "experiment",
            dict(
                DOMINATION_CONFIG,
                config=dict(DOMINATION_CONFIG["config"], f={"kind": "gaussian_bump", "width": 1, "smoothness": 0}),
            ),
            EXIT_OK,
            "note: domination ignores config fields: config.f.smoothness\n",
            id="domination_f_extra_key",
        ),
        # a misspelled schedule and expectation: the default schedule runs, and no expectation is checked
        pytest.param(
            "dim",
            dict(DIM_CONFIG, shedule={"count": 5}, expcet={"method": "kappa", "value": 0.9}),
            EXIT_OK,
            "note: dim ignores config fields: shedule, expcet\n",
            id="dim_top_level_typos",
        ),
        pytest.param(
            "dim",
            dict(
                DIM_CONFIG,
                set={"generator": {"kind": "power_sequence", "a": 1.0, "aa": 2.0}},
                expect=dict(DIM_CONFIG["expect"], tool=0.5),
                bound_check=dict(DIM_CONFIG["bound_check"], exponent=[0.3]),
            ),
            EXIT_OK,
            "note: dim ignores config fields: set.generator.aa, expect.tool, bound_check.exponent\n",
            id="dim_nested_typos",
        ),
        # the note follows the report of a run whose expectation fails
        pytest.param(
            "dim",
            dict(DIM_CONFIG, expect={"method": "kappa", "value": 0.9, "tol": 0.01}, table_exponet=0.5),
            EXIT_FAILED,
            "note: dim ignores config fields: table_exponet\n",
            id="dim_failed_expectation",
        ),
    ],
)
def test_ignored_fields_are_named_on_stderr(tmp_path, capsys, command, payload, code, note):
    # a fault in a field the run ignores is no input error; the seed --seed fills in is never named
    out = tmp_path / "o"
    config = write(tmp_path, "config.json", payload)
    assert main([command, "--config", config, "--out", str(out), "--seed", "5"]) == code
    assert capsys.readouterr().err == note
    assert (out / f"{command}_report.json").exists()


@pytest.mark.parametrize("payload", [DOMINATION_CONFIG, HALFWAVE_CONFIG], ids=lambda p: p["kind"])
def test_vanishing_input_is_input_error(tmp_path, capsys, payload):
    # band 12 lies above the Nyquist frequency 8 of a 256-point grid over [-8, 8)
    f = {"kind": "random_band", "band": 12, "seed": 1}
    payload = dict(payload, config=dict(payload["config"], f=f, grid={"n": 256}))
    out = tmp_path / "o"
    assert main(["experiment", "--config", write(tmp_path, "exp.json", payload), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: trial input random_band vanishes on the 256-point grid\n"
    assert not (out / "experiment_report.json").exists()


@pytest.mark.parametrize(
    "f, message",
    [
        # width**2 overflows a Python float: rejected with the config, before any work
        pytest.param(
            {"kind": "gaussian_bump", "width": 1e300},
            "error: bad experiment config: config.f: bump width must lie in (0, 1e150], got 1e+300\n",
            id="huge_width",
        ),
        # the phase 2 pi freq x overflows: rejected once sampled, with no RuntimeWarning
        pytest.param(
            {"kind": "modulated_bump", "width": 1.0, "freq": 1e308},
            "error: trial input modulated_bump samples a non-finite value on the 256-point grid\n",
            id="overflowing_phase",
        ),
    ],
)
def test_unusable_input_fails_before_any_maximal_function(tmp_path, capsys, monkeypatch, f, message):
    from fracmax import maximal_lab

    calls = []
    original = maximal_lab.maximal_function
    monkeypatch.setattr(maximal_lab, "maximal_function", lambda *a, **k: calls.append(1) or original(*a, **k))
    payload = dict(DOMINATION_CONFIG, config=dict(DOMINATION_CONFIG["config"], f=f))
    out = tmp_path / "o"
    assert main(["experiment", "--config", write(tmp_path, "exp.json", payload), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == message
    assert calls == [] and not (out / "experiment_report.json").exists()


def test_dim_counts_each_block_scale_and_tails_once(tmp_path, monkeypatch):
    # counts.csv, the Minkowski slope and the bound checks share their counts; only kappa recounts,
    # at its own four fitted scales
    from fracmax import dilation_sets as ds

    ds._cached_block.cache_clear()  # fresh blocks, with no counts left by other tests
    calls, passes = collections.Counter(), collections.Counter()
    original, cover = ds.entropy_number, ds._cover
    monkeypatch.setattr(
        ds, "entropy_number", lambda b, d, include_tails=True: calls.update([(b.j, float(d), include_tails)])
        or original(b, d, include_tails)
    )

    def counted_cover(pts, d, *cell_range):  # a pass over a whole block's points has no cell range
        if not cell_range:
            passes.update([(pts.ctypes.data, pts.size, d)])
        return cover(pts, d, *cell_range)

    monkeypatch.setattr(ds, "_cover", counted_cover)
    payload = dict(DIM_CONFIG, methods=["kappa", "minkowski", "distance_integral", "gap_sum"])
    payload["bound_check"] = {"exponents": [0.3, 0.5, 0.7]}
    assert main(["dim", "--config", write(tmp_path, "dim.json", payload), "--out", str(tmp_path / "o")]) == EXIT_OK
    sched = [float(d) for d in geometric_schedule(0.07, 0.7e-6, 9)]
    assert {key for key in calls if key[0] == 0} == {(0, d, t) for d in sched for t in (True, False)}
    assert {key for key, n in calls.items() if n > 1} == {(0, d, True) for d in sched[-4:]}
    assert max(calls.values()) == 2
    # the point cells are computed once per (block, delta), though each block is asked for with and without tails
    block = ds.rescaled_block(ds.DilationSet(ds.PowerSequence(1.0)), 0)
    block_passes = {(d, n) for (ptr, size, d), n in passes.items() if ptr == block.points.ctypes.data}
    assert block_passes == {(d, 1) for d in sched}
    assert max(passes.values()) == 1


def _experiment(kind, **changes):
    """The domination test config run as `kind`, with config entries replaced."""
    return dict(DOMINATION_CONFIG, kind=kind, config=dict(DOMINATION_CONFIG["config"], **changes))


def _dim_set(generator):
    """The dim test config over the set with this generator."""
    return dict(DIM_CONFIG, set={"generator": generator})


@pytest.mark.parametrize(
    "command, payload, named",
    [
        pytest.param("experiment", _experiment("probe", grid={"n": 256, "dim": 2}), None, id="probe_dim_2"),
        pytest.param("experiment", _experiment("domination", grid={"n": 256, "dim": 2}), None, id="domination_dim_2"),
        pytest.param("experiment", _experiment("domination", depth=-1), "depth", id="negative_depth"),
        pytest.param("experiment", _experiment("domination", grid={"n": 1000}), None, id="n_not_power_of_two"),
        pytest.param("experiment", _experiment("domination", j_range=[2, -2]), "j_range: ", id="reversed_j_range"),
        pytest.param("experiment", _experiment("domination", f={"kind": "nope"}), "f: ", id="unknown_f_kind"),
        pytest.param(
            "experiment", _experiment("domination", f={"kind": "gaussian_bump", "width": 0.0}), "f: ", id="zero_width"
        ),
        pytest.param(
            "experiment",
            _experiment("domination", f={"kind": "modulated_bump", "width": 0.0, "freq": 1.0}),
            "f: ",
            id="zero_width_modulated",
        ),
        pytest.param(
            "experiment",
            _experiment("domination", f={"kind": "random_band", "band": 1, "seed": -1}),
            "f: ",
            id="negative_seed",
        ),
        pytest.param("experiment", _experiment("domination", grid={"n": 256, "extent": 0.0}), None, id="zero_extent"),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, expect={"method": "gap_sum", "value": 0.5}),
            "expect.method",
            id="expect_method_not_run",
        ),
        pytest.param(
            "dim", dict(DIM_CONFIG, schedule={"delta_max": "big"}), "schedule.delta_max: ", id="non_numeric_schedule"
        ),
        pytest.param("dim", dict(DIM_CONFIG, j="zero"), "j: ", id="non_numeric_j"),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, bound_check={"exponents": ["x"]}),
            "bound_check.exponents: ",
            id="non_numeric_bound_exponent",
        ),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, bound_check={"exponents": [1.5]}),
            "bound_check.exponents",
            id="bound_exponent_above_one",
        ),
        pytest.param("dim", dict(DIM_CONFIG, bound_check=[]), "bound_check", id="bound_check_not_object"),
        pytest.param("dim", dict(DIM_CONFIG, table_exponent="x"), "table_exponent: ", id="non_numeric_table_exponent"),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, expect={"method": "kappa", "value": "x"}),
            "expect.value: ",
            id="non_numeric_expect_value",
        ),
        pytest.param("dim", dict(DIM_CONFIG, j_range=[3, -2]), "j_range: ", id="dim_reversed_j_range"),
        pytest.param("dim", dict(DIM_CONFIG, schedule={"count": 3}), "schedule.count", id="three_scale_schedule"),
        pytest.param("experiment", [DOMINATION_CONFIG], None, id="config_not_object"),
        pytest.param("experiment", _experiment("domination", grid=5), "grid", id="grid_not_object"),
        pytest.param(
            "experiment",
            _experiment("domination", s_resolution=-5),
            "s_resolution",
            id="negative_s_resolution",
        ),
        pytest.param(
            "experiment",
            dict(_experiment("halfwave"), hw_alpha=2.0),
            "hw_alpha",
            id="halfwave_alpha_above_one",
        ),
        pytest.param(
            "experiment",
            dict(_experiment("halfwave"), hw_beta="x"),
            "hw_beta: ",
            id="non_numeric_halfwave_beta",
        ),
        pytest.param("experiment", dict(_experiment("halfwave"), t_min=0), "t_min", id="zero_t_min"),
        pytest.param(
            "experiment",
            _experiment("halfwave", set={"generator": {"kind": "explicit", "points": [0.1, 0.2]}}),
            None,
            id="halfwave_two_times",
        ),
        pytest.param(
            "experiment",
            dict(HALFWAVE_CONFIG, config=dict(HALFWAVE_CONFIG["config"], f={"kind": "gaussian_bump", "width": 1e100})),
            "the evolution moves f at 0 of ",
            id="halfwave_constant_input",
        ),
        pytest.param("dim", dict(DIM_CONFIG, j=1.5), "j: ", id="fractional_j"),
        pytest.param("experiment", _experiment("domination", j_range=[False, True]), "j_range: ", id="bool_j_range"),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, set={"generator": {"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 2.5}}),
            "set: levels: ",
            id="fractional_cantor_levels",
        ),
        pytest.param("experiment", _experiment("probe", seed=True), "seed: ", id="bool_seed"),
        pytest.param("dim", _dim_set({"kind": "power_sequence", "a": "1.0"}), "set: a: ", id="string_a"),
        pytest.param("dim", _dim_set({"kind": "power_sequence", "a": True}), "set: a: ", id="bool_a"),
        pytest.param("dim", _dim_set({"kind": "explicit", "points": [True, 1.5]}), "set: points: ", id="bool_point"),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, expect={"method": "kappa", "value": 0.5, "tol": "0.05"}),
            "expect.tol: ",
            id="string_tol",
        ),
        pytest.param(
            "dim",
            _dim_set({"kind": "cantor", "base": 3, "digits": [False, 2], "levels": 4}),
            "set: digits",
            id="bool_digit",
        ),
        pytest.param(
            "dim",
            _dim_set({"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 65}),
            "set: levels",
            id="cantor_levels_65",
        ),
        pytest.param(
            "experiment",
            _experiment("domination", f={"kind": "gaussian_bump", "width": True}),
            "f: width: ",
            id="bool_width",
        ),
        pytest.param(
            "experiment", _experiment("domination", grid={"n": 256, "extent": "8"}), "grid.extent: ", id="string_extent"
        ),
        pytest.param("experiment", dict(_experiment("halfwave"), hw_alpha="0.5"), "hw_alpha: ", id="string_hw_alpha"),
        # every coercion error names its field, nested fields outermost first
        pytest.param(
            "dim",
            _dim_set({"kind": "union", "members": [{"kind": "power_sequence", "a": "1.0"}]}),
            "set: members: a: expected a number, got '1.0'",
            id="string_member_a",
        ),
        pytest.param(
            "dim",
            _dim_set({"kind": "power_sequence", "a": 10**400}),
            "set: a: expected a finite number",
            id="int_beyond_float_a",
        ),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, set={"generator": DIM_CONFIG["set"]["generator"], "cap": "9"}),
            "set: cap: ",
            id="string_cap",
        ),
        pytest.param("dim", dict(DIM_CONFIG, schedule={"count": "9"}), "schedule.count: ", id="string_schedule_count"),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, bound_check={"constant": "10"}),
            "bound_check.constant: ",
            id="string_bound_constant",
        ),
        pytest.param("experiment", _experiment("domination", alpha="0.45"), "alpha: ", id="string_alpha"),
        pytest.param("experiment", _experiment("domination", grid={"n": "256"}), "grid.n: ", id="string_grid_n"),
        pytest.param("experiment", _experiment("domination", j_range=5), "j_range: ", id="int_j_range"),
        pytest.param(
            "experiment",
            _experiment("domination", multiplier={"family": "limited_decay", "a": "1"}),
            "multiplier: a: ",
            id="string_multiplier_a",
        ),
        pytest.param(
            "experiment",
            _experiment("domination", f={"kind": "gaussian_bump", "width": "1"}),
            "f: width: ",
            id="string_width",
        ),
        pytest.param("experiment", dict(_experiment("halfwave"), t_max="0.35"), "t_max: ", id="string_t_max"),
        pytest.param("experiment", dict(_experiment("probe"), trials="3"), "trials: ", id="string_trials"),
        pytest.param(
            "experiment",
            dict(_experiment("probe"), regularity_grid=[0.5, "1"]),
            "regularity_grid: ",
            id="string_regularity",
        ),
        # bounds on the work a dim config asks for
        pytest.param(
            "dim",
            dict(DIM_CONFIG, set=dict(DIM_CONFIG["set"], cap=1_000_001)),
            "set: materialization cap must lie in 2..1000000",
            id="cap_above_default",
        ),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, schedule={"count": 65}),
            "schedule.count must lie in 4..64",
            id="count_65",
        ),
        pytest.param(
            "dim",
            dict(DIM_CONFIG, schedule={"count": 1e300}),
            "schedule.count must lie in 4..64",
            id="count_1e300",
        ),
        pytest.param("experiment", dict(_experiment("probe"), trials=65), "trials must lie in 1..64", id="trials_65"),
        pytest.param("experiment", dict(_experiment("probe"), trials=0), "trials must lie in 1..64", id="trials_0"),
        pytest.param(
            "experiment",
            dict(_experiment("probe"), regularity_grid=[1.0] * 65),
            "regularity_grid may hold at most 64 decays, got 65",
            id="regularity_grid_65",
        ),
        # domination runs the p = 2 inequality only
        pytest.param("experiment", _experiment("domination", p=4), "p: domination runs at p = 2 only", id="domination_p_4"),
        pytest.param("experiment", _experiment("domination", p=1.5), "p: domination runs at p = 2 only", id="domination_p_1.5"),
        # bounds on the work an experiment config asks for, checked before any work (kappa included)
        pytest.param("experiment", _experiment("domination", depth=60), "bad experiment config: config.depth", id="depth_60"),
        pytest.param("experiment", _experiment("domination", depth=25), "bad experiment config: config.depth", id="depth_25"),
        pytest.param("experiment", _experiment("domination", depth=10**30), "config.depth", id="depth_1e30"),
        pytest.param("experiment", _experiment("domination", s_resolution=10**6), "config.s_resolution", id="s_res_1e6"),
        pytest.param("experiment", _experiment("domination", grid={"n": 1 << 24}), "config.grid.n", id="n_2_24"),
        pytest.param("experiment", _experiment("domination", j_range=[-1100, 1100], depth=8), "config.j_range", id="j_wide"),
        pytest.param("experiment", _experiment("probe", depth=30), "bad experiment config: config.depth", id="probe_depth_30"),
        pytest.param("experiment", _experiment("probe", grid={"n": 1 << 24}), "config.grid.n", id="probe_n_2_24"),
        pytest.param("experiment", _experiment("halfwave", grid={"n": 1 << 24}), "config.grid.n", id="halfwave_n_2_24"),
        pytest.param("experiment", _experiment("halfwave", grid={"n": 1 << 40}), "config.grid.n", id="halfwave_n_2_40"),
        # the band's edge 2**(band + 1) overflowed in a traceback
        *(
            pytest.param(
                "experiment",
                _experiment(kind, f={"kind": "random_band", "band": band, "seed": 0}),
                "config.f: random_band band must be at most 1022",
                id=f"{kind}_band_{band}",
            )
            for kind in ("domination", "halfwave")
            for band in (1023, 2000)
        ),
        # 2.0 ** j overflowed for j >= 1024, and the scaling of block j for j <= -1024: each ended in a traceback
        *(
            pytest.param(
                "experiment",
                _experiment(kind, set={"generator": generator}, j_range=j_range, depth=1, grid={"n": 64}),
                "bad experiment config: config.j_range: dilations 2**j need |j| <= 1022",
                id=f"{kind}_{generator['kind']}_j_{j_range[0]}_{j_range[1]}",
            )
            for kind, generator, j_range in (
                ("probe", ONE_POINT["generator"], [-1100, 0]),
                ("probe", {"kind": "lacunary"}, [1020, 1030]),
                ("domination", {"kind": "lacunary"}, [1020, 1030]),
            )
        ),
        # a registry read a JSON list of [key, value] pairs as an object, so the pairs ran as what they named
        pytest.param("dim", _dim_set([["kind", "lacunary"]]), "set: expected an object, got list", id="generator_pairs"),
        pytest.param("dim", _dim_set("lacunary"), "set: expected an object, got str", id="generator_string"),
        pytest.param(
            "dim",
            _dim_set({"kind": "union", "members": [{"kind": "lacunary"}, [["kind", "lacunary"]]]}),
            "set: members: expected an object, got list",
            id="union_member_pairs",
        ),
        pytest.param(
            "experiment",
            _experiment("domination", multiplier=[["family", "band_bump"]]),
            "config.multiplier: expected an object, got list",
            id="multiplier_pairs",
        ),
    ],
)
def test_config_error_exits_one(tmp_path, capsys, command, payload, named):
    config = write(tmp_path, "bad.json", payload)
    assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # `named` is the field the message must name, where it names one
    assert named is None or named in err, err
    assert not (tmp_path / "o").exists()


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


def test_every_config_class_declares_each_field_with_wire():
    # a field declared without `wire` would read as its default whatever the config says, and leave the echo
    assert {registry for registry, _ in _WIRE_NAMES.values()} == {GENERATORS, FAMILIES, FUNCTIONS, EXPERIMENTS}
    for cls in [*_WIRE_NAMES, DilationSet, DimConfig]:
        undeclared = [f.name for f in fields(cls) if f.init and "wire" not in f.metadata]
        assert not undeclared, f"{cls.__name__}: {undeclared}"


@pytest.mark.parametrize("payload", [DIM_CONFIG, FUZZ_DIM_CONFIG], ids=["dim", "fuzz_dim"])
def test_dim_config_wire_roundtrip(payload):
    config = from_wire(DimConfig, payload)
    assert from_wire(DimConfig, json.loads(json.dumps(to_wire(config)))) == config
    assert config.methods == tuple(payload["methods"]) and config.target == payload["expect"]["value"]


def test_integral_float_fields_read_as_integers(tmp_path):
    payload = dict(DIM_CONFIG, set=dict(DIM_CONFIG["set"], cap=1e6), j=0.0)
    config = write(tmp_path, "dim.json", payload)
    assert '"cap": 1000000.0' in Path(config).read_text()
    assert main(["dim", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_OK


# one config file per experiment kind, holding every field the kind reads
FUZZ_EXPERIMENTS = {
    "domination": _experiment("domination", p=2.0),
    "halfwave": HALFWAVE_CONFIG,
    "probe": dict(PROBE_CONFIG, trials=3, regularity_grid=[0.5, 1.0], config=dict(PROBE_CONFIG["config"], p=2.0, seed=0)),
}
FUZZ_F_SPECS = [
    {"kind": "gaussian_bump", "width": 1.0},
    {"kind": "modulated_bump", "width": 1.0, "freq": 2.0},
    {"kind": "random_band", "band": 2, "seed": 5},
]
# each kind's top-level and config fields, its grid fields and, if it reads `f`, the fields of `f`
FUZZ_EXPERIMENT_FIELDS = [
    (kind, path)
    for kind, base in FUZZ_EXPERIMENTS.items()
    for path in [(key,) for key in sorted(base) if key not in ("kind", "config")]
    + [("config", key) for key in sorted(base["config"])]
    + [("config", "grid", key) for key in ("n", "extent", "dim")]
    + [("config", "f", key) for key in ("kind", "width", "freq", "band", "seed") if "f" in base["config"]]
]


@settings(max_examples=200, deadline=None)
@given(f=st.sampled_from(FUZZ_F_SPECS), target=st.sampled_from(FUZZ_EXPERIMENT_FIELDS), value=JSON_VALUES)
def test_experiment_config_fuzz_raises_only_input_errors(f, target, value):
    kind, path = target
    payload = copy.deepcopy(FUZZ_EXPERIMENTS[kind])
    if "f" in payload["config"]:
        payload["config"]["f"] = dict(f)
    *parents, key = path
    node = payload
    for parent in parents:
        node = node[parent]
    node[key] = value
    try:
        experiment = EXPERIMENTS.from_json(payload)
    except INPUT_ERRORS:
        return
    assert EXPERIMENTS.to_json(experiment)["kind"] == kind


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
# per experiment kind: the registry slots it reads, its `config` object and its top-level fields
FUZZ_NESTED_FIELDS = [
    (kind, slot, spec, key)
    for kind, base in FUZZ_EXPERIMENTS.items()
    for slot, specs in {
        **{slot: specs for slot, specs in FUZZ_KINDS.items() if slot in ("generator", "member") or slot in base["config"]},
        "config": [base["config"]],
        "top": [{key: value for key, value in base.items() if key not in ("kind", "config")}],
    }.items()
    for spec in specs
    for key in spec
]


def _not_a_number(value):
    return isinstance(value, (bool, str))


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(FUZZ_NESTED_FIELDS), value=JSON_VALUES)
def test_nested_config_fuzz_rejects_non_numbers(target, value):
    kind, slot, base, key = target
    spec = dict(base, **{key: value})
    payload = copy.deepcopy(FUZZ_EXPERIMENTS[kind])
    config = payload["config"]
    if slot == "generator":
        config["set"] = {"generator": spec}
    elif slot == "member":
        config["set"] = {"generator": {"kind": "union", "members": [spec, {"kind": "lacunary"}]}}
    elif slot == "config":
        config.update(spec)
    elif slot == "top":
        payload.update(spec)
    else:
        config[slot] = spec
    # a number field given a bool or a string, or a list field given a list holding one
    field = base[key]
    must_raise = (isinstance(field, (int, float)) and _not_a_number(value)) or (
        isinstance(field, list) and isinstance(value, list) and any(map(_not_a_number, value))
    )
    try:
        experiment = EXPERIMENTS.from_json(payload)
    except INPUT_ERRORS:
        return
    assert not must_raise, (kind, slot, key, value)
    assert EXPERIMENTS.to_json(experiment)["kind"] == kind


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


def _count_maximal_calls(monkeypatch):
    from fracmax import maximal_lab

    calls = []
    real = maximal_lab.maximal_function
    monkeypatch.setattr(maximal_lab, "maximal_function", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_probe_nonpositive_regularity_is_rejected_before_work(tmp_path, capsys, monkeypatch):
    calls = _count_maximal_calls(monkeypatch)
    payload = json.loads((CONFIGS / "probe.json").read_text())
    config = write(tmp_path, "probe.json", dict(payload, regularity_grid=[0.5, -1.0]))
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "regularity_grid" in err and "-1.0" in err, err
    assert calls == []


def test_domination_without_points_in_window_is_rejected_before_work(tmp_path, capsys, monkeypatch):
    # the lacunary augmentation would fill the window; the kappa estimate of the set itself cannot
    calls = _count_maximal_calls(monkeypatch)
    payload = _experiment("domination", set={"generator": {"kind": "explicit", "points": [100.0]}}, j_range=[-1, 1])
    config = write(tmp_path, "dom.json", payload)
    out = tmp_path / "o"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "all blocks empty" in err and err.count("\n") == 1, err
    assert calls == [] and not (out / "experiment_report.json").exists()


def test_probe_three_trials_runs(tmp_path, monkeypatch):
    calls = _count_maximal_calls(monkeypatch)
    config = write(tmp_path, "probe.json", dict(_experiment("probe", j_range=[-1, 1]), trials=3))
    out = tmp_path / "o"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "experiment_report.json").read_text())
    assert len(report["results"]["per_trial"]) == 3 and len(calls) == 3


@pytest.mark.parametrize(
    "text",
    [
        # json.loads raises a plain ValueError past Python's int-string conversion limit
        pytest.param('{"set": {"generator": {"kind": "power_sequence", "a": ' + "1" * 5000 + "}}}", id="5000_digits"),
        # and a RecursionError past the interpreter's recursion limit
        pytest.param('{"set": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deep_nesting"),
    ],
)
def test_unparsable_config_is_parse_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["dim", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: config parse error: ") and err.count("\n") == 1, err


def test_probe_vanishing_trial_is_input_error(tmp_path, capsys):
    # band 3 of the random_band trial lies above the Nyquist frequency 2 of a 64-point grid
    config = write(tmp_path, "probe.json", _experiment("probe", grid={"n": 64}))
    out = tmp_path / "o"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: trial input random_band vanishes on the 64-point grid\n"
    assert not (out / "experiment_report.json").exists()


@dataclass(frozen=True)
class _Estimate:
    value: float


@pytest.mark.parametrize(
    "command, measured, message",
    [
        pytest.param(command, measured, message, id=f"{command}-{name}".removeprefix("verify-"))
        for command in ("verify", "dim", "experiment")
        for name, measured, message in [
            ("nan", float("nan"), "error: report holds a non-finite number"),
            # a numpy scalar that is no Python float has no JSON form: one line, no traceback
            ("float32", np.float32(1.0), "error: report holds a non-JSON value"),
        ]
    ],
)
def test_non_finite_report_is_input_error(tmp_path, capsys, monkeypatch, command, measured, message):
    # each run makes its other files before the report is refused; none of them is written
    from fracmax import maximal_lab, verify

    check = verify.Check("odd_leaf", True, measured, "true")
    monkeypatch.setattr(verify, "run_suite", lambda name, seed: verify.SuiteReport(name, seed, (check,)))
    monkeypatch.setitem(DIM_METHODS, "minkowski", lambda config, block, counts: _Estimate(measured))
    trials = ({"odd_leaf": measured}, [asdict(check)], {"trials.csv": "trial\n"})
    monkeypatch.setattr(maximal_lab.Probe, "run", lambda self: trials)
    argv = {
        "verify": ["verify", "--suite", "fraccalc"],
        "dim": ["dim", "--config", write(tmp_path, "dim.json", {"set": DIM_CONFIG["set"], "methods": ["minkowski"]})],
        "experiment": ["experiment", "--config", write(tmp_path, "probe.json", PROBE_CONFIG)],
    }[command]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert not [path for path in out.rglob("*") if path.is_file()]


@pytest.mark.parametrize("command", ["verify", "dim", "experiment"])
def test_out_naming_a_file_is_one_error_line(tmp_path, capsys, command):
    # the report is made, then --out cannot be created: one error line and exit 1, no traceback
    argv = {
        "verify": ["verify", "--suite", "fraccalc"],
        "dim": ["dim", "--config", write(tmp_path, "dim.json", {"set": DIM_CONFIG["set"], "methods": ["minkowski"]})],
        "experiment": ["experiment", "--config", write(tmp_path, "probe.json", PROBE_CONFIG)],
    }[command]
    out = tmp_path / "taken"
    out.write_text("kept")
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == "" and out.read_text() == "kept"


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    missing = str(tmp_path / "missing.json")
    for argv in (["dim", "--config", missing], ["verify", "--suite", "nope"], ["experiment", "--config", missing]):
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert built == []


# command -> its own option and that option's default (None: required)
@pytest.mark.parametrize(
    "command, option, default", [("dim", "config", None), ("verify", "suite", "all"), ("experiment", "config", None)]
)
def test_each_command_takes_its_option_with_out_and_seed(capsys, command, option, default):
    from fracmax.cli import PARSER

    given = [] if default else [f"--{option}", "c.json"]
    if default is None:
        with pytest.raises(SystemExit) as exc:
            PARSER.parse_args([command])
        assert exc.value.code == 2
        assert f"the following arguments are required: --{option}" in capsys.readouterr().err
    args = PARSER.parse_args([command, *given])
    assert set(vars(args)) == {"command", option, "out", "seed", "handler"}
    assert (args.command, getattr(args, option), args.out, args.seed) == (command, default or "c.json", "out", 0)
    assert PARSER.parse_args([command, *given, "--seed", "7"]).seed == 7


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
def test_shipped_config_runs(tmp_path, capsys, path):
    command = "experiment" if "kind" in json.loads(path.read_text()) else "dim"
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
    if command == "dim":  # a shipped dim config holds no field its run ignores
        assert capsys.readouterr().err == ""
    reports = sorted(tmp_path.glob("*.json"))
    assert reports
    for report in reports:
        json.loads(report.read_text(), parse_constant=_strict_constant)
