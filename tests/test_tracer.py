import contextlib
import io
import json
import sys
from pathlib import Path

from fracmax import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
keep = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # nothing is written under benchmarks/
try:
    from tracer import Tracer
finally:
    sys.path.pop(0)
    sys.dont_write_bytecode = keep

MEMBERS = [{"kind": "power_sequence", "a": 1.0}, {"kind": "lacunary"}]
# one per-layer work metric of the benchmark each; a counted function renamed or deleted reads 0
COUNTERS = (
    "multipliers.eval_points",
    "lp_frames.cutoff_points",
    "fractional_calculus.matrix_cells",
    "maximal_lab.dilations",
    "dilation_sets.block_points",
)


def test_tracer_counts_every_layer_of_a_domination_run(tmp_path):
    spec = {
        "kind": "domination",
        "config": {
            "set": {"generator": {"kind": "union", "members": MEMBERS}},
            "multiplier": {"family": "band_bump"},
            "f": {"kind": "gaussian_bump", "width": 1.0},
            "alpha": 0.45,
            "beta": 0.3,
            "grid": {"n": 256, "extent": 8.0, "dim": 1},
            "j_range": [-1, 1],
            "depth": 2,
            "s_resolution": 16,
        },
    }
    config = tmp_path / "domination.json"
    config.write_text(json.dumps(spec))
    tracer = Tracer()
    patched = tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["experiment", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0 and patched > 0
    counts = tracer.summary()["counts"]
    assert [name for name in COUNTERS if counts.get(name, 0) <= 0] == []
    assert tracer.leftovers() == []
