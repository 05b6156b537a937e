"""Op lists for the three benchmark workloads, generated from a seed.

An op is one `fracmax` command run through `cli.main`. Every
config the generator can emit is a member of a fixed pool (`pool()`), and the
seed picks one member per slot, so every generated op has a reference taken
at the seed commit (`reference.json`) and a second seed gives an op list with
the same mix of op kinds. Slots also fix the cost-driving choices (command,
experiment kind, multiplier family, grid size, set kind, depth) so that the
pass time hardly depends on the seed; the seed draws the sets and the
parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHIPPED_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

WORKLOADS = ("verify", "experiments", "dimension")
# Workloads whose timed passes each run in a fresh process. Every dimension op
# has a set of its own, and `fracmax dim` traffic is one fresh process per
# config, so its blocks are never in the block cache; a second pass in the same
# process would find every block there.
FRESH_PROCESS_PER_PASS = ("dimension",)


@dataclass(frozen=True)
class Op:
    name: str
    command: str  # verify | experiment | dim
    config: dict | None  # None for verify
    cli_seed: int = 0

    @property
    def ref_id(self) -> str:
        blob = json.dumps([self.command, self.config, self.cli_seed], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _shipped(command: str, name: str) -> Op:
    return Op(f"shipped/{name}", command, json.loads((SHIPPED_CONFIGS / f"{name}.json").read_text()))


# ---------------------------------------------------------------------------
# set menus shared by the experiment slots (one menu entry per pass)

N_MENU = 3
POWER_A = (0.85, 1.2, 1.6)
CANTOR = ((3, (0, 2), 10), (4, (0, 1, 3), 7), (5, (0, 2, 4), 6))


def _explicit_points(seed: int, count: int) -> list[float]:
    """Log-uniform points on [0.02, 8]: every dyadic block from 2**-6 to 2**2 is
    hit, and at least three points fall in the half-wave window [0.025, 0.35]."""
    rng = np.random.default_rng(seed)
    pts = np.exp(rng.uniform(math.log(0.02), math.log(8.0), count))
    pts = np.concatenate([pts, [0.03, 0.1, 0.3, 1.0, 1.5, 2.0]])
    return [float(p) for p in np.unique(np.round(pts, 9))]


def _power(a: float) -> dict:
    return {"kind": "power_sequence", "a": a}


def _cantor(base: int, digits, levels: int) -> dict:
    return {"kind": "cantor", "base": base, "digits": list(digits), "levels": levels}


def _explicit(seed: int, count: int) -> dict:
    return {"kind": "explicit", "points": _explicit_points(seed, count)}


LACUNARY = {"kind": "lacunary"}


def _union(*members: dict) -> dict:
    return {"kind": "union", "members": list(members)}


def _menu_set(kind: str, menu: int) -> dict:
    if kind == "power":
        return _power(POWER_A[menu])
    if kind == "cantor":
        return _cantor(*CANTOR[menu])
    if kind == "explicit":
        return _explicit(100 + menu, 60)
    if kind == "union":
        return _union(_power(POWER_A[menu]), _cantor(*CANTOR[(menu + 1) % N_MENU]))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# experiments: the three shipped experiment configs plus one generated config
# per slot. Nearly all of the work is in maximal_lab (batched dilation FFTs and
# the square functional); the rest is fractional_calculus.marchaud_matrix, and
# multipliers.evaluate and SmoothCutoff.phi on (dilations x pixels) grids. It
# never calls mtilde or sigma2_norm, so it is the control for a faster mtilde
# path. Sets repeat across ops, so block materialization mostly hits the cache.

FAMILIES = ("band_bump", "limited_decay", "slow_decay", "oscillatory")
GRID_N = (512, 1024, 2048)
DEPTHS = (3, 4, 5)
N_VARIANT = 2


def _multiplier(family: str, variant: int) -> dict:
    if family == "limited_decay":
        return {"family": family, "a": (1.25, 0.8)[variant]}
    if family == "slow_decay":
        return {"family": family, "beta": (1.0, 0.8)[variant], "delta": (0.5, 0.3)[variant]}
    if family == "oscillatory":
        return {"family": family, "alpha": (0.5, 0.3)[variant], "beta": (1.0, 0.8)[variant]}
    return {"family": family}


def _test_function(variant: int) -> dict:
    return ({"kind": "gaussian_bump", "width": 1.0}, {"kind": "modulated_bump", "width": 1.0, "freq": 2.0})[variant]


def _grid(n: int) -> dict:
    return {"n": n, "extent": 8.0, "dim": 1}


def _domination(fam_i: int, n_i: int, menu: int, variant: int) -> Op:
    family, n = FAMILIES[fam_i], GRID_N[n_i]
    set_kind = ("power", "cantor", "explicit", "union")[(fam_i + n_i) % 4]
    config = {
        "set": {"generator": _menu_set(set_kind, menu)},
        "multiplier": _multiplier(family, variant),
        "f": _test_function(variant),
        "alpha": (0.45, 0.4)[variant],
        "beta": (0.3, 0.25)[variant],
        "grid": _grid(n),
        "j_range": [-1, 1],
        # depth is fixed per slot, so that the pass time hardly depends on the
        # seed; the n = 2048 ops set the memory peak
        "depth": DEPTHS[(fam_i + n_i) % 3] if n < 2048 else 4,
        "s_resolution": 32,
    }
    return Op(f"domination/{family}/{n}", "experiment", {"kind": "domination", "config": config})


def _probe(fam_i: int, menu: int, variant: int) -> Op:
    # the probe's maximal function runs over the set as given; with the
    # lacunary grid adjoined every dyadic level contributes a new dilation
    family = FAMILIES[fam_i]
    set_kind = ("power", "cantor", "explicit", "power")[fam_i]
    config = {
        "set": {"generator": _union(_menu_set(set_kind, menu), LACUNARY)},
        "multiplier": _multiplier(family, variant),
        "f": {"kind": "gaussian_bump", "width": 1.0},
        "grid": _grid((512, 1024, 2048, 1024)[fam_i]),
        "j_range": [-3, 4],
        "depth": DEPTHS[fam_i % 3],
    }
    return Op(
        f"probe/{family}",
        "experiment",
        {"kind": "probe", "trials": 1 + (fam_i + variant) % 3, "regularity_grid": ([0.5, 1.0], [0.3, 0.75, 1.5])[variant], "config": config},
    )


def _halfwave(h_i: int, menu: int, variant: int) -> Op:
    # half-wave times come from power, lacunary and explicit generators only
    sets = (
        _menu_set("power", menu),
        LACUNARY,
        _menu_set("explicit", menu),
        _union(_power(POWER_A[menu]), LACUNARY),
    )
    config = {
        "set": {"generator": sets[h_i]},
        "multiplier": {"family": "band_bump"},
        "f": {"kind": "gaussian_bump", "width": (1.0, 0.75)[variant]},
        "grid": _grid((512, 1024, 2048, 1024)[h_i]),
    }
    spec = {"kind": "halfwave", "hw_alpha": (0.5, 0.6)[variant], "hw_beta": (0.4, 0.3)[variant], "t_min": 0.025, "t_max": 0.35}
    spec["config"] = config
    return Op(f"halfwave/{('power', 'lacunary', 'explicit', 'union')[h_i]}", "experiment", spec)


EXPERIMENT_SLOTS = (
    [lambda m, v, f=f, n=n: _domination(f, n, m, v) for f in range(4) for n in range(3)]
    + [lambda m, v, f=f: _probe(f, m, v) for f in range(4)]
    + [lambda m, v, h=h: _halfwave(h, m, v) for h in range(4)]
)


def _experiments(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    menu = int(rng.integers(N_MENU))
    shipped = [_shipped("experiment", name) for name in ("domination", "probe", "halfwave")]
    return shipped + [slot(menu, int(rng.integers(N_VARIANT))) for slot in EXPERIMENT_SLOTS]


def _experiments_pool() -> list[Op]:
    shipped = [_shipped("experiment", name) for name in ("domination", "probe", "halfwave")]
    return shipped + [slot(m, v) for slot in EXPERIMENT_SLOTS for m in range(N_MENU) for v in range(N_VARIANT)]


# ---------------------------------------------------------------------------
# dimension: a fixed first op (PIN_A), the two shipped dim configs and one
# generated config per slot, and every op has a set no other op in the pass
# uses. dilation_sets does almost all the work (materialization,
# entropy_number, distance integrals, gap scans); there is no FFT and no
# multiplier. It is the control for changes to the multiplier path and to the
# block cache, and the target for simplifying the set code. Each timed pass
# runs in a fresh process (FRESH_PROCESS_PER_PASS).

N_DIM_VARIANT = 4
BOUND_CHECK = {"exponents": [0.3, 0.5, 0.7], "constant": 10.0}
# Each power slot draws a from N_POWER_VARIANT values spread over +-5% of its
# centre. The bands avoid the shipped dim_power exponent 1.0.
POWER_CENTRES = (0.85, 0.95, 1.2, 1.4, 1.65, 1.9, 2.5, 3.0)
N_POWER_VARIANT = 8
# A fixed first op: materializing its block allocates arrays (about 2.5 MB)
# larger than any later op's. In a fresh process glibc's malloc raises its mmap
# and trim thresholds to the largest chunk it has freed, so without this op
# the page faults of every later op, and so a pass's time, would jump with the
# seed's draw for the 0.85 slot (by up to 40% between seeds).
PIN_A = 0.7
# (digits, levels) per base; base 3 avoids the shipped dim_cantor ((0, 2), 12)
CANTOR_VARIANTS = {
    3: (((0, 2), 9), ((0, 2), 11), ((0, 1), 10), ((1, 2), 10)),
    4: (((0, 3), 8), ((0, 2), 8), ((0, 1, 3), 6), ((1, 2), 8)),
    5: (((0, 2, 4), 6), ((0, 4), 8), ((1, 3), 8), ((0, 1, 4), 6)),
    6: (((0, 5), 7), ((0, 2, 5), 5), ((1, 4), 7), ((0, 3), 7)),
}
EXPLICIT_SIZES = (40, 400, 4000)


def _power_op(name: str, a: float) -> Op:
    config = {
        "set": {"generator": _power(a)},
        "methods": ["kappa", "minkowski", "distance_integral", "gap_sum"],
        "bound_check": BOUND_CHECK,
        "expect": {"method": "kappa", "value": 1.0 / (1.0 + a), "tol": 0.05},
    }
    return Op(name, "dim", config)


def _dim_power(band: int, variant: int) -> Op:
    centre = POWER_CENTRES[band]
    return _power_op(f"dim/power/{centre}", round(centre * (0.95 + 0.1 * variant / (N_POWER_VARIANT - 1)), 6))


def _dim_fixed() -> list[Op]:
    return [_power_op("dim/power/pin", PIN_A)] + [_shipped("dim", name) for name in ("dim_power", "dim_cantor")]


def _dim_cantor(base: int, variant: int) -> Op:
    digits, levels = CANTOR_VARIANTS[base][variant]
    config = {
        "set": {"generator": _cantor(base, digits, levels)},
        "methods": ["kappa", "minkowski", "distance_integral"],
        "schedule": {"delta_max": float(base) ** -2, "delta_min": float(base) ** -(levels - 1), "count": 9},
        "bound_check": {"exponents": [0.5, 0.8], "constant": 10.0},
        "expect": {"method": "minkowski", "value": math.log(len(digits)) / math.log(base), "tol": 0.05},
    }
    return Op(f"dim/cantor/base{base}", "dim", config)


def _dim_explicit(size_i: int, variant: int) -> Op:
    size = EXPLICIT_SIZES[size_i]
    config = {
        "set": {"generator": _explicit(1000 * size_i + variant, size)},
        "methods": ["kappa", "minkowski", "distance_integral"],
        "bound_check": BOUND_CHECK,
    }
    return Op(f"dim/explicit/{size}", "dim", config)


def _dim_union(u_i: int, variant: int) -> Op:
    members = (
        (_power(round(1.4 + 0.04 * variant, 4)), LACUNARY),
        (_cantor(3, (0, 2), 7 + variant), _explicit(500 + variant, 40)),
        (_power(round(2.0 + 0.08 * variant, 4)), _cantor(4, (0, 3), 6), LACUNARY),
    )[u_i]
    config = {
        "set": {"generator": _union(*members)},
        "methods": ["kappa", "minkowski", "distance_integral"],
        "bound_check": BOUND_CHECK,
    }
    return Op(f"dim/union/{u_i}", "dim", config)


# (variant count, op of a variant) per slot
DIMENSION_SLOTS = (
    [(N_POWER_VARIANT, lambda v, b=b: _dim_power(b, v)) for b in range(len(POWER_CENTRES))]
    + [(N_DIM_VARIANT, lambda v, b=b: _dim_cantor(b, v)) for b in CANTOR_VARIANTS]
    + [(N_DIM_VARIANT, lambda v, k=k: _dim_explicit(k, v)) for k in range(len(EXPLICIT_SIZES))]
    + [(N_DIM_VARIANT, lambda v, u=u: _dim_union(u, v)) for u in range(3)]
)


def _dimension(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    return _dim_fixed() + [slot(int(rng.integers(count))) for count, slot in DIMENSION_SLOTS]


def _dimension_pool() -> list[Op]:
    return _dim_fixed() + [slot(v) for count, slot in DIMENSION_SLOTS for v in range(count)]


# ---------------------------------------------------------------------------


def build(workload: str, seed: int) -> list[Op]:
    """The op list one pass of `workload` runs for `seed`."""
    if workload == "verify":
        # `verify --suite all` with the seed passed through. About two thirds of
        # its time is multipliers (the mtilde quadrature, through
        # radial_derivative) and lp_frames (sigma2_norm band grids, Besov
        # pieces), which the other workloads barely call.
        return [Op("verify/all", "verify", None, seed)]
    if workload == "experiments":
        return _experiments(seed)
    if workload == "dimension":
        ops = _dimension(seed)
        sets = [json.dumps(op.config["set"], sort_keys=True) for op in ops]
        if len(set(sets)) != len(sets):
            raise ValueError("dimension ops must not share a set")
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list[Op]:
    """Every op `build` can return for the experiments or dimension workload."""
    ops = _experiments_pool() if workload == "experiments" else _dimension_pool()
    return list({op.ref_id: op for op in ops}.values())
