"""Dilation sets on (0, inf): dyadic blocks, covering counts, dimension estimators.

A dilation set is described by a generator (power-law sequence, explicit
points, Cantor-type construction, lacunary grid, or a union of these) and is
materialized block by block: block j holds the points of (2**-j * E) in [1,2].
Everything downstream (entropy numbers, distance integrals, box-counting
slopes) operates on those blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .wire import Registry, tuple_of

DEDUP_TOL = 1e-15
DEFAULT_GAP_FLOOR = 1e-9
DEFAULT_CAP = 1_000_000
DIVERGENCE_CEILING = 1e12

# Relative slack used to decide that a point sits exactly on a covering-grid
# boundary k*delta (closed intervals: such a point counts for both cells).
_BOUNDARY_RTOL = 1e-9


# ---------------------------------------------------------------------------
# generators: `materialize(j, cap, gap_floor)` gives block j as (ascending
# points, truncated flag, tails); `small_times(t_min, t_max)` gives the set's
# times accumulating at zero, unfiltered.

GENERATORS = Registry("kind", "set kind")


@GENERATORS.register("power_sequence", a=float)
@dataclass(frozen=True)
class PowerSequence:
    """The set {1 + n**(-a) : n = 1, 2, ...}; accumulates at 1 from above."""

    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"decay exponent must be positive, got {self.a}")

    def offsets(self, n) -> np.ndarray:
        """Distance n**(-a) of the n-th point to the accumulation point."""
        return np.asarray(n, dtype=float) ** (-self.a)

    def sequence(self, n) -> np.ndarray:
        return 1.0 + self.offsets(n)

    def materialize(self, j: int, cap: int, gap_floor: float):
        if j == 1:
            # only n = 1 lands in [2, 4]; it rescales to the point 1
            return np.array([1.0]), False, ()
        if j != 0:
            return np.array([]), False, ()
        # j = 0: the whole sequence {1 + n**-a}, truncated at the gap floor / cap
        a = self.a
        # gap(n) = n**-a - (n+1)**-a ~ a * n**-(1+a); find last n with gap >= floor
        n_star = max(1.0, (a / max(gap_floor, 1e-300)) ** (1.0 / (1.0 + a)))
        n_max = int(min(cap, math.ceil(n_star * 2)))
        n = np.arange(1, n_max + 1, dtype=float)
        pts = self.sequence(n)
        gaps = -np.diff(pts)  # decreasing sequence
        big = np.nonzero(gaps >= gap_floor)[0]
        last = int(big[-1]) + 2 if big.size else 1  # keep points 1..last
        last = min(last, cap)
        pts = pts[:last][::-1].copy()  # ascending
        tail = TailInfo(
            anchor=1.0,
            edge=float(pts[0]),
            gap=float(self.offsets(last) - self.offsets(last + 1)),
            power=a,
            n_trunc=last,
        )
        return pts, True, (tail,)

    def small_times(self, t_min: float, t_max: float) -> np.ndarray:
        """The offsets to the accumulation point 1."""
        n_lo = max(1, math.floor(t_max ** (-1.0 / self.a)))
        n_hi = math.ceil(t_min ** (-1.0 / self.a)) + 1
        n = np.arange(n_lo, min(n_hi, n_lo + 100000) + 1, dtype=float)
        return self.offsets(n)


@GENERATORS.register("explicit", points=tuple_of(float))
@dataclass(frozen=True)
class ExplicitPoints:
    points: tuple[float, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("explicit point set must be nonempty")
        if any(p <= 0 for p in self.points):
            raise ValueError("all points must be strictly positive")
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    def materialize(self, j: int, cap: int, gap_floor: float):
        pts, trunc = _finite_block(np.asarray(self.points, dtype=float), j, cap)
        return pts, trunc, ()

    def small_times(self, t_min: float, t_max: float) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


@GENERATORS.register("cantor", base=int, digits=tuple, levels=int)
@dataclass(frozen=True)
class CantorLike:
    """Endpoints of a base-adic Cantor construction on [1, 2].

    At each level every interval is split into `base` equal children and the
    children at the digit positions in `digits` are kept.  The materialized
    point set consists of both endpoints of every kept level-`levels`
    interval.
    """

    base: int
    digits: tuple[int, ...]
    levels: int

    def __post_init__(self):
        if self.base < 3:
            raise ValueError("base must be >= 3")
        digits = tuple(sorted(set(self.digits)))
        if not digits or any(d < 0 or d >= self.base or int(d) != d for d in digits):
            raise ValueError(f"digits must be a nonempty subset of 0..{self.base - 1}")
        object.__setattr__(self, "digits", digits)
        if self.levels < 0:
            raise ValueError("levels must be >= 0")

    def materialize(self, j: int, cap: int, gap_floor: float):
        k = len(self.digits)
        levels = self.levels
        trunc_lvl = False
        while levels > 0 and 2 * k**levels > cap:
            levels -= 1
            trunc_lvl = True
        lefts = np.array([0.0])
        for lvl in range(1, levels + 1):
            step = self.base ** (-float(lvl))
            lefts = (lefts[:, None] + np.array(self.digits, dtype=float)[None, :] * step).ravel()
        width = self.base ** (-float(levels))
        base_pts = _dedup_sorted(np.concatenate([1.0 + lefts, 1.0 + lefts + width]))
        pts, trunc = _finite_block(base_pts, j, cap)
        return pts, trunc or trunc_lvl, ()

    def small_times(self, t_min: float, t_max: float) -> np.ndarray:
        raise ValueError("a Cantor set has no small-time schedule")


@GENERATORS.register("lacunary")
@dataclass(frozen=True)
class LacunaryGrid:
    """The lacunary set {2**j : j in Z}."""

    def materialize(self, j: int, cap: int, gap_floor: float):
        # 2**(k-j) lies in [1,2] exactly for k-j in {0, 1}
        return np.array([1.0, 2.0]), False, ()

    def small_times(self, t_min: float, t_max: float) -> np.ndarray:
        k_lo = math.ceil(math.log2(1.0 / t_max))
        k_hi = math.floor(math.log2(1.0 / t_min))
        return 2.0 ** -np.arange(k_lo, k_hi + 1, dtype=float)


@GENERATORS.register("union", members=tuple_of(GENERATORS.from_json))
@dataclass(frozen=True)
class UnionSet:
    members: tuple["Generator", ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("union of zero sets")

    def materialize(self, j: int, cap: int, gap_floor: float):
        parts, truncs, tails = [], False, []
        for member in self.members:
            p, t, tl = member.materialize(j, cap, gap_floor)
            parts.append(p)
            truncs = truncs or t
            tails.extend(tl)
        pts = _dedup_sorted(np.concatenate(parts)) if parts else np.array([])
        return pts, truncs, tuple(sorted(tails, key=lambda t: t.anchor))

    def small_times(self, t_min: float, t_max: float) -> np.ndarray:
        return np.concatenate([m.small_times(t_min, t_max) for m in self.members])


Generator = Union[PowerSequence, ExplicitPoints, CantorLike, LacunaryGrid, UnionSet]


@dataclass(frozen=True)
class DilationSet:
    generator: Generator
    materialization_cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.materialization_cap < 2:
            raise ValueError("materialization cap too small")

    def to_json(self) -> dict:
        return {"generator": GENERATORS.to_json(self.generator), "cap": self.materialization_cap}

    @staticmethod
    def from_json(payload: dict) -> "DilationSet":
        return DilationSet(GENERATORS.from_json(payload["generator"]), int(payload.get("cap", DEFAULT_CAP)))


# ---------------------------------------------------------------------------
# blocks


@dataclass(frozen=True)
class TailInfo:
    """Un-materialized accumulation tail of a block, occupying (anchor, edge).

    All gaps in the tail are <= `gap`.  `power` carries the decay exponent of
    the generating sequence when known (offsets ~ n**-power), which allows
    analytic tail bounds; `n_trunc` is the index of the last materialized
    sequence element in that case.
    """

    anchor: float
    edge: float
    gap: float
    power: float | None = None
    n_trunc: int = 0


@dataclass(frozen=True, eq=False)
class BlockSet:
    """Points of (2**-j * E) intersected with [1, 2], sorted ascending."""

    j: int
    points: np.ndarray
    includes_endpoints: tuple[bool, bool] = (False, False)
    truncated: bool = False
    tails: tuple[TailInfo, ...] = ()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.size:
            if pts.min() < 1.0 - 1e-12 or pts.max() > 2.0 + 1e-12:
                raise ValueError("block points must lie in [1, 2]")
            if np.any(np.diff(pts) <= 0):
                raise ValueError("block points must be strictly ascending")

    def __len__(self):
        return int(self.points.size)

    @property
    def empty(self) -> bool:
        return self.points.size == 0

    def to_json(self) -> str:
        return json.dumps(
            {"j": self.j, "points": [float(p) for p in self.points], "truncated": self.truncated},
            sort_keys=True,
        )

    def to_csv(self) -> str:
        return "\n".join(repr(float(p)) for p in self.points) + ("\n" if len(self) else "")


def _dedup_sorted(points: np.ndarray) -> np.ndarray:
    if points.size == 0:
        return points
    points = np.sort(points)
    keep = np.empty(points.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(points) > DEDUP_TOL
    return points[keep]


def _finite_block(points: np.ndarray, j: int, cap: int):
    scaled = points * 2.0 ** (-j)
    sel = scaled[(scaled >= 1.0 - 1e-12) & (scaled <= 2.0 + 1e-12)]
    sel = _dedup_sorted(np.clip(sel, 1.0, 2.0))
    truncated = False
    if sel.size > cap:
        idx = np.round(np.linspace(0, sel.size - 1, cap)).astype(int)
        sel = sel[np.unique(idx)]
        truncated = True
    return sel, truncated


@lru_cache(maxsize=4096)
def _cached_block(gen: Generator, j: int, cap: int, gap_floor: float) -> BlockSet:
    pts, truncated, tails = gen.materialize(j, cap, gap_floor)
    includes = (False, False)
    if pts.size:
        includes = (bool(abs(pts[0] - 1.0) <= DEDUP_TOL), bool(abs(pts[-1] - 2.0) <= DEDUP_TOL))
    return BlockSet(j=j, points=pts, includes_endpoints=includes, truncated=truncated, tails=tails)


def rescaled_block(E: DilationSet, j: int, gap_floor: float = DEFAULT_GAP_FLOOR) -> BlockSet:
    """Materialize the dyadic block (2**-j * E) in [1, 2].

    Generators with accumulation points are truncated at `gap_floor` (and at
    the set's materialization cap) and the block is flagged, with the
    un-materialized tail recorded in `tails`.
    """
    return _cached_block(E.generator, j, E.materialization_cap, gap_floor)


def augmented(E: DilationSet) -> DilationSet:
    """E united with the lacunary grid, so every block contains 1 and 2."""
    gen = E.generator
    if isinstance(gen, LacunaryGrid):
        return E
    if isinstance(gen, UnionSet) and any(isinstance(m, LacunaryGrid) for m in gen.members):
        return E
    return DilationSet(UnionSet((gen, LacunaryGrid())), E.materialization_cap)


# ---------------------------------------------------------------------------
# distances and covering counts


def distance_to_set(s: float, block: BlockSet) -> float:
    """Exact min distance from s to the block's point set (tails included)."""
    if block.empty:
        raise ValueError("empty block")
    pts = block.points
    i = int(np.searchsorted(pts, s))
    best = math.inf
    if i < pts.size:
        best = min(best, abs(pts[i] - s))
    if i > 0:
        best = min(best, abs(s - pts[i - 1]))
    for tail in block.tails:
        if tail.anchor < s < tail.edge:
            # tail points are spaced at most `gap` apart inside (anchor, edge)
            best = min(best, tail.gap / 2.0)
        elif s <= tail.anchor:
            best = min(best, tail.anchor - s + tail.gap)
    return float(best)


def _boundary_split(x: np.ndarray):
    r = np.round(x)
    on_boundary = np.abs(x - r) <= _BOUNDARY_RTOL * np.maximum(1.0, np.abs(x))
    return r.astype(np.int64), on_boundary


def entropy_number(block: BlockSet, delta: float, include_tails: bool = True) -> int:
    """Number of covering cells [k*delta, (k+1)*delta] meeting the block.

    Closed intervals: a point exactly on a shared boundary increments both
    adjacent cells.  Accumulation tails flagged on the block are counted as
    full sub-intervals (exact whenever delta exceeds the truncation gap);
    pass include_tails=False to count the materialized points only.
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if block.empty and not block.tails:
        return 0
    x = block.points / delta
    r, on_boundary = _boundary_split(x)
    k = np.floor(x).astype(np.int64)
    parts = [k[~on_boundary], r[on_boundary] - 1, r[on_boundary]]
    for tail in block.tails if include_tails else ():
        lo, lo_exact = _boundary_split(np.array([tail.anchor / delta]))
        k_lo = int(lo[0]) if lo_exact[0] else int(math.floor(tail.anchor / delta))
        hi, hi_exact = _boundary_split(np.array([tail.edge / delta]))
        k_hi = int(hi[0]) - 1 if hi_exact[0] else int(math.floor(tail.edge / delta))
        if k_hi >= k_lo:
            parts.append(np.arange(k_lo, k_hi + 1, dtype=np.int64))
    return int(np.unique(np.concatenate(parts)).size)


# ---------------------------------------------------------------------------
# distance integrals


def _gap_contribution(gaps: np.ndarray, a: float) -> float:
    # each interior gap g contributes 2 * (g/2)**a / a
    return float(np.sum(2.0 * (gaps / 2.0) ** a / a)) if gaps.size else 0.0


def _tail_bound(tail: TailInfo, a: float) -> float:
    scale = 2.0 ** (1.0 - a) / a  # per-gap factor 2*(g/2)**a/a = scale * g**a
    if tail.power is not None:
        # gaps of {n**-p}: g_n <= p * n**-(1+p); sum g_n**a over n > n_trunc
        p = tail.power
        expo = a * (1.0 + p)
        if expo <= 1.0:
            return math.inf
        gap_sum = p**a * tail.n_trunc ** (1.0 - expo) / (expo - 1.0)
        return scale * gap_sum
    if tail.gap <= 0:
        return 0.0
    # generic: gaps <= tail.gap and they tile (anchor, edge)
    return scale * (tail.edge - tail.anchor) * tail.gap ** (a - 1.0)


def distance_integral_parts(block: BlockSet, a: float) -> tuple[float, float]:
    """(partial, tail_bound) for the integral of d(t, block)**(a-1) over [1,2]."""
    if not 0 < a < 1:
        raise ValueError(f"exponent must lie in (0, 1), got {a}")
    if block.empty:
        raise ValueError("empty block")
    pts = block.points
    partial = _gap_contribution(np.diff(pts), a)
    tail_bound = 0.0
    covered_left = False
    for tail in block.tails:
        tail_bound += _tail_bound(tail, a)
        covered_left = covered_left or tail.anchor <= 1.0 + 1e-12
    left = pts[0] - 1.0
    if left > 0 and not covered_left:
        partial += left**a / a
    right = 2.0 - pts[-1]
    if right > 0:
        partial += right**a / a
    return partial, tail_bound


def distance_integral(block: BlockSet, a: float) -> float:
    """Closed-form integral of d(t, block)**(-1+a) dt over [1, 2].

    Returns the +inf sentinel when the partial sum exceeds the divergence
    ceiling or the accumulation-tail bound is infinite.
    """
    partial, tail_bound = distance_integral_parts(block, a)
    if partial > DIVERGENCE_CEILING or not math.isfinite(tail_bound):
        return math.inf
    return partial + tail_bound


def finite_distance_integral(block: BlockSet, a: float) -> float:
    """Exact distance integral of the materialized points only (tails ignored)."""
    return distance_integral_parts(replace(block, tails=()), a)[0]


# ---------------------------------------------------------------------------
# dimension estimates


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    method: str  # entropy_slope | gap_sum | distance_integral
    delta_range: tuple[float, float]
    residual: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("dimension of a subset of the line must be in [0, 1]")

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "method": self.method,
                "delta_range": list(self.delta_range),
                "residual": self.residual,
            },
            sort_keys=True,
        )


def _slope_fit(x: np.ndarray, y: np.ndarray, window: int = 4):
    """Least-squares slope of y vs x over the final `window` points."""
    if x.size < 2:
        raise ValueError("need at least two points for a slope fit")
    w = min(window, x.size)
    xs, ys = x[-w:], y[-w:]
    coeffs, res = np.polyfit(xs, ys, 1, full=True)[:2]
    residual = float(np.sqrt(res[0] / w)) if res.size else 0.0
    return float(coeffs[0]), residual


def _validate_schedule(delta_schedule, minimum: int = 2) -> np.ndarray:
    sched = np.asarray(delta_schedule, dtype=float)
    if sched.size < minimum:
        raise ValueError(f"delta schedule needs at least {minimum} values")
    if np.any(sched <= 0) or np.any(sched > 1):
        raise ValueError("delta schedule must lie in (0, 1]")
    if np.any(np.diff(sched) >= 0):
        raise ValueError("delta schedule must be strictly decreasing")
    return sched


def kappa(
    E: DilationSet,
    delta_schedule: Sequence[float],
    j_range: tuple[int, int],
    gap_floor: float = DEFAULT_GAP_FLOOR,
) -> DimensionEstimate:
    """Dilation-dimension estimate: slope of sup_j log N(E_j, delta) in -log delta.

    The sup runs over the finite j_range; the slope is a least-squares fit
    over the final four schedule points, the standard box-counting practice.
    """
    sched = _validate_schedule(delta_schedule, minimum=4)
    blocks = [rescaled_block(E, j, gap_floor) for j in range(j_range[0], j_range[1] + 1)]
    blocks = [b for b in blocks if not b.empty or b.tails]
    if not blocks:
        raise ValueError("all blocks empty on the requested j range")
    return _entropy_slope(blocks, sched)


def minkowski_dimension(block: BlockSet, delta_schedule: Sequence[float]) -> DimensionEstimate:
    """Box-counting slope of log N(block, delta) against log(1/delta)."""
    return _entropy_slope([block], _validate_schedule(delta_schedule, minimum=4))


def _entropy_slope(blocks: Sequence[BlockSet], sched: np.ndarray) -> DimensionEstimate:
    """Slope of log max_block N(block, delta) in -log delta over the final schedule points."""
    log_n = np.array(
        [math.log(max(max(entropy_number(b, d) for b in blocks), 1)) for d in sched]
    )
    slope, residual = _slope_fit(-np.log(sched), log_n)
    value = min(1.0, max(0.0, slope))
    return DimensionEstimate(value, "entropy_slope", (float(sched[-1]), float(sched[-4])), residual)


def dimension_from_distance_integral(
    block: BlockSet, a_grid: Sequence[float] | None = None
) -> DimensionEstimate:
    """Dimension as the transition exponent where the distance integral blows up.

    Scans `a_grid` (ascending) and returns the first exponent whose integral
    is below the divergence ceiling; the grid spacing is reported as residual.
    """
    return _threshold_scan(
        a_grid, lambda a: distance_integral(block, a) < DIVERGENCE_CEILING, "distance_integral"
    )


def _threshold_scan(a_grid, passes, method: str) -> DimensionEstimate:
    """First exponent of the ascending grid (default 0.02..0.98) that `passes`;
    the grid spacing there is reported as residual."""
    if a_grid is None:
        a_grid = np.linspace(0.02, 0.98, 49)
    a_grid = np.asarray(a_grid, dtype=float)
    verdicts = [passes(float(a)) for a in a_grid]
    if all(verdicts):
        value, resid = float(a_grid[0]), float(a_grid[1] - a_grid[0])
    elif not any(verdicts):
        value, resid = 1.0, float(a_grid[-1] - a_grid[-2])
    else:
        idx = next(i for i, v in enumerate(verdicts) if v)
        value = float(a_grid[idx])
        resid = float(a_grid[idx] - a_grid[idx - 1]) if idx else 0.0
    return DimensionEstimate(min(1.0, max(0.0, value)), method, (0.0, 0.0), resid)


# ---------------------------------------------------------------------------
# decreasing sequences: gap sums and weak-type membership


def _sequence_values(seq, n_max: int) -> np.ndarray:
    if callable(seq):
        vals = np.asarray(seq(np.arange(1, n_max + 2, dtype=float)), dtype=float)
    else:
        vals = np.asarray(seq, dtype=float)
        if vals.size < n_max + 1:
            raise ValueError("sequence array shorter than n_max + 1")
        vals = vals[: n_max + 1]
    # ties are tolerated: geometric tails underflow to equal floats
    if np.any(np.diff(vals) > 0):
        raise ValueError("sequence is not decreasing")
    return vals


@dataclass(frozen=True)
class GapSumResult:
    exponent: float
    checkpoints: tuple[tuple[int, float], ...]  # (N, partial sum at N)
    block_ratios: tuple[float, ...]
    convergent: bool


def gap_sum(
    seq, a: float, n_max: int = 1 << 17, ratio_threshold: float = 0.97
) -> GapSumResult:
    """Partial sums of (t_n - t_{n+1})**a with a dyadic-ratio convergence verdict.

    The verdict compares consecutive dyadic-block sums: a last ratio below
    `ratio_threshold` is called convergent.
    """
    if a <= 0:
        raise ValueError("exponent must be positive")
    vals = _sequence_values(seq, n_max)
    gaps = -np.diff(vals)
    terms = gaps**a
    csum = np.cumsum(terms)
    n_levels = int(math.floor(math.log2(n_max)))
    marks = [1 << k for k in range(n_levels + 1)]
    checkpoints = tuple((m, float(csum[m - 1])) for m in marks)
    blocks = np.array([csum[marks[k + 1] - 1] - csum[marks[k] - 1] for k in range(n_levels)])
    ratios = []
    for k in range(1, len(blocks)):
        lo, hi = blocks[k - 1], blocks[k]
        if lo == 0.0 and hi == 0.0:
            ratios.append(0.0)
        elif lo == 0.0:
            ratios.append(math.inf)
        else:
            ratios.append(float(hi / lo))
    convergent = bool(ratios and ratios[-1] < ratio_threshold)
    return GapSumResult(a, checkpoints, tuple(ratios), convergent)


def dimension_from_gap_sums(
    seq, n_max: int = 1 << 17, a_grid: Sequence[float] | None = None
) -> DimensionEstimate:
    """Dimension as the infimum exponent with convergent gap sums."""
    return _threshold_scan(a_grid, lambda a: gap_sum(seq, a, n_max).convergent, "gap_sum")


def _count_at_least(seq, delta: float, n_limit: int = 1 << 40) -> float:
    """#{n >= 1 : t_n >= delta} for a decreasing sequence rule.

    Returns inf when the count exceeds `n_limit` (the diagnostic cannot be
    certified at that scale).
    """
    if not callable(seq):
        vals = np.asarray(seq, dtype=float)
        return float(np.sum(vals >= delta))
    if float(seq(np.array([1.0]))[0]) < delta:
        return 0.0
    lo, hi = 1, 2
    while hi < n_limit and float(seq(np.array([float(hi)]))[0]) >= delta:
        lo, hi = hi, hi * 2
    if hi >= n_limit:
        return math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float(seq(np.array([float(mid)]))[0]) >= delta:
            lo = mid
        else:
            hi = mid
    return float(lo)


@dataclass(frozen=True)
class LorentzResult:
    r: float
    bound: float
    verdict: bool
    profile: tuple[tuple[float, float], ...]  # (delta, delta**r * count)


def lorentz_membership(seq, r: float, delta_schedule: Sequence[float]) -> LorentzResult:
    """Weak-l^r diagnostic: sup of delta**r * #{n : t_n >= delta}.

    The verdict is True when the running sup varies by less than 10% over the
    final decade of the schedule.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    sched = _validate_schedule(delta_schedule)
    profile = []
    for d in sched:
        count = _count_at_least(seq, float(d))
        profile.append((float(d), float(d**r) * count))
    sups = np.maximum.accumulate([v for _, v in profile])
    bound = float(sups[-1])
    last_decade = sched <= sched[-1] * 10.0
    decade_sups = sups[last_decade]
    if not math.isfinite(bound):
        verdict = False
    elif decade_sups.size == 0 or decade_sups[-1] == 0.0:
        verdict = True
    else:
        verdict = bool((decade_sups[-1] - decade_sups[0]) / decade_sups[-1] < 0.10)
    return LorentzResult(r, bound, verdict, tuple(profile))


# ---------------------------------------------------------------------------
# two-sided dimension-lemma check


@dataclass(frozen=True)
class BoundCheckReport:
    a: float
    lhs: float  # sup_delta delta**a N(block, delta)
    mid: float  # distance integral
    rhs: float  # 1 + integral of lambda**a N d(lambda)/lambda
    ratio_left: float
    ratio_right: float
    constant: float

    @property
    def passed(self) -> bool:
        return self.ratio_left <= self.constant and self.ratio_right <= self.constant


def dimension_bound_check(
    block: BlockSet,
    a: float,
    delta_schedule: Sequence[float],
    constant: float = 10.0,
) -> BoundCheckReport:
    """Two-sided comparison of covering counts against the distance integral.

    LHS = sup over the schedule of delta**a * N; MID = the closed-form
    distance integral; RHS = 1 + the log-trapezoid quadrature of
    lambda**a N(lambda) dlambda/lambda over the same schedule.  All three
    sides are evaluated for the materialized finite point set, so the check
    is self-consistent at the block's truncation resolution.
    """
    sched = _validate_schedule(delta_schedule)
    counts = np.array(
        [entropy_number(block, float(d), include_tails=False) for d in sched], dtype=float
    )
    lhs = float(np.max(sched**a * counts))
    mid = finite_distance_integral(block, a)
    # integrand lambda**a * N against d(log lambda), schedule descending
    lam = sched[::-1]
    integrand = lam**a * counts[::-1]
    rhs = 1.0 + float(np.trapezoid(integrand, np.log(lam)))
    ratio_left = lhs / mid if mid > 0 else math.inf
    ratio_right = mid / rhs if rhs > 0 else math.inf
    return BoundCheckReport(a, lhs, mid, rhs, ratio_left, ratio_right, constant)


# ---------------------------------------------------------------------------
# convenience schedules


def geometric_schedule(delta_max: float, delta_min: float, count: int) -> np.ndarray:
    """Strictly decreasing, log-spaced covering-scale schedule."""
    if not 0 < delta_min < delta_max <= 1:
        raise ValueError("need 0 < delta_min < delta_max <= 1")
    return np.geomspace(delta_max, delta_min, count)
