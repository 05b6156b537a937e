"""Dilation sets on (0, inf): dyadic blocks, covering counts, dimension estimators.

A dilation set is described by a generator (power-law sequence, explicit
points, Cantor-type construction, lacunary grid, or a union of these) and is
materialized block by block: block j holds the points of (2**-j * E) in [1,2].
Everything downstream (entropy numbers, distance integrals, box-counting
slopes) operates on those blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .wire import Registry, from_wire, integer, number, tuple_of, wire

DEDUP_TOL = 1e-15
DEFAULT_GAP_FLOOR = 1e-9
DEFAULT_CAP = 1_000_000
DIVERGENCE_CEILING = 1e12
# terms t_1..t_{GAP_SUM_TERMS + 1} of a sequence rule feed its gap sums; a power of two
GAP_SUM_TERMS = 1 << 17
# gamma_N = N u / (1 - N u): any order of summing N >= 0 terms errs by at most gamma_N times their sum (Higham)
_GAMMA, _TINY = GAP_SUM_TERMS * 2.0**-53 / (1.0 - GAP_SUM_TERMS * 2.0**-53), float(np.finfo(float).tiny)
# block j holds the points of E in [2**j, 2**(j+1)]; beyond this index it is empty for any set of floats
MAX_BLOCK_INDEX = 1100

# Relative slack used to decide that a point sits exactly on a covering-grid
# boundary k*delta (closed intervals: such a point counts for both cells).
_BOUNDARY_RTOL = 1e-9
# covering cells are computed for this many points at a time
CELL_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# generators: `materialize(j, cap, gap_floor)` gives block j as (ascending
# points, truncated flag, tails); `small_times(t_min, t_max)` gives the set's
# times accumulating at zero, unfiltered.

GENERATORS = Registry("kind", "set kind")


@GENERATORS.register("power_sequence")
@dataclass(frozen=True)
class PowerSequence:
    """The set {1 + n**(-a) : n = 1, 2, ...}; accumulates at 1 from above."""

    a: float = wire(number)

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
        n_max = math.ceil(min(cap, n_star * 2))  # clamped first: n_star is inf for a huge a
        pts = self.sequence(np.arange(1, n_max + 1, dtype=float))
        big = np.subtract(pts[:-1], pts[1:]) >= gap_floor  # the gaps at the floor; the sequence decreases
        last = big.size + 1 - (int(np.argmax(big[::-1])) if big.any() else big.size)  # keep points 1..last
        pts = pts[:last][::-1].copy()  # ascending
        tail = TailInfo(anchor=1.0, edge=float(pts[0]), power=a, n_trunc=last)
        return pts, True, (tail,)

    def small_times(self, t_min: float, t_max: float) -> np.ndarray:
        """The offsets n**-a to the accumulation point 1 over the window's n: all of them, or 100001 spread over it."""
        try:
            n_lo = max(1, math.floor(t_max ** (-1.0 / self.a)))
        except OverflowError:  # for a tiny a every float n has its offset above t_max
            return np.array([])
        try:
            n_hi = math.ceil(t_min ** (-1.0 / self.a)) + 1
        except OverflowError:  # the window runs past the largest float n: the 100001 n from n_lo on
            n_hi = n_lo + 100000
        if n_hi - n_lo <= 100000:
            return self.offsets(np.arange(n_lo, n_hi + 1, dtype=float))
        return self.offsets(np.round(np.geomspace(float(n_lo), float(n_hi), 100001)))  # both ends can pass int64


@GENERATORS.register("explicit")
@dataclass(frozen=True)
class ExplicitPoints:
    points: tuple[float, ...] = wire(tuple_of(number))

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


@GENERATORS.register("cantor")
@dataclass(frozen=True)
class CantorLike:
    """Endpoints of a base-adic Cantor construction on [1, 2].

    At each level every interval is split into `base` equal children and the
    children at the digit positions in `digits` are kept.  The materialized
    point set consists of both endpoints of every kept level-`levels`
    interval.
    """

    base: int = wire(integer)
    digits: tuple[int, ...] = wire(tuple)
    levels: int = wire(integer)

    def __post_init__(self):
        if self.base < 3:
            raise ValueError("base must be >= 3")
        # checked before deduplication: a set would fold False into 0 and True into 1
        if not self.digits or any(
            isinstance(d, bool) or d < 0 or d >= self.base or int(d) != d for d in self.digits
        ):
            raise ValueError(f"digits must be a nonempty subset of 0..{self.base - 1}")
        object.__setattr__(self, "digits", tuple(sorted(set(self.digits))))
        # a level-64 interval is at most 3**-64 ~ 3e-31 wide, far below DEDUP_TOL
        if not 0 <= self.levels <= 64:
            raise ValueError(f"levels must lie in 0..64, got {self.levels}")

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
        k_lo = math.ceil(-math.log2(t_max))
        k_hi = math.floor(-math.log2(t_min))
        return 2.0 ** -np.arange(k_lo, k_hi + 1, dtype=float)


@GENERATORS.register("union")
@dataclass(frozen=True)
class UnionSet:
    members: tuple["Generator", ...] = wire(tuple_of(GENERATORS.from_json))

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
        return _dedup_sorted(np.concatenate(parts)), truncs, tuple(sorted(tails, key=lambda t: t.anchor))

    def small_times(self, t_min: float, t_max: float) -> np.ndarray:
        return np.concatenate([m.small_times(t_min, t_max) for m in self.members])


Generator = Union[PowerSequence, ExplicitPoints, CantorLike, LacunaryGrid, UnionSet]


@dataclass(frozen=True)
class DilationSet:
    generator: Generator = wire(GENERATORS.from_json)
    materialization_cap: int = wire(integer, "cap", default=DEFAULT_CAP)

    def __post_init__(self):
        if not 2 <= self.materialization_cap <= DEFAULT_CAP:
            raise ValueError(f"materialization cap must lie in 2..{DEFAULT_CAP}, got {self.materialization_cap}")

    from_json = classmethod(from_wire)


# ---------------------------------------------------------------------------
# blocks


@dataclass(frozen=True)
class TailInfo:
    """Un-materialized accumulation tail of a power sequence, occupying (anchor, edge).

    `power` is the decay exponent of the sequence (offsets ~ n**-power), which
    gives analytic tail bounds; `n_trunc` is the index of the last
    materialized sequence element.
    """

    anchor: float
    edge: float
    power: float
    n_trunc: int


@dataclass(frozen=True, eq=False)
class BlockSet:
    """Points of (2**-j * E) intersected with [1, 2], sorted ascending; `counts` keeps entropy_number's counts by
    (delta, include_tails), both from one pass, so a block shared through _cached_block is counted once per scale."""

    j: int
    points: np.ndarray
    truncated: bool = False
    tails: tuple[TailInfo, ...] = ()
    counts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.size:
            if pts.min() < 1.0 - 1e-12 or pts.max() > 2.0 + 1e-12:
                raise ValueError("block points must lie in [1, 2]")
            if np.any(np.diff(pts) <= 0):
                raise ValueError("block points must be strictly ascending")

    @property
    def empty(self) -> bool:
        return self.points.size == 0


def _dedup_sorted(points: np.ndarray) -> np.ndarray:
    if points.size == 0:
        return points
    points = np.sort(points)
    keep = np.empty(points.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(points) > DEDUP_TOL
    return points[keep]


def _finite_block(points: np.ndarray, j: int, cap: int):
    with np.errstate(over="ignore"):  # a point scaled past the largest float is inf, beyond the block
        scaled = np.ldexp(points, -j)
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
    return BlockSet(j=j, points=pts, truncated=truncated, tails=tails)


def rescaled_block(E: DilationSet, j: int, gap_floor: float = DEFAULT_GAP_FLOOR) -> BlockSet:
    """Materialize the dyadic block (2**-j * E) in [1, 2].

    Generators with accumulation points are truncated at `gap_floor` (and at
    the set's materialization cap) and the block is flagged, with the
    un-materialized tail recorded in `tails`.
    """
    return _cached_block(E.generator, j, E.materialization_cap, gap_floor)


def block_range(j_range) -> tuple[int, int]:
    """A range of block indices: two ascending integers of magnitude at most MAX_BLOCK_INDEX."""
    js = tuple(integer(j) for j in j_range)
    if len(js) != 2 or js[0] > js[1] or max(map(abs, js)) > MAX_BLOCK_INDEX:
        raise ValueError(f"expected two ascending integers within +-{MAX_BLOCK_INDEX}, got {list(j_range)}")
    return js


def augmented(E: DilationSet) -> DilationSet:
    """E united with the lacunary grid, so every block contains 1 and 2; a union deduplicates its blocks, so a set
    that already holds the grid has the blocks of E."""
    return DilationSet(UnionSet((E.generator, LacunaryGrid())), E.materialization_cap)


# ---------------------------------------------------------------------------
# distances and covering counts


def _boundary_split(x: np.ndarray):
    r = np.round(x)
    return r, np.abs(x - r) <= _BOUNDARY_RTOL * np.maximum(1.0, np.abs(x))


def _tail_cells(tail: TailInfo, delta: float) -> tuple[int, int]:
    """First and last covering cell of the tail [anchor, edge]: r and r - 1 at a boundary r, else the floor cells."""
    x = np.array([tail.anchor, tail.edge]) / delta
    r, exact = _boundary_split(x)
    return tuple(int(k) for k in np.where(exact, r - [0.0, 1.0], np.floor(x)))


def _cover(points: np.ndarray, delta: float, k_lo: float = -math.inf, k_hi: float = math.inf) -> int:
    """Number of cells in [k_lo, k_hi] meeting the ascending points, CELL_CHUNK points at a time, with no sort: each
    point meets the cells lo..hi (r-1..r on a boundary r, else its floor cell), both non-decreasing, so range i
    covers lo[i+1]..hi[i] and range i+1 adds min(hi[i+1] - hi[i], hi[i+1] - lo[i+1] + 1) cells."""
    count, last = 0, -math.inf
    for start in range(0, points.size, CELL_CHUNK):
        x = points[start : start + CELL_CHUNK] / delta
        r, on_boundary = _boundary_split(x)
        hi = np.where(on_boundary, r, np.floor(x))
        i, j = np.searchsorted(hi, k_lo), np.searchsorted(hi, k_hi + 1, side="right")  # the ranges meeting it
        lo, hi = np.maximum(hi[i:j] - on_boundary[i:j], k_lo), np.minimum(hi[i:j], k_hi)  # clipped, empty ones last
        if hi.size:
            count, last = count + int(np.minimum(np.diff(hi, prepend=last), hi - lo + 1.0).sum()), hi[-1]
    return count


def entropy_number(block: BlockSet, delta: float, include_tails: bool = True) -> int:
    """Number of covering cells [k*delta, (k+1)*delta] meeting the block, at a scale delta in [DEDUP_TOL, 1].

    Closed intervals: a point exactly on a shared boundary increments both adjacent cells.  Accumulation tails
    flagged on the block are counted as full sub-intervals (exact whenever delta exceeds the truncation gap), each as
    its range of cells, so the work does not grow with the tail's width over delta.  One pass over the points fills
    block.counts at this delta with the tails and without them (include_tails=False: the materialized points only).
    """
    if not DEDUP_TOL <= delta <= 1:
        raise ValueError(f"delta must lie in [{DEDUP_TOL}, 1], got {delta}")
    if (delta, include_tails) not in block.counts:
        pts, top = block.points, -math.inf  # top: the last tail cell counted; a union's tails overlap
        points = count = _cover(pts, delta)
        for k_lo, k_hi in sorted(_tail_cells(tail, delta) for tail in block.tails):
            k_lo = max(k_lo, top + 1)
            if k_hi >= k_lo:  # the range's cells, less the point cells in it; two cells of margin cover the rounding
                near = pts[np.searchsorted(pts, (k_lo - 2) * delta) : np.searchsorted(pts, (k_hi + 3) * delta)]
                count, top = count + k_hi - k_lo + 1 - _cover(near, delta, k_lo, k_hi), k_hi
        block.counts[(delta, False)], block.counts[(delta, True)] = points, count
    return block.counts[(delta, include_tails)]


# ---------------------------------------------------------------------------
# distance integrals


def _gap_contribution(gaps: np.ndarray, a: float) -> float:
    # each interior gap g contributes 2 * (g/2)**a / a; no gaps sum to 0.0
    return float(np.sum(2.0 * (gaps / 2.0) ** a / a))


def _tail_bound(tail: TailInfo, a: float) -> float:
    scale = 2.0 ** (1.0 - a) / a  # per-gap factor 2*(g/2)**a/a = scale * g**a
    # gaps of {n**-p}: g_n <= p * n**-(1+p); sum g_n**a over n > n_trunc
    p = tail.power
    expo = a * (1.0 + p)
    if expo <= 1.0:
        return math.inf
    gap_sum = p**a * tail.n_trunc ** (1.0 - expo) / (expo - 1.0)
    return scale * gap_sum


def distance_integral(block: BlockSet, a: float, with_tails: bool = True) -> float:
    """Closed-form integral of d(t, block)**(-1+a) dt over [1, 2].

    With tails, the block's accumulation tails add their analytic bound and a tail anchored at 1 covers the left
    strip; the +inf sentinel is returned when that bound is infinite (checked first, so no gap is summed) or the
    partial sum exceeds the divergence ceiling.  With with_tails=False it is the exact integral of the materialized
    points alone, with no ceiling.
    """
    if not 0 < a < 1:
        raise ValueError(f"exponent must lie in (0, 1), got {a}")
    if block.empty:
        raise ValueError("empty block")
    tail_bound, tails = 0.0, block.tails if with_tails else ()
    for tail in tails:  # in order, one rounding per tail
        tail_bound += _tail_bound(tail, a)
    if not math.isfinite(tail_bound):
        return math.inf
    pts = block.points
    partial = _gap_contribution(np.diff(pts), a)
    left = pts[0] - 1.0
    if left > 0 and not any(tail.anchor <= 1.0 + 1e-12 for tail in tails):
        partial += left**a / a
    right = 2.0 - pts[-1]
    if right > 0:
        partial += right**a / a
    return math.inf if with_tails and partial > DIVERGENCE_CEILING else partial + tail_bound


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


def _validate_schedule(delta_schedule, minimum: int = 2) -> np.ndarray:
    sched = np.asarray(delta_schedule, dtype=float)
    if sched.size < minimum:
        raise ValueError(f"delta schedule needs at least {minimum} values")
    if np.any(sched <= 0) or np.any(sched > 1):
        raise ValueError("delta schedule must lie in (0, 1]")
    if np.any(np.diff(sched) >= 0):
        raise ValueError("delta schedule must be strictly decreasing")
    return sched


def kappa(E: DilationSet, delta_schedule: Sequence[float], j_range: tuple[int, int]) -> DimensionEstimate:
    """Dilation-dimension estimate: slope of sup_j log N(E_j, delta) in -log delta.

    The sup runs over the nonempty blocks of the finite j_range; the slope is a least-squares fit
    over the final four schedule points, the standard box-counting practice,
    and only those four are counted.
    """
    blocks = [rescaled_block(E, j) for j in range(j_range[0], j_range[1] + 1)]
    blocks = [b for b in blocks if not b.empty or b.tails]
    if not blocks:
        raise ValueError("all blocks empty on the requested j range")
    return _entropy_slope(blocks, delta_schedule)


def minkowski_dimension(block: BlockSet, delta_schedule: Sequence[float]) -> DimensionEstimate:
    """Box-counting slope of log N(block, delta) against log(1/delta), counted at the final four scales."""
    return _entropy_slope([block], delta_schedule)


def _entropy_slope(blocks: Sequence[BlockSet], delta_schedule: Sequence[float]) -> DimensionEstimate:
    """Slope of log N in -log delta over the final four of at least four scales, N the largest count of the blocks
    at each, a least-squares fit with its RMS residual; only those four scales are counted."""
    fit = _validate_schedule(delta_schedule, minimum=4)[-4:]
    log_n = np.array([math.log(max(max(entropy_number(b, d) for b in blocks), 1)) for d in fit])
    coeffs, res = np.polyfit(-np.log(fit), log_n, 1, full=True)[:2]
    residual = float(np.sqrt(res[0] / 4))  # four distinct scales: a line fit always returns its residual
    value = min(1.0, max(0.0, float(coeffs[0])))
    return DimensionEstimate(value, "entropy_slope", (float(fit[-1]), float(fit[0])), residual)


def dimension_from_distance_integral(block: BlockSet) -> DimensionEstimate:
    """Dimension as the transition exponent where the distance integral blows up: the first exponent of the scan
    0.02..0.98 whose integral is below the divergence ceiling, with the grid spacing as residual."""
    return _threshold_scan(lambda a: distance_integral(block, a) < DIVERGENCE_CEILING, "distance_integral")


def _threshold_scan(passes, method: str) -> DimensionEstimate:
    """First exponent of the ascending grid 0.02, 0.04, .., 0.98 that `passes`;
    the grid spacing there is reported as residual.  The verdicts are taken in
    order and only as far as the answer reads them."""
    a_grid = np.linspace(0.02, 0.98, 49)
    verdicts = (passes(float(a)) for a in a_grid)
    if next(verdicts):  # the first exponent: its spacing if every verdict passes, else exactly
        value, resid = float(a_grid[0]), float(a_grid[1] - a_grid[0]) if all(verdicts) else 0.0
    else:
        idx = next((i for i, v in enumerate(verdicts, 1) if v), None)
        if idx is None:
            value, resid = 1.0, float(a_grid[-1] - a_grid[-2])
        else:
            value, resid = float(a_grid[idx]), float(a_grid[idx] - a_grid[idx - 1])
    return DimensionEstimate(value, method, (0.0, 0.0), resid)


# ---------------------------------------------------------------------------
# decreasing sequences: gap sums and weak-type membership


def sequence_gaps(seq) -> np.ndarray:
    """Gaps t_n - t_{n+1}, n = 1..GAP_SUM_TERMS, of a decreasing sequence rule n -> t_n."""
    vals = np.asarray(seq(np.arange(1, GAP_SUM_TERMS + 2, dtype=float)), dtype=float)
    gaps = -np.diff(vals)
    # ties are tolerated: geometric tails underflow to equal floats; a NaN or inf value gives a non-finite gap
    if not np.all(np.isfinite(gaps)) or np.any(gaps < 0):
        raise ValueError("sequence is not decreasing through finite values")
    return gaps


def _cut_sums(gaps: np.ndarray, a: float) -> list[float]:
    """Partial sums of gaps**a through n = N/4, N/2 and N, N = GAP_SUM_TERMS, of one sequential cumsum.

    It skips each gap of 0 after the first nonzero one and reads the sums at the count of gaps kept before each cut.
    Once the running sum holds a power of g > 0 it is positive or +0.0 and adding a 0 leaves its bits (the leading
    zeros stay: they set the sign of a zero sum), so each value has the bits of the cumsum over all the gaps.
    """
    kept = gaps != 0
    kept[: np.argmax(kept) if kept.any() else None] = True
    csum = gaps[kept] ** a
    np.cumsum(csum, out=csum)  # the same sequential sum, in place
    return [float(csum[k - 1]) if k else 0.0 for k in _cut_counts(kept)]


def _cut_counts(mask: np.ndarray) -> list[int]:
    return [int(np.count_nonzero(mask[: GAP_SUM_TERMS // k])) for k in (4, 2, 1)]  # set entries before each cut


def gap_sum_converges(gaps: np.ndarray, a: float) -> bool:
    """Dyadic-ratio convergence verdict on the sum of gaps**a, for the gaps of `sequence_gaps`.

    The verdict compares the last two dyadic-block sums, the differences of
    `_cut_sums`: a ratio below 0.97 is called convergent.
    """
    if a <= 0:
        raise ValueError("exponent must be positive")
    lo, hi = np.diff(_cut_sums(gaps, a))
    # an empty block after an empty one counts as convergent
    return bool(hi == 0.0 if lo == 0.0 else hi / lo < 0.97)


def gap_sum_verdicts(gaps: np.ndarray):
    """`a -> gap_sum_converges(gaps, a)` for the gaps of `sequence_gaps`, from the first of three tiers that is certain.

    For 0 < a <= 1 two fast tiers sum g**a over each dyadic block's g != 0 (a 0 adds exactly 0 on every path, and
    numpy's exp(-inf) is slow).  The first cuts each block into runs of 64 nonzero gaps: as g**a increases with g,
    the block sum lies between the sums of len * min**a and len * max**a over its runs.  The second sums exp(a log g)
    pairwise, in one reused buffer.  r bounds the distance of each computed sum or bound to the exact path's block sum
    or to the true run bound: gamma_N per summation, 1e-11 per term for pow and exp(a log g) as |a log g| <= 745,
    `tiny` per underflowing term, one rounding each for the subtraction, the division and a run's length product, all
    doubled for r's own rounding, with S the sum of the upper bounds.  A tier answers where the block ratio widened by
    r lies strictly on one side of 0.97; elsewhere (a middle block not above r, a sum near overflow, a not in (0, 1])
    gap_sum_converges does.
    """
    nonzero = gaps != 0
    positive, cuts = gaps[nonzero], _cut_counts(nonzero)
    starts = np.concatenate([np.arange(b, e, 64) for b, e in zip([0, *cuts], cuts)])
    runs = np.zeros((starts.size, 3))  # column j holds the lengths of block j's runs
    runs[np.arange(starts.size), np.searchsorted(cuts, starts, side="right")] = np.diff(starts, append=cuts[-1])
    run_logs = np.log([np.minimum.reduceat(positive, starts), np.maximum.reduceat(positive, starts)])
    logs = np.log(positive)
    terms = np.empty_like(logs)  # one buffer for every exponent: fresh 1 MB temporaries cost page faults

    def certain(low: list[float], high: list[float]) -> bool | None:
        r = 2.0 * ((3.0 * _GAMMA + 2e-11 + 2.0**-51) * sum(high) + 2.0 * gaps.size * _TINY)
        below, above = high[2] + r < 0.97 * (low[1] - r), low[2] - r > 0.97 * (high[1] + r)
        # r < 1e290: the exact cumsum stays far from overflow
        return below if low[1] > r and r < 1e290 and (below or above) else None

    def converges(a: float) -> bool:
        if 0 < a <= 1:
            verdict = certain(*(np.exp(a * run_logs) @ runs).tolist())
            if verdict is None:
                np.exp(np.multiply(logs, a, out=terms), out=terms)
                sums = [float(np.sum(b)) for b in np.split(terms, cuts[:2])]
                verdict = certain(sums, sums)
            if verdict is not None:
                return verdict
        return gap_sum_converges(gaps, a)

    return converges


def dimension_from_gap_sums(seq) -> DimensionEstimate:
    """Dimension as the infimum exponent with convergent gap sums."""
    return _threshold_scan(gap_sum_verdicts(sequence_gaps(seq)), "gap_sum")


def _count_at_least(seq, delta: float) -> float:
    """#{n >= 1 : t_n >= delta} for a decreasing sequence rule.

    Returns inf when the count exceeds 2**40 (the diagnostic cannot be
    certified at that scale).
    """
    n_limit = 1 << 40
    lo, hi = 0, 1
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
    bound: float
    verdict: bool


def lorentz_membership(seq, r: float, delta_schedule: Sequence[float]) -> LorentzResult:
    """Weak-l^r diagnostic: sup of delta**r * #{n : t_n >= delta}.

    The verdict is True when the running sup varies by less than 10% over the
    final decade of the schedule.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    sched = _validate_schedule(delta_schedule)
    sups = np.maximum.accumulate([float(d**r) * _count_at_least(seq, float(d)) for d in sched])
    bound = float(sups[-1])
    last_decade = sched <= sched[-1] * 10.0
    decade_sups = sups[last_decade]
    if not math.isfinite(bound):
        verdict = False
    elif decade_sups[-1] == 0.0:
        verdict = True
    else:
        verdict = bool((decade_sups[-1] - decade_sups[0]) / decade_sups[-1] < 0.10)
    return LorentzResult(bound, verdict)


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
    passed: bool  # both ratios at most the check's constant


def dimension_bound_check(
    block: BlockSet,
    exponents: Sequence[float],
    delta_schedule: Sequence[float],
    constant: float = 10.0,
) -> list[BoundCheckReport]:
    """Two-sided comparison of covering counts against the distance integral, one report per exponent a.

    LHS = sup over the schedule of delta**a * N; MID = the closed-form
    distance integral; RHS = 1 + the log-trapezoid quadrature of
    lambda**a N(lambda) dlambda/lambda over the same schedule.  All three
    sides are evaluated for the materialized finite point set, so the check
    is self-consistent at the block's truncation resolution.  The counts do
    not depend on a: each scale is counted once.
    """
    sched = _validate_schedule(delta_schedule)
    counts = np.array([entropy_number(block, float(d), include_tails=False) for d in sched], dtype=float)
    lam = sched[::-1]  # the integrand lambda**a * N runs against d(log lambda), lambda ascending
    reports = []
    for a in exponents:
        lhs, mid = float(np.max(sched**a * counts)), distance_integral(block, a, with_tails=False)
        rhs = 1.0 + float(np.trapezoid(lam**a * counts[::-1], np.log(lam)))
        left = lhs / mid  # mid sums positive strip and gap terms of a nonempty block
        right = mid / rhs  # rhs is 1 plus a nonnegative integral
        reports.append(BoundCheckReport(a, lhs, mid, rhs, left, right, bool(left <= constant and right <= constant)))
    return reports


# ---------------------------------------------------------------------------
# convenience schedules


def geometric_schedule(delta_max: float, delta_min: float, count: int) -> np.ndarray:
    """Strictly decreasing, log-spaced covering-scale schedule."""
    if not DEDUP_TOL <= delta_min < delta_max <= 1:
        raise ValueError(f"need {DEDUP_TOL} <= delta_min < delta_max <= 1, got delta_min {delta_min}")
    return np.geomspace(delta_max, delta_min, count)
