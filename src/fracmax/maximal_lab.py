"""Dilated multiplier operators, maximal functions over dilation sets, and the
weighted square-function experiments.

The supremum over a dilation set is realized on a finite, nested sampling of
the set's dyadic blocks; the square functional and its distance-power weights
are built from the same sampling, so each experiment is an exact finite-set
instance of the inequality it probes, and refinement moves both sides
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dilation_sets import DilationSet, augmented, block_range, geometric_schedule, kappa, rescaled_block
from .fractional_calculus import marchaud_matrix
from .lp_frames import GridFunction, grid_from_profile
from .multipliers import FAMILIES, LimitedDecay, Multiplier, band_sup_norm, evaluate
from .wire import Registry, integer, number, tuple_of, wire

EXCLUSION_FACTOR = 1e-12
ROUNDOFF_FACTOR = 4.0  # a half-wave difference counts as motion above this multiple of the t = 0 round trip's
CHUNK_POINTS = 1 << 16  # complex values one chunk of a dilation batch or of the square functional's pixels holds
PIXEL_CHUNK = 64  # the fewest pixels a square-functional chunk takes


# ---------------------------------------------------------------------------
# built-in test functions


FUNCTIONS = Registry("kind", "test function")


@FUNCTIONS.register("gaussian_bump")
@dataclass(frozen=True)
class GaussianBump:
    """e^{-x^2 / (2 width^2)}."""

    width: float = wire(number)
    side = "space"

    def __post_init__(self):
        # width**2 is a Python float in profile(): past about 1.3e154 it raises OverflowError
        if not 0 < self.width <= 1e150:
            raise ValueError(f"bump width must lie in (0, 1e150], got {self.width}")

    def profile(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-(x**2) / (2.0 * self.width**2))


@FUNCTIONS.register("modulated_bump")
@dataclass(frozen=True)
class ModulatedBump(GaussianBump):
    """The Gaussian bump modulated by e^{2 pi i freq x}."""

    freq: float = wire(number)

    def profile(self, x: np.ndarray) -> np.ndarray:
        return super().profile(x) * np.exp(2j * np.pi * self.freq * x)


@FUNCTIONS.register("random_band")
@dataclass(frozen=True)
class RandomBand:
    """Seeded complex Gaussian spectrum restricted to 2**(band-1) <= |xi| <= 2**(band+1)."""

    band: int = wire(integer)
    seed: int = wire(integer)
    side = "frequency"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"random_band seed must be nonnegative, got {self.seed}")
        if self.band > 1022:  # the band's top edge 2**(band + 1) is a float
            raise ValueError(f"random_band band must be at most 1022, got {self.band}")

    def profile(self, xi: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        spec = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
        rho = np.abs(xi)
        return spec * ((rho >= 2.0 ** (self.band - 1)) & (rho <= 2.0 ** (self.band + 1)))


def build_function(f, n: int, extent: float) -> GridFunction:
    """Space-side samples of a built-in test function on the 1-d grid over [-extent, extent); an input
    that vanishes there (a random band above the grid's Nyquist frequency) or samples a non-finite value
    (an overflowing phase, an underflowing width) is a ValueError."""
    with np.errstate(all="ignore"):  # a non-finite sample is reported below, not warned about
        g = grid_from_profile(f.profile, extent, n, side=f.side).to_space()
    kind = FUNCTIONS.to_json(f)["kind"]
    if not np.all(np.isfinite(g.samples)):
        raise ValueError(f"trial input {kind} samples a non-finite value on the {n}-point grid")
    if not np.any(g.samples):
        raise ValueError(f"trial input {kind} vanishes on the {n}-point grid")
    return g


# ---------------------------------------------------------------------------
# dilated operators


def _chunks(rows: int, width: int, least: int = 1) -> list[slice]:
    """Slices of range(rows), each a power of two rows (at least `least`), the most that CHUNK_POINTS values of the
    given width hold.  Pixel chunks take at least PIXEL_CHUNK columns and so tile the grid in pieces that BLAS
    rounds as it rounds the whole batch: narrower products can move last bits (measured with OpenBLAS)."""
    step = max(1 << max(CHUNK_POINTS // width, 1).bit_length() - 1, least)
    return [slice(a, a + step) for a in range(0, rows, step)]


def _batched_dilate(f: GridFunction, m: Multiplier, ts: np.ndarray) -> np.ndarray:
    """Space-side values of T_{m(t .)} f for every t, stacked as (len(ts), n), filled a chunk of rows at a time."""
    spec, half = f.to_frequency(), f.n // 2  # fftfreq's radii are exactly symmetric: evaluate m on 0..n/2, mirror
    radius, out = spec.freq_radius()[: half + 1], np.empty((len(ts), f.n), dtype=complex)
    for rows in _chunks(len(ts), f.n):
        vals = evaluate(m, np.multiply.outer(ts[rows], radius))
        out[rows, : half + 1], out[rows, half + 1 :] = vals, vals[:, half - 1 : 0 : -1]
        spec.filtered(out[rows])  # in place
    return out


def nested_sample(points: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite sample of a nonempty block, and each sampled point's depth label.

    Combines the block points nearest to the dyadic value grid 1 + k/2**depth (coverage of [1, 2]) with geometric
    index ladders from both ends (coverage of accumulation clusters).  Both are nested under depth doubling, so a
    point's label is the shallowest depth that samples it, and the sample at d <= depth is the points labelled <= d.
    """
    n, k = points.size, np.arange((1 << depth) + 1)
    targets = 1.0 + k / float(1 << depth)
    pos = np.searchsorted(points, targets)
    below, above = np.maximum(pos - 1, 0), np.minimum(pos, n - 1)
    # the nearer neighbour of each target; a tie goes to the one below
    snap = np.where(np.abs(points[above] - targets) < np.abs(points[below] - targets), above, below)
    steps = np.arange(depth + 1)
    ladder = np.concatenate([[0, n - 1], np.minimum(1 << steps, n - 1), np.maximum(n - 1 - (1 << steps), 0)])
    # target k / 2**depth first appears at depth minus the trailing zero bits of k (k = 0 at depth 0)
    snap_depth = depth - np.log2(np.where(k > 0, k & -k, 1 << depth)).astype(int)
    keep, source = np.unique(np.concatenate([snap, ladder]), return_inverse=True)
    labels = np.full(keep.size, depth)
    np.minimum.at(labels, source, np.concatenate([snap_depth, [0, 0], steps, steps]))
    return points[keep], labels


class Sampling(dict):
    def __init__(self):  # per j, the sampled block points; labels[j] holds their depth labels (see nested_sample)
        super().__init__()
        self.labels = {}


def sampled_dilations(E: DilationSet, j_range: tuple[int, int], depth: int) -> Sampling:
    """Per-j nested samples of the set's blocks, labelled by depth; the square-functional setting samples
    `augmented(E)`, whose every block contains the endpoints 1 and 2."""
    out = Sampling()
    for j in range(j_range[0], j_range[1] + 1):
        block = rescaled_block(E, j)
        if not block.empty:
            out[j], out.labels[j] = nested_sample(block.points, depth)
    return out


def maximal_function(f: GridFunction, m: Multiplier, sampling: Sampling, depths: tuple[int, ...]) -> list[np.ndarray]:
    """Pointwise sups of |T_{m(t .)} f| over the sampling cut at each depth: the whole sampling is dilated once, a
    kernel chunk at a time, and each sup is the exact running max over the rows labelled at most that depth."""
    if not sampling:
        raise ValueError("empty dilation sampling on the requested j window")
    # blocks share at most an endpoint, labelled 0 in both, so a shared dilation is one row
    ts, first = np.unique(np.concatenate([2.0**j * pts for j, pts in sampling.items()]), return_index=True)
    labels, sups = np.concatenate([sampling.labels[j] for j in sampling])[first], np.zeros((len(depths), f.n))
    spec = f.to_frequency()  # once, not once per chunk
    for rows in _chunks(ts.size, f.n):  # a running max over the kernel's chunks; max is exact
        vals = np.abs(_batched_dilate(spec, m, ts[rows]))
        for sup, d in zip(sups, depths):  # 0 is below every |.|
            np.maximum(sup, vals.max(axis=0, where=(labels[rows] <= d)[:, None], initial=0.0), out=sup)
    return list(sups)


# ---------------------------------------------------------------------------
# distance-power quadrature weights


@dataclass(frozen=True, eq=False)
class HBlock:
    j: int
    nodes: np.ndarray
    weights: np.ndarray


def build_h_weights(blocks: dict[int, np.ndarray], beta: float) -> tuple[HBlock, ...]:
    """Quadrature of d(s, block)**(2 beta - 1) ds per block, in one array pass over its half-gaps.

    The half-gaps are [1, first point], the two halves of each gap and [last point, 2], the empty ends
    dropped; each is cut into five cells graded geometrically toward its anchor point.  Weights are the
    exact cell integrals and nodes the density centroids, so per-block weight sums reproduce the
    closed-form distance integral of the sampled point set exactly (the cells tile [1, 2]).
    """
    if not 0 < beta < 0.5:
        raise ValueError("weight exponent must lie in (0, 1/2)")
    beta2 = 2.0 * beta
    out = []
    for j, pts in sorted(blocks.items()):
        # per anchor, in point order: the half-gap to its left, then the one to its right
        widths = np.repeat(np.concatenate([[pts[0] - 1.0], 0.5 * np.diff(pts), [2.0 - pts[-1]]]), 2)[1:-1]
        keep = widths > 0.0  # an end interval is empty where the block holds 1 or 2
        edges = widths[keep, None] * 2.0 ** -np.arange(5, -1, -1.0)
        edges[:, 0] = 0.0
        lo, hi = edges[:, :-1], edges[:, 1:]
        mass = hi**beta2 - lo**beta2  # array powers throughout: a scalar pow may differ in the last bit
        centers = (beta2 / (beta2 + 1.0)) * (hi ** (beta2 + 1.0) - lo ** (beta2 + 1.0)) / mass
        nodes = (np.repeat(pts, 2)[keep, None] + np.tile([-1.0, 1.0], pts.size)[keep, None] * centers).ravel()
        order = np.argsort(nodes)
        out.append(HBlock(j, nodes[order], (mass / beta2).ravel()[order]))
    return tuple(out)


# ---------------------------------------------------------------------------
# the weighted square functional


@dataclass(frozen=True, eq=False)
class SquareFunctionalResult:
    values: np.ndarray  # real, nonnegative per pixel, at the base sampling
    refined: np.ndarray  # the same at depth + 1 and 2 s_resolution
    flagged: np.ndarray  # pixels whose base-sampling path failed the Hoelder precondition


def _path_hoelder_ok(paths: np.ndarray, alpha: float) -> np.ndarray:
    """Whether each path's two-scale exponent estimate, the median of its log ratios clamped at 1, exceeds alpha
    (paths: nodes x pixels).  log2 is monotone, so the median exceeds alpha where more than half the logs do; with
    exactly half above, it is the mean of the largest log at or below alpha and the smallest above it."""
    if paths.shape[0] < 3:
        return np.ones(paths.shape[1], dtype=bool)
    d1 = np.abs(paths[1:-1] - paths[:-2])
    d2 = np.abs(paths[2:] - paths[:-2])
    flat = ~(d1 > 1e-13 * (np.max(np.abs(paths), axis=0) + 1e-300))  # a round-off step: ratio 2
    logs = np.log2(np.maximum(np.divide(d2, np.maximum(d1, 1e-300, out=d1), out=d2), 1e-12, out=d2), out=d2)
    logs[flat] = 1.0
    above = logs > alpha
    twice = 2 * np.count_nonzero(above, axis=0)
    ok, tied = twice > logs.shape[0], np.flatnonzero(twice == logs.shape[0])
    lo = np.max(logs[:, tied], axis=0, where=~above[:, tied], initial=-np.inf)
    ok[tied] = (lo + np.min(logs[:, tied], axis=0, where=above[:, tied], initial=np.inf)) / 2 > alpha
    return ok & (alpha < 1.0)


def square_functional(
    f: GridFunction, m: Multiplier, sampling: Sampling, alpha: float, beta: float, depth: int, s_resolution: int
) -> SquareFunctionalResult:
    """Distance-weighted square sum of fractional path derivatives, per pixel, at two cuts of an augmented sampling.

    For each dyadic level the per-pixel path F_j(s) = T_{m(2**j s .)} f(x) is
    sampled on [0, 2] (uniform fill plus the weight nodes), differentiated by
    the Marchaud scheme along s at the weight nodes only, and contracted
    against the level's weights.  `values` takes the points labelled <= depth
    with s_resolution fill cells, `refined` those <= depth + 1 with twice the cells.
    Per level the refined paths and the base rows they lack (`extra`) are dilated
    once (linspace(0, 2, R + 1) is linspace(0, 2, 2R + 1)[::2] bit for bit); each
    chunk of pixels gathers its base paths, checks them and contracts both samplings
    into their own accumulators, so each is a one-sampling run's and only `fine` and
    `extra` span every pixel.  Each Marchaud matrix is built once per call.
    """
    if not 0 < beta < alpha <= 0.5:
        raise ValueError("need 0 < beta < alpha <= 1/2")
    samplings = ((depth, s_resolution), (depth + 1, 2 * s_resolution))
    spec, accs, flagged = f.to_frequency(), (np.zeros(f.n), np.zeros(f.n)), np.zeros(f.n, dtype=bool)
    matrices = {}  # by grid and weight-node bytes: a self-similar set repeats them at every level
    # every augmented block holds 1 and 2, labelled 0, so each cut keeps every level and it has weight nodes
    cuts = [{j: pts[sampling.labels[j] <= d] for j, pts in sampling.items()} for d, _ in samplings]
    for blocks in zip(*[build_h_weights(cut, beta) for cut in cuts]):
        grids = [np.union1d(np.linspace(0.0, 2.0, r + 1), b.nodes) for (_, r), b in zip(samplings, blocks)]
        pos = np.searchsorted(grids[1], grids[0])  # both grids end at 2, so every position is in range
        shared = grids[1][pos] == grids[0]
        fine = _batched_dilate(spec, m, 2.0 ** blocks[0].j * grids[1])  # (n_s, n_pixels)
        extra = _batched_dilate(spec, m, 2.0 ** blocks[0].j * grids[0][~shared])
        keys = [(grid.tobytes(), block.nodes.tobytes()) for grid, block in zip(grids, blocks)]
        for key, grid, block in zip(keys, grids, blocks):  # the nodes fix the rows
            if key not in matrices:
                matrices[key] = marchaud_matrix(grid, alpha, np.searchsorted(grid[1:], block.nodes))
        for cols in _chunks(f.n, grids[1].size, PIXEL_CHUNK):
            base = fine[pos, cols]  # then the rows the refined grid lacks are replaced
            base[~shared] = extra[:, cols]
            flagged[cols] |= ~_path_hoelder_ok(base, alpha)
            for acc, key, block, paths in zip(accs, keys, blocks, (base, fine[:, cols])):
                mag = np.abs(matrices[key] @ paths)
                acc[cols] += block.weights @ np.square(mag, out=mag)
        del fine, extra, base, paths  # `paths` views `fine`: this level's batches go before the next level's are made
    return SquareFunctionalResult(*accs, flagged)


# ---------------------------------------------------------------------------
# experiment kinds: each reads only its own fields of an experiment file, and
# `run` returns its results, its checks and the text of its extra files


EXPERIMENTS = Registry("kind", "experiment kind")
MAX_TRIALS = 64  # the probe builds one test input per trial and runs one maximal function per decay
MAX_BATCH = 1 << 23  # (dilations x pixels) values one batch may hold, 128 MB complex, checked before any work


def csv_text(header: str, rows: list[str]) -> str:
    """A report table: the header line, then one line per row, each ending in a newline."""
    return "\n".join([header, *rows]) + "\n"


@dataclass(frozen=True, kw_only=True)
class GridExperiment:
    """A dilation set and the 1-d grid of n samples over [-extent, extent)."""

    set: DilationSet = wire(DilationSet.from_json, "config.set")
    n: int = wire(integer, "config.grid.n", default=1024)
    extent: float = wire(number, "config.grid.extent", default=8.0)
    dim: int = wire(integer, "config.grid.dim", default=1)

    def __post_init__(self):
        if self.dim != 1:
            raise ValueError("built-in experiment inputs are 1-d")
        if self.n < 1 or self.n & (self.n - 1):
            raise ValueError(f"grid side n must be a power of two, got {self.n}")
        if not self.extent > 0:
            raise ValueError(f"grid extent must be positive, got {self.extent}")


@dataclass(frozen=True, kw_only=True)
class MaximalExperiment(GridExperiment):
    """A grid experiment on the maximal function of a multiplier over the sampled blocks j_range of the set."""

    multiplier: Multiplier = wire(FAMILIES.from_json, "config.multiplier")
    j_range: tuple[int, int] = wire(block_range, "config.j_range", default=(-3, 4))
    depth: int = wire(integer, "config.depth", default=4)

    def __post_init__(self):
        super().__post_init__()
        if self.depth < 0:
            raise ValueError(f"sampling depth must be nonnegative, got {self.depth}")
        block_range(self.j_range)
        # each dilation t = 2**j s, s in [1, 2], is a positive normal float, and so is the largest phase the run forms,
        # 2 pi t |xi| with t <= 2**(hi + 1): |xi| <= n / (4 extent) on the grid, and |xi| <= 2 in band_sup_norm
        lo, hi = self.j_range
        if lo < -1022 or hi + 1 + math.log2(2.0 * math.pi * max(self.n / (4.0 * self.extent), 2.0)) >= 1024:
            raise ValueError(f"config.j_range: 2**j needs j >= -1022 and finite phases on this grid, got {[lo, hi]}")

    def bound_batch(self, depth: int, s_fill: int, fields: str):
        """Reject a run whose dilated rows x pixels may pass MAX_BATCH values, an upper bound on what it dilates:
        a block keeps at most 2**depth + 2 depth + 5 sampled points, and an s-grid adds 10 weight nodes per gap."""
        points = 2.0 ** min(depth, 64) + 2 * depth + 5
        rows = max((self.j_range[1] - self.j_range[0] + 1) * points, s_fill + 10 * (points + 1) if s_fill else 0)
        if self.n * rows > MAX_BATCH:
            raise ValueError(f"{fields}: one dilation batch may hold {self.n * rows:.3g} values, above {MAX_BATCH}")


@EXPERIMENTS.register("domination")
@dataclass(frozen=True, kw_only=True)
class Domination(MaximalExperiment):
    """The p = 2 domination of the squared maximal function of f by the square functional."""

    f: GaussianBump | ModulatedBump | RandomBand = wire(FUNCTIONS.from_json, "config.f")
    alpha: float = wire(number, "config.alpha", default=0.45)
    beta: float = wire(number, "config.beta", default=0.3)
    p: float = wire(number, "config.p", default=2.0)
    s_resolution: int = wire(integer, "config.s_resolution", default=128)

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.beta < self.alpha <= 0.5:
            raise ValueError("need 0 < beta < alpha <= 1/2")
        if self.p != 2:
            raise ValueError(f"p: domination runs at p = 2 only, got {self.p}")
        if self.s_resolution < 1:
            raise ValueError(f"s_resolution must be positive, got {self.s_resolution}")
        # the refined run samples at depth + 1, with 2 s_resolution + 1 fill points per s-grid
        fields = "config.depth, config.s_resolution, config.j_range, config.grid.n"
        self.bound_batch(self.depth + 1, 2 * self.s_resolution + 1, fields)

    def run(self) -> tuple[dict, list, dict]:
        # kappa is pure, so estimating it first changes no report; a window with no block fails before any work
        kappa_est = kappa(self.set, geometric_schedule(0.07, 0.7e-5, 7), self.j_range).value
        report = domination_ratio(self)
        results = {**{k: v for k, v in vars(report).items() if k != "ratios"}, "kappa_estimate": kappa_est}
        checks = [{"name": "ratio_stable_under_refinement", "passed": report.stable}]
        checks.append({"name": "beta_above_half_kappa", "passed": self.beta > kappa_est / 2.0})
        rows = [f"{j},{repr(band_sup_norm(self.multiplier, j))}" for j in range(self.j_range[0], self.j_range[1] + 1)]
        band_norms = csv_text("j,band_sup_norm", rows)
        return results, checks, {"ratio_histogram.csv": report.histogram(), "band_norms.csv": band_norms}


@EXPERIMENTS.register("halfwave")
@dataclass(frozen=True, kw_only=True)
class Halfwave(GridExperiment):
    """The small-time rate of the order-hw_alpha half-wave evolution of f at the set's times in [t_min, t_max]."""

    f: GaussianBump | ModulatedBump | RandomBand = wire(FUNCTIONS.from_json, "config.f")
    hw_alpha: float = wire(number, default=0.5)
    hw_beta: float = wire(number, default=0.4)
    t_min: float = wire(number, default=1.0 / 40)
    t_max: float = wire(number, default=0.35)

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.hw_alpha < 1 and self.hw_beta < 1 and 0 < self.t_min < self.t_max):
            raise ValueError("need 0 < hw_alpha < 1, hw_beta < 1 and 0 < t_min < t_max")
        if self.n > MAX_BATCH:  # the evolution holds a few complex n-point arrays per time
            raise ValueError(f"config.grid.n: a half-wave grid may hold at most {MAX_BATCH} points, got {self.n}")

    def run(self) -> tuple[dict, list, dict]:
        times = halfwave_times(self.set, self.t_min, self.t_max)
        report = halfwave_convergence(build_function(self.f, self.n, self.extent), self.hw_alpha, times)
        results = {"beta_fit": report.beta_fit, "n_times": len(report.times)}
        checks = [{"name": "rate_at_least_beta_minus_point_one", "passed": report.beta_fit >= self.hw_beta - 0.1}]
        rows = [f"{repr(t)},{repr(d)}" for t, d in zip(report.times, report.sup_differences)]
        return results, checks, {"rates.csv": csv_text("t,sup_difference", rows)}


@EXPERIMENTS.register("probe")
@dataclass(frozen=True, kw_only=True)
class Probe(MaximalExperiment):
    """Empirical lower bound for the maximal operator norm on L^p.

    Runs the maximal function on `trials` normalized built-in inputs (the
    random band seeded by `seed`); optionally sweeps LimitedDecay(a) over the
    decays a of regularity_grid to record how the bound moves as the
    regularity crosses the critical index.
    """

    p: float = wire(number, "config.p", default=2.0)
    seed: int = wire(integer, "config.seed", default=0)
    trials: int = wire(integer, default=3)
    regularity_grid: tuple[float, ...] = wire(tuple_of(number), default=())

    def __post_init__(self):
        super().__post_init__()
        if not 1 < self.p < math.inf:
            raise ValueError("integrability index must lie in (1, inf)")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in 1..{MAX_TRIALS}, got {self.trials}")
        if len(self.regularity_grid) > MAX_TRIALS:
            raise ValueError(f"regularity_grid may hold at most {MAX_TRIALS} decays, got {len(self.regularity_grid)}")
        if not all(a > 0 for a in self.regularity_grid):
            raise ValueError(f"regularity_grid entries must be positive, got {list(self.regularity_grid)}")
        self.bound_batch(self.depth, 0, "config.depth, config.j_range, config.grid.n")

    def run(self) -> tuple[dict, list, dict]:
        specs = [GaussianBump(0.5 + 0.5 * k) for k in range(max(1, self.trials - 2))]
        if self.trials >= 2:
            specs.append(ModulatedBump(1.0, 4.0))
        if self.trials >= 3:
            specs.append(RandomBand(3, self.seed))
        # every input is built, and a vanishing one rejected, before any maximal function runs
        inputs = [build_function(spec, self.n, self.extent) for spec in specs]
        sampling = sampled_dilations(self.set, self.j_range, self.depth)  # one sampling for every trial and decay

        def maximal_norm(f: GridFunction, m: Multiplier) -> float:
            """L^p norm of the maximal function of the L^p-normalized input."""
            f = GridFunction(f.extent, f.samples / f.lp_norm(self.p))
            [sup] = maximal_function(f, m, sampling, (self.depth,))
            return GridFunction(f.extent, sup).lp_norm(self.p)

        per_trial = [(FUNCTIONS.to_json(s)["kind"], maximal_norm(f, self.multiplier)) for s, f in zip(specs, inputs)]
        sweep = [(float(a), maximal_norm(inputs[0], LimitedDecay(float(a)))) for a in self.regularity_grid]
        results = {"lower_bound": max(v for _, v in per_trial), "per_trial": per_trial, "regularity_sweep": sweep}
        rows = [f"{name},{repr(v)}" for name, v in per_trial]
        return results, [], {"trials.csv": csv_text("trial,lp_norm", rows)}


@dataclass(frozen=True)
class DominationReport:
    max_ratio: float
    refined_ratio: float
    relative_change: float
    excluded_pixels: int
    flagged_pixels: int
    maximal_increment: float
    ratios: np.ndarray = field(repr=False)

    @property
    def stable(self) -> bool:
        return self.relative_change < 0.10

    def histogram(self) -> str:
        finite = self.ratios[np.isfinite(self.ratios)]
        if finite.size == 0:
            return csv_text("lo,hi,count", [])
        counts, edges = np.histogram(finite, bins=32)
        rows = [f"{repr(float(lo))},{repr(float(hi))},{c}" for lo, hi, c in zip(edges, edges[1:], counts)]
        return csv_text("lo,hi,count", rows)


def domination_ratio(config: Domination) -> DominationReport:
    """Max pointwise ratio of squared maximal function to square functional, with its stability under doubling
    both the set sampling and the s-grid, and the sup's relative L2 increment from depth - 1 to depth.
    Both sides of the inequality run over one sampling of the lacunary-augmented set, at depth + 1."""
    f, m = build_function(config.f, config.n, config.extent), config.multiplier
    sampling = sampled_dilations(augmented(config.set), config.j_range, config.depth + 1)
    sq = square_functional(f, m, sampling, config.alpha, config.beta, config.depth, config.s_resolution)
    prev, now, fine = maximal_function(f, m, sampling, (max(config.depth - 1, 0), config.depth, config.depth + 1))
    runs = []
    for sup, bot in ((now, sq.values), (fine, sq.refined)):
        top = sup**2
        excluded = (top <= EXCLUSION_FACTOR * top.max()) & (bot <= EXCLUSION_FACTOR * bot.max())
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(excluded, np.nan, top / bot)
        runs.append((ratios, 0.0 if np.all(np.isnan(ratios)) else float(np.nanmax(ratios)), excluded))
    (base, max_base, excluded), (_, max_fine, _) = runs
    change = abs(max_fine - max_base) / max_base if max_base > 0 else 0.0
    increment = float(np.linalg.norm(now - prev)) / (float(np.linalg.norm(now)) or 1.0)
    return DominationReport(max_base, max_fine, change, int(np.sum(excluded)), int(np.sum(sq.flagged)), increment, base)


# ---------------------------------------------------------------------------
# sup-over-frequency H-norm bound


def mm_linf_h_norm(
    m: Multiplier, E: DilationSet, beta: float, xi_samples: np.ndarray, j_range: tuple[int, int], depth: int
) -> float:
    """Ratio of the sup over frequencies of the weighted square sum of dilated
    symbol values to the square-summed band sup norms."""
    weights = build_h_weights(sampled_dilations(augmented(E), j_range, depth), beta)
    rho = np.abs(np.asarray(xi_samples, dtype=float))
    h2 = np.zeros(rho.size)  # per frequency, summed over the blocks in order
    for block in weights:  # a row per frequency; a dot per row keeps the bits of one evaluation per frequency
        vals = np.abs(evaluate(m, np.multiply.outer(rho, 2.0**block.j * block.nodes))) ** 2
        h2 += [float(block.weights @ row) for row in vals]
    sigma_inf = math.sqrt(sum(band_sup_norm(m, block.j) ** 2 for block in weights))
    sup_h = math.sqrt(max(0.0, *h2))
    return sup_h / sigma_inf if sigma_inf > 0 else (0.0 if sup_h == 0 else math.inf)


# ---------------------------------------------------------------------------
# fractional half-wave convergence


@dataclass(frozen=True)
class HalfwaveReport:
    beta_fit: float
    times: tuple[float, ...]
    sup_differences: tuple[float, ...]


def halfwave_times(E: DilationSet, t_min: float, t_max: float) -> np.ndarray:
    """Evaluation times accumulating at zero, extracted from the set, at most 64 of them.

    Power-law sets built around the accumulation point 1 contribute their
    offsets to the limit; explicit and lacunary sets contribute the points
    themselves inside the window.
    """
    ts = E.generator.small_times(t_min, t_max)
    ts = np.unique(ts[(ts >= t_min) & (ts <= t_max)])
    if ts.size > 64:
        idx = np.unique(np.round(np.linspace(0, ts.size - 1, 64)).astype(int))
        ts = ts[idx]
    return ts


def halfwave_convergence(f: GridFunction, alpha: float, times: np.ndarray) -> HalfwaveReport:
    """Fitted small-time rate of sup |e^{-i t (-Lap)^{alpha/2}} f - f|.

    Evolves spectrally with the phase e^{-i t (2 pi |xi|)^alpha}; the fitted
    slope is invariant under the 2 pi convention, which only rescales t.  Times
    that move f by round-off alone stay in the report but not in the fit.
    """
    if not 0 < alpha < 1:
        raise ValueError("propagator order must lie in (0, 1)")
    times = np.asarray(sorted(set(float(t) for t in times)))
    if times.size < 3:
        raise ValueError("need at least three evaluation times for a rate fit")
    spec = f.to_frequency()
    omega = (2.0 * np.pi * spec.freq_radius()) ** alpha
    t_max = float(times[-1])  # a product of Python floats overflows to inf, with no warning
    if not math.isfinite(t_max * float(omega.max())):
        raise ValueError(f"the half-wave phase t (2 pi |xi|)^alpha overflows at t = {t_max!r}")
    space, diffs = f.to_space().samples, []
    for t in times:
        evolved = replace(spec, samples=spec.samples * np.exp(-1j * t * omega), side="frequency")
        diffs.append(float(np.max(np.abs(evolved.to_space().samples - space))))
    diffs = np.array(diffs)  # the t = 0 round trip moves f by round-off alone; a time counts only well above it
    good = diffs > ROUNDOFF_FACTOR * float(np.max(np.abs(spec.to_space().samples - space)))
    if good.sum() < 2:  # a constant or non-finite input: there is nothing to fit
        raise ValueError(f"the evolution moves f at {good.sum()} of {times.size} times; a rate fit needs two")
    slope = float(np.polyfit(np.log(times[good]), np.log(diffs[good]), 1)[0])
    # plain floats, so that rates.csv holds numbers rather than numpy reprs
    return HalfwaveReport(slope, tuple(times.tolist()), tuple(diffs.tolist()))
