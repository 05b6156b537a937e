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
from typing import Sequence

import numpy as np

from .dilation_sets import (
    DilationSet,
    augmented,
    block_range,
    geometric_schedule,
    kappa,
    rescaled_block,
)
from .fractional_calculus import marchaud_matrix
from .lp_frames import CUTOFF, GridFunction, grid_from_profile
from .multipliers import (
    FAMILIES,
    LimitedDecay,
    Multiplier,
    band_oscillation,
    evaluate,
)
from .wire import Registry, integer, number, object_field

EXCLUSION_FACTOR = 1e-12


# ---------------------------------------------------------------------------
# built-in test functions


FUNCTIONS = Registry("kind", "test function")


@FUNCTIONS.register("gaussian_bump", width=number)
@dataclass(frozen=True)
class GaussianBump:
    """e^{-x^2 / (2 width^2)}."""

    width: float
    side = "space"

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"bump width must be positive, got {self.width}")

    def profile(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-(x**2) / (2.0 * self.width**2))


@FUNCTIONS.register("modulated_bump", width=number, freq=number)
@dataclass(frozen=True)
class ModulatedBump(GaussianBump):
    """The Gaussian bump modulated by e^{2 pi i freq x}."""

    freq: float

    def profile(self, x: np.ndarray) -> np.ndarray:
        return super().profile(x) * np.exp(2j * np.pi * self.freq * x)


@FUNCTIONS.register("random_band", band=integer, seed=integer)
@dataclass(frozen=True)
class RandomBand:
    """Seeded complex Gaussian spectrum restricted to 2**(band-1) <= |xi| <= 2**(band+1)."""

    band: int
    seed: int
    side = "frequency"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"random_band seed must be nonnegative, got {self.seed}")

    def profile(self, xi: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        spec = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
        rho = np.abs(xi)
        return spec * ((rho >= 2.0 ** (self.band - 1)) & (rho <= 2.0 ** (self.band + 1)))


def build_function(f, n: int, extent: float) -> GridFunction:
    """Space-side samples of a built-in test function on the 1-d grid over [-extent, extent)."""
    return grid_from_profile(f.profile, extent, n, side=f.side).to_space()


# ---------------------------------------------------------------------------
# dilated operators


def _batched_dilate(spec: GridFunction, m: Multiplier, ts: np.ndarray) -> np.ndarray:
    """Space-side values of T_{m(t .)} f for every t, stacked as (len(ts), n)."""
    if spec.side != "frequency":
        spec = spec.to_frequency()
    masks = evaluate(m, np.multiply.outer(ts, spec.freq_radius()))
    return spec.dxi * spec.n * np.fft.ifft(spec._phase() * (masks * spec.samples), axis=1)


def apply_dilated_multiplier(f: GridFunction, m: Multiplier, t: float) -> GridFunction:
    """T with the symbol rescaled by t: multiply the spectrum by m(t xi)."""
    if t <= 0:
        raise ValueError("dilation parameter must be positive")
    return GridFunction(f.extent, _batched_dilate(f, m, np.array([t]))[0])


def nested_sample(points: np.ndarray, depth: int) -> np.ndarray:
    """Finite sample of a block, nested across depths (doubling refines).

    Combines the block points nearest to the dyadic value grid 1 + k/2**depth
    (coverage of [1, 2]) with geometric index ladders from both ends
    (coverage of accumulation clusters).  Both ingredients are nested under
    depth doubling, so refinement only ever adds dilations.
    """
    n = points.size
    if n == 0:
        return points
    targets = 1.0 + np.arange((1 << depth) + 1) / float(1 << depth)
    pos = np.searchsorted(points, targets)
    below, above = np.maximum(pos - 1, 0), np.minimum(pos, n - 1)
    # the nearer neighbour of each target; a tie goes to the one below
    snap = np.where(np.abs(points[above] - targets) < np.abs(points[below] - targets), above, below)
    steps = 1 << np.arange(depth + 1)
    ladder = np.concatenate([[0, n - 1], np.minimum(steps, n - 1), np.maximum(n - 1 - steps, 0)])
    return points[np.unique(np.concatenate([snap, ladder]))]


def sampled_dilations(
    E: DilationSet, j_range: tuple[int, int], depth: int, augment: bool = False
) -> dict[int, np.ndarray]:
    """Per-j nested samples of the set's blocks.

    With augment=True the lacunary grid is adjoined first, so every block
    contains the endpoints 1 and 2 (the square-functional setting).
    """
    base = augmented(E) if augment else E
    out = {}
    for j in range(j_range[0], j_range[1] + 1):
        block = rescaled_block(base, j)
        if not block.empty:
            out[j] = nested_sample(block.points, depth)
    return out


def maximal_function(
    f: GridFunction,
    m: Multiplier,
    E: DilationSet,
    sampling_depth: int = 4,
    j_range: tuple[int, int] = (-3, 4),
    augment: bool = False,
) -> tuple[GridFunction, float]:
    """Pointwise sup of |T_{m(t .)} f| over the sampled dilation set.

    Returns the sup together with the relative L2 increment from the previous
    sampling depth, a convergence indicator for the discretized supremum.
    """
    blocks = sampled_dilations(E, j_range, sampling_depth, augment)
    if not blocks:
        raise ValueError("empty dilation sampling on the requested j window")
    spec = f.to_frequency()
    sup_now = np.zeros(spec.samples.shape)
    sup_prev = np.zeros(spec.samples.shape)
    seen: set[float] = set()
    coarse = sampled_dilations(E, j_range, max(sampling_depth - 1, 0), augment)
    for j, pts in blocks.items():
        ts = 2.0**j * pts
        keep = [i for i, t in enumerate(ts) if float(t) not in seen]
        if not keep:  # every dilation of this block was seen in an earlier block
            continue
        seen.update(float(ts[i]) for i in keep)
        vals = np.abs(_batched_dilate(spec, m, ts[keep]))
        sup_now = np.maximum(sup_now, vals.max(axis=0))
        prev_pts = set(coarse.get(j, np.array([])).tolist())
        prev_rows = [i for i, p in enumerate(pts[keep]) if float(p) in prev_pts]
        if prev_rows:
            sup_prev = np.maximum(sup_prev, vals[prev_rows].max(axis=0))
    out = GridFunction(f.extent, sup_now.astype(complex))
    denom = float(np.linalg.norm(sup_now)) or 1.0
    increment = float(np.linalg.norm(sup_now - sup_prev)) / denom
    return out, increment


# ---------------------------------------------------------------------------
# distance-power quadrature weights


@dataclass(frozen=True, eq=False)
class HBlock:
    j: int
    nodes: np.ndarray
    weights: np.ndarray


def _halfgap_cells(anchor: float, width: float, beta2: float, outward: float):
    """Nodes and weights for the density d**(beta2 - 1) on a half-gap, in five cells.

    `outward` is +1 when the interval extends to the right of the anchor
    point.  Cell edges grade geometrically toward the anchor; weights are the
    exact cell integrals and nodes the density centroids.
    """
    if width <= 0:
        return np.array([]), np.array([])
    edges = width * 2.0 ** -np.arange(5, -1, -1.0)
    edges[0] = 0.0
    lo, hi = edges[:-1], edges[1:]
    weights = (hi**beta2 - lo**beta2) / beta2
    centers = (beta2 / (beta2 + 1.0)) * (hi ** (beta2 + 1.0) - lo ** (beta2 + 1.0)) / (
        hi**beta2 - lo**beta2
    )
    return anchor + outward * centers, weights


def build_h_weights(blocks: dict[int, np.ndarray], beta: float) -> tuple[HBlock, ...]:
    """Quadrature of d(s, block)**(2 beta - 1) ds per block, gap by gap.

    Per-block weight sums reproduce the closed-form distance integral of the
    sampled point set exactly (the cells tile [1, 2]).
    """
    if not 0 < beta < 0.5:
        raise ValueError("weight exponent must lie in (0, 1/2)")
    beta2 = 2.0 * beta
    out = []
    for j, pts in sorted(blocks.items()):
        nodes, weights = [], []
        if pts[0] > 1.0:
            n_, w_ = _halfgap_cells(pts[0], pts[0] - 1.0, beta2, -1.0)
            nodes.append(n_), weights.append(w_)
        for left, right in zip(pts[:-1], pts[1:]):
            half = 0.5 * (right - left)
            n_, w_ = _halfgap_cells(left, half, beta2, 1.0)
            nodes.append(n_), weights.append(w_)
            n_, w_ = _halfgap_cells(right, half, beta2, -1.0)
            nodes.append(n_), weights.append(w_)
        if pts[-1] < 2.0:
            n_, w_ = _halfgap_cells(pts[-1], 2.0 - pts[-1], beta2, 1.0)
            nodes.append(n_), weights.append(w_)
        all_nodes = np.concatenate(nodes) if nodes else np.array([])
        all_weights = np.concatenate(weights) if weights else np.array([])
        order = np.argsort(all_nodes)
        out.append(HBlock(j, all_nodes[order], all_weights[order]))
    return tuple(out)


# ---------------------------------------------------------------------------
# the weighted square functional


@dataclass(frozen=True, eq=False)
class SquareFunctionalResult:
    values: GridFunction  # real, nonnegative per pixel
    flagged: np.ndarray  # pixels whose path failed the Hoelder precondition


def _path_hoelder_ok(paths: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized two-scale exponent estimate per path (paths: nodes x pixels)."""
    if paths.shape[0] < 3:
        return np.ones(paths.shape[1], dtype=bool)
    d1 = np.abs(paths[1:-1] - paths[:-2])
    d2 = np.abs(paths[2:] - paths[:-2])
    scale = np.max(np.abs(paths), axis=0, keepdims=True) + 1e-300
    ratios = np.where(d1 > 1e-13 * scale, d2 / np.maximum(d1, 1e-300), 2.0)
    est = np.median(np.log2(np.maximum(ratios, 1e-12)), axis=0)
    return np.minimum(est, 1.0) > alpha


def square_functional(
    f: GridFunction,
    m: Multiplier,
    E: DilationSet,
    alpha: float,
    beta: float,
    sampling_depth: int = 4,
    j_range: tuple[int, int] = (-3, 4),
    s_resolution: int = 128,
) -> SquareFunctionalResult:
    """Distance-weighted square sum of fractional path derivatives, per pixel.

    For each dyadic level the per-pixel path F_j(s) = T_{m(2**j s .)} f(x) is
    sampled on [0, 2] (uniform fill plus the weight nodes), differentiated by
    the Marchaud scheme along s, and contracted against the level's weights.
    """
    if not 0 < beta < alpha <= 0.5:
        raise ValueError("need 0 < beta < alpha <= 1/2")
    weights = build_h_weights(sampled_dilations(E, j_range, sampling_depth, augment=True), beta)
    spec = f.to_frequency()
    acc = np.zeros(f.n)
    flagged = np.zeros(f.n, dtype=bool)
    for block in weights:
        if block.nodes.size == 0:
            continue
        fill = np.linspace(0.0, 2.0, s_resolution + 1)
        s_grid = np.unique(np.concatenate([fill, block.nodes]))
        paths = _batched_dilate(spec, m, 2.0**block.j * s_grid)  # (n_s, n_pixels)
        flagged |= ~_path_hoelder_ok(paths, alpha)
        deriv = marchaud_matrix(s_grid, alpha, exponent=1.0) @ paths  # (n_s - 1, n_pixels)
        cols = np.searchsorted(s_grid[1:], block.nodes)
        acc += block.weights @ np.abs(deriv[cols]) ** 2
    return SquareFunctionalResult(GridFunction(f.extent, acc.astype(complex)), flagged)


# ---------------------------------------------------------------------------
# experiment configuration and reports


@dataclass(frozen=True)
class ExperimentConfig:
    E: DilationSet
    m: Multiplier
    f: GaussianBump | ModulatedBump | RandomBand
    alpha: float = 0.45
    beta: float = 0.3
    p: float = 2.0
    n: int = 1024
    extent: float = 8.0
    j_range: tuple[int, int] = (-3, 4)
    depth: int = 4
    s_resolution: int = 128
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.beta < self.alpha <= 0.5:
            raise ValueError("need 0 < beta < alpha <= 1/2")
        if not 1 < self.p < math.inf:
            raise ValueError("integrability index must lie in (1, inf)")
        if self.n < 1 or self.n & (self.n - 1):
            raise ValueError(f"grid side n must be a power of two, got {self.n}")
        if not self.extent > 0:
            raise ValueError(f"grid extent must be positive, got {self.extent}")
        if self.depth < 0:
            raise ValueError(f"sampling depth must be nonnegative, got {self.depth}")
        if self.s_resolution < 1:
            raise ValueError(f"s_resolution must be positive, got {self.s_resolution}")
        block_range(self.j_range)

    def build_f(self) -> GridFunction:
        return build_function(self.f, self.n, self.extent)

    def kappa_estimate(self) -> float:
        sched = geometric_schedule(0.07, 0.7e-5, 7)
        return kappa(self.E, sched, self.j_range).value


def config_to_json(config: ExperimentConfig) -> dict:
    return {
        "set": config.E.to_json(),
        "multiplier": FAMILIES.to_json(config.m),
        "f": FUNCTIONS.to_json(config.f),
        "alpha": config.alpha,
        "beta": config.beta,
        "p": config.p,
        "grid": {"n": config.n, "extent": config.extent, "dim": 1},
        "j_range": list(config.j_range),
        "depth": config.depth,
        "s_resolution": config.s_resolution,
        "seed": config.seed,
    }


def config_from_json(payload: dict) -> ExperimentConfig:
    grid = object_field(payload, "grid")
    if integer(grid.get("dim", 1)) != 1:
        raise ValueError("built-in experiment inputs are 1-d")
    return ExperimentConfig(
        E=DilationSet.from_json(payload["set"]),
        m=FAMILIES.from_json(payload["multiplier"]),
        f=FUNCTIONS.from_json(payload["f"]),
        alpha=number(payload.get("alpha", 0.45)),
        beta=number(payload.get("beta", 0.3)),
        p=number(payload.get("p", 2.0)),
        n=integer(grid.get("n", 1024)),
        extent=number(grid.get("extent", 8.0)),
        j_range=block_range(payload.get("j_range", (-3, 4))),
        depth=integer(payload.get("depth", 4)),
        s_resolution=integer(payload.get("s_resolution", 128)),
        seed=integer(payload.get("seed", 0)),
    )


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

    def histogram(self, bins: int = 32) -> str:
        finite = self.ratios[np.isfinite(self.ratios)]
        if finite.size == 0:
            return "lo,hi,count\n"
        counts, edges = np.histogram(finite, bins=bins)
        rows = ["lo,hi,count"]
        rows += [f"{repr(float(lo))},{repr(float(hi))},{c}" for lo, hi, c in zip(edges, edges[1:], counts)]
        return "\n".join(rows) + "\n"


def _pointwise_ratio(config: ExperimentConfig, depth: int, s_resolution: int):
    f = config.build_f()
    # both sides of the inequality run over the lacunary-augmented set
    sup, increment = maximal_function(f, config.m, config.E, depth, config.j_range, augment=True)
    sq = square_functional(
        f,
        config.m,
        config.E,
        config.alpha,
        config.beta,
        sampling_depth=depth,
        j_range=config.j_range,
        s_resolution=s_resolution,
    )
    top = np.abs(sup.samples.real) ** 2
    bot = sq.values.samples.real
    excluded = (top <= EXCLUSION_FACTOR * top.max()) & (bot <= EXCLUSION_FACTOR * bot.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(excluded, np.nan, top / bot)
    return ratios, excluded, sq.flagged, increment


def domination_ratio(config: ExperimentConfig) -> DominationReport:
    """Max pointwise ratio of squared maximal function to square functional,
    with its stability under doubling both the set sampling and the s-grid."""
    base, excluded, flagged, increment = _pointwise_ratio(config, config.depth, config.s_resolution)
    fine, _, _, _ = _pointwise_ratio(config, config.depth + 1, 2 * config.s_resolution)
    all_excluded = bool(np.all(np.isnan(base)))
    max_base = 0.0 if all_excluded else float(np.nanmax(base))
    max_fine = 0.0 if np.all(np.isnan(fine)) else float(np.nanmax(fine))
    change = abs(max_fine - max_base) / max_base if max_base > 0 else 0.0
    return DominationReport(
        max_ratio=max_base,
        refined_ratio=max_fine,
        relative_change=change,
        excluded_pixels=int(np.sum(excluded)),
        flagged_pixels=int(np.sum(flagged)),
        maximal_increment=increment,
        ratios=base,
    )


# ---------------------------------------------------------------------------
# sup-over-frequency H-norm bound


def band_sup_norm(m: Multiplier, j: int) -> float:
    """Grid sup of the band-j restriction |m(2**j .) psi| on its annulus."""
    osc = band_oscillation(m, j)
    n = 1 << max(10, int(4 * max(osc, 1.0)).bit_length())
    rho = np.linspace(0.0, 4.0, min(n, 1 << 16), endpoint=False)
    return float(np.max(np.abs(evaluate(m, 2.0**j * rho) * CUTOFF.psi(rho))))


def mm_linf_h_norm(
    m: Multiplier,
    E: DilationSet,
    beta: float,
    xi_samples: np.ndarray,
    j_range: tuple[int, int] = (-4, 4),
    depth: int = 8,
) -> float:
    """Ratio of the sup over frequencies of the weighted square sum of dilated
    symbol values to the square-summed band sup norms."""
    weights = build_h_weights(sampled_dilations(E, j_range, depth, augment=True), beta)
    sup_h2 = 0.0
    for xi in np.asarray(xi_samples, dtype=float):
        h2 = 0.0
        for block in weights:
            vals = evaluate(m, 2.0**block.j * block.nodes * abs(xi))
            h2 += float(block.weights @ np.abs(vals) ** 2)
        sup_h2 = max(sup_h2, h2)
    sigma_inf = math.sqrt(sum(band_sup_norm(m, block.j) ** 2 for block in weights))
    sup_h = math.sqrt(sup_h2)
    return sup_h / sigma_inf if sigma_inf > 0 else (0.0 if sup_h == 0 else math.inf)


# ---------------------------------------------------------------------------
# operator-norm probing


@dataclass(frozen=True)
class ProbeReport:
    lower_bound: float
    per_trial: tuple[tuple[str, float], ...]
    regularity_sweep: tuple[tuple[float, float], ...]


def operator_norm_probe(
    config: ExperimentConfig,
    trials: int = 3,
    regularity_grid: Sequence[float] = (),
) -> ProbeReport:
    """Empirical lower bound for the maximal operator norm on L^p.

    Runs the maximal function on normalized test inputs; optionally sweeps a
    family of multipliers of varying decay to record how the bound moves as
    the regularity crosses the critical index.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    specs = [GaussianBump(0.5 + 0.5 * k) for k in range(max(1, trials - 2))]
    if trials >= 2:
        specs.append(ModulatedBump(1.0, 4.0))
    if trials >= 3:
        specs.append(RandomBand(3, config.seed))

    def maximal_norm(spec, m: Multiplier) -> float:
        """L^p norm of the maximal function of the L^p-normalized input."""
        f = build_function(spec, config.n, config.extent)
        norm = f.lp_norm(config.p)
        if not norm > 0:
            raise ValueError(f"trial input {FUNCTIONS.to_json(spec)['kind']} vanishes on the {config.n}-point grid")
        f = GridFunction(f.extent, f.samples / norm)
        sup, _ = maximal_function(f, m, config.E, config.depth, config.j_range)
        return sup.lp_norm(config.p)

    per_trial = [(FUNCTIONS.to_json(spec)["kind"], maximal_norm(spec, config.m)) for spec in specs]
    sweep = [(float(a), maximal_norm(specs[0], LimitedDecay(float(a)))) for a in regularity_grid]
    bound = max(value for _, value in per_trial)
    return ProbeReport(bound, tuple(per_trial), tuple(sweep))


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


def halfwave_convergence(
    f: GridFunction,
    alpha: float,
    beta: float,
    times: np.ndarray,
) -> HalfwaveReport:
    """Fitted small-time rate of sup |e^{-i t (-Lap)^{alpha/2}} f - f|.

    Evolves spectrally with the phase e^{-i t (2 pi |xi|)^alpha}; the fitted
    slope is invariant under the 2 pi convention, which only rescales t.
    """
    if not 0 < alpha < 1:
        raise ValueError("propagator order must lie in (0, 1)")
    if not beta < 1:
        raise ValueError("target rate must lie below 1")
    times = np.asarray(sorted(set(float(t) for t in times)))
    if times.size < 3:
        raise ValueError("need at least three evaluation times for a rate fit")
    spec = f.to_frequency()
    omega = (2.0 * np.pi * spec.freq_radius()) ** alpha
    diffs = []
    for t in times:
        evolved = replace(spec, samples=spec.samples * np.exp(-1j * t * omega), side="frequency")
        diffs.append(float(np.max(np.abs(evolved.to_space().samples - f.to_space().samples))))
    diffs = np.array(diffs)
    good = diffs > 0
    slope = float(np.polyfit(np.log(times[good]), np.log(diffs[good]), 1)[0])
    return HalfwaveReport(slope, tuple(times), tuple(diffs))
