"""Named verification suites: every module invariant at default parameters.

Each check returns its measured value alongside the bound it was held to, so
the aggregate report doubles as a record of how much margin the run had.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dilation_sets as ds
from . import fractional_calculus as fc
from . import lp_frames as lp
from . import maximal_lab as ml
from . import multipliers as mu


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    criterion: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _within(name, value, target, tol) -> Check:
    return Check(name, bool(abs(value - target) <= tol), float(value), f"|x - {target}| <= {tol}")


def _at_most(name, value, bound) -> Check:
    return Check(name, bool(value <= bound), float(value), f"x <= {bound}")


def _is_true(name, flag, measured=1.0) -> Check:
    return Check(name, bool(flag), float(measured), "true")


# ---------------------------------------------------------------------------


def suite_dimension(seed: int = 0) -> list[Check]:
    checks = []
    sched = ds.geometric_schedule(0.07, 0.7e-6, 9)
    for a in (1.0, 0.5, 2.0):
        est = ds.kappa(ds.DilationSet(ds.PowerSequence(a)), sched, (-2, 3))
        checks.append(_within(f"kappa_power_{a}", est.value, 1.0 / (1.0 + a), 0.05))
    checks.append(
        _at_most("kappa_lacunary", ds.kappa(ds.DilationSet(ds.LacunaryGrid()), sched, (-2, 3)).value, 0.02)
    )
    cantor = ds.rescaled_block(ds.DilationSet(ds.CantorLike(3, (0, 2), 12)), 0)
    est = ds.minkowski_dimension(cantor, np.array([3.0**-k for k in range(2, 11)]))
    checks.append(_within("minkowski_cantor12", est.value, math.log(2) / math.log(3), 0.03))

    bound_sched = ds.geometric_schedule(0.35, 0.7e-5, 40)
    suite = {
        "two_point": ds.BlockSet(0, np.array([1.0, 2.0])),
        "cantor6": ds.rescaled_block(ds.DilationSet(ds.CantorLike(3, (0, 2), 6)), 0),
        "cantor9": ds.rescaled_block(ds.DilationSet(ds.CantorLike(3, (0, 2), 9)), 0),
        "cantor12": cantor,
        "power_half": ds.rescaled_block(ds.DilationSet(ds.PowerSequence(0.5)), 0, gap_floor=0.5e-5),
        "power_1": ds.rescaled_block(ds.DilationSet(ds.PowerSequence(1.0)), 0, gap_floor=0.5e-5),
        "power_2": ds.rescaled_block(ds.DilationSet(ds.PowerSequence(2.0)), 0, gap_floor=0.5e-5),
        "lacunary": ds.rescaled_block(ds.DilationSet(ds.LacunaryGrid()), 0),
        "union_pl": ds.rescaled_block(
            ds.DilationSet(ds.UnionSet((ds.PowerSequence(1.0), ds.LacunaryGrid()))), 0, gap_floor=0.5e-5
        ),
        "union_ce": ds.rescaled_block(
            ds.DilationSet(ds.UnionSet((ds.CantorLike(3, (0, 2), 6), ds.ExplicitPoints((1.1, 1.7))))), 0
        ),
    }
    worst = 0.0
    for block in suite.values():
        for a in (0.3, 0.5, 0.7):
            rep = ds.dimension_bound_check(block, a, bound_sched)
            worst = max(worst, rep.ratio_left, rep.ratio_right)
    checks.append(_at_most("bound_check_30_cases_worst_ratio", worst, 10.0))

    for a_seq in (0.5, 1.0, 2.0):
        lo, hi = 0.05, 0.98
        seq = (lambda aa: (lambda n: 1.0 + n**-aa))(a_seq)
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            if ds.gap_sum(seq, mid).convergent:
                hi = mid
            else:
                lo = mid
        checks.append(_within(f"gap_sum_flip_{a_seq}", 0.5 * (lo + hi), 1.0 / (1.0 + a_seq), 0.05))

    lor_sched = ds.geometric_schedule(0.5, 1e-5, 21)
    res = ds.lorentz_membership(lambda n: 1.0 / n, 1.0, lor_sched)
    checks.append(_is_true("lorentz_weak_l1_true", res.verdict and res.bound <= 2.0, res.bound))
    res_log = ds.lorentz_membership(lambda n: 1.0 / np.log(n + 1.0), 1.0, lor_sched)
    checks.append(_is_true("lorentz_log_false", not res_log.verdict))

    for r in (0.5, 1.0, 2.0):
        block = ds.rescaled_block(ds.DilationSet(ds.PowerSequence(1.0 / r)), 0)
        est = ds.minkowski_dimension(block, sched)
        checks.append(_within(f"gap_dimension_r_{r}", est.value, r / (1.0 + r), 0.05))

    block = ds.rescaled_block(ds.DilationSet(ds.PowerSequence(1.0)), 0)
    counts = [ds.entropy_number(block, 2.0**-k) for k in range(1, 14)]
    checks.append(_is_true("entropy_monotone_nested", all(a <= b for a, b in zip(counts, counts[1:]))))
    finite = [math.isfinite(ds.distance_integral(block, a)) for a in np.linspace(0.05, 0.95, 19)]
    checks.append(_is_true("distance_integral_finiteness_monotone", finite == sorted(finite)))
    return checks


def suite_fraccalc(seed: int = 0) -> list[Check]:
    checks = []
    grid = fc.uniform_grid(2.0, 8193)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for beta in (1, 2, 3):
            deriv = fc.marchaud_derivative(fc.SampledPath(grid, grid ** float(beta)), alpha)
            exact = math.gamma(beta + 1) / math.gamma(beta + 1 - alpha) * deriv.grid ** (beta - alpha)
            worst = max(worst, float(np.max(np.abs(deriv.values - exact)) / np.max(np.abs(exact))))
    checks.append(_at_most("marchaud_power_law_rel_error", worst, 1e-4))

    worst_rt = 0.0
    g4 = fc.uniform_grid(2.0, 4097)
    for alpha in (0.25, 0.5, 0.75):
        worst_rt = max(worst_rt, fc.roundtrip_residual(fc.SampledPath(g4, g4**2), alpha))
        worst_rt = max(
            worst_rt, fc.roundtrip_residual(fc.SampledPath(grid, np.sin(2 * np.pi * grid)), alpha)
        )
    checks.append(_at_most("roundtrip_residual", worst_rt, 1e-3))

    residuals = [
        fc.roundtrip_residual(fc.SampledPath(fc.uniform_grid(2.0, n + 1), fc.uniform_grid(2.0, n + 1) ** 2), 0.5)
        for n in (512, 1024, 2048, 4096, 8192)
    ]
    halving = all(fine <= coarse / 2.0 for coarse, fine in zip(residuals, residuals[1:]))
    checks.append(_is_true("roundtrip_halves_per_doubling", halving, residuals[-1]))

    s_grid = np.linspace(1.0, 2.0, 65)
    checks.append(_at_most("rescaled_linear", fc.rescaled_derivative_check(lambda t: t, 1, 0.3, s_grid), 1e-6))
    checks.append(
        _at_most(
            "rescaled_quadratic",
            fc.rescaled_derivative_check(lambda t: t**2, 2, 0.5, s_grid, n_grid=16384),
            1e-5,
        )
    )

    g = fc.uniform_grid(2.0, 513)
    f1, f2 = np.sin(g), g**2 + 1j * g
    combined = fc.marchaud_derivative(fc.SampledPath(g, 2 * f1 + 3 * f2, hoelder_exponent=1.0), 0.4)
    parts = (
        2 * fc.marchaud_derivative(fc.SampledPath(g, f1, hoelder_exponent=1.0), 0.4).values
        + 3 * fc.marchaud_derivative(fc.SampledPath(g, f2, hoelder_exponent=1.0), 0.4).values
    )
    checks.append(_at_most("marchaud_linearity", float(np.max(np.abs(combined.values - parts))), 1e-10))

    g = fc.uniform_grid(2.0, 2049)
    f = np.sin(g) + 0.5 * np.cos(3 * g)
    deriv = fc.marchaud_derivative(fc.SampledPath(g, f, hoelder_exponent=1.0), 0.01)
    window = deriv.grid >= 0.25
    dev = float(
        np.max(np.abs(deriv.values[window] - f[1:][window]) / np.maximum(np.abs(f[1:][window]), 1e-2))
    )
    checks.append(_at_most("order_zero_limit", dev, 0.05))
    return checks


def suite_frames(seed: int = 0) -> list[Check]:
    checks = []
    xi = np.geomspace(2.0**-10, 2.0**10, 4001)
    checks.append(_at_most("partition_of_unity", lp.partition_defect(xi), 1e-12))

    g = lp.grid_from_profile(lambda x: np.exp(-(x**2)) * np.exp(2j * np.pi * 3 * x), 8.0, 1024)
    rel = float(np.max(np.abs(g.to_frequency().to_space().samples - g.samples)) / np.max(np.abs(g.samples)))
    checks.append(_at_most("fft_roundtrip", rel, 1e-12))
    checks.append(
        _at_most("plancherel", abs(g.l2_norm() - g.to_frequency().l2_norm()) / g.l2_norm(), 1e-10)
    )

    band = lp.lp_piece(lp.grid_from_profile(lambda x: np.exp(-(x**2)) * np.cos(2 * np.pi * 2.3 * x), 8.0, 8192), 2)
    norms = [lp.besov_norm(band, lp.BesovParams(2.0, s, j_max=6)) for s in (0.2, 0.5, 1.0, 1.5)]
    checks.append(_is_true("besov_monotone_in_s", all(a <= b for a, b in zip(norms, norms[1:]))))

    fns = [
        lambda x: np.exp(-(x**2)),
        lambda x: np.exp(-(x**2) / 4) * np.cos(2 * np.pi * 1.5 * x),
        lambda x: np.exp(-((x - 1) ** 2) / 0.5),
        lambda x: 1.0 / (1.0 + x**2),
        lambda x: np.exp(-(x**2) / 2) * np.sin(2 * np.pi * 0.7 * x) + 0.3 * np.exp(-((x + 2) ** 2)),
    ]
    ratios = [
        lp.hoelder_besov_ratio(lp.grid_from_profile(fn, 8.0, 8192), n, sp)
        for fn in fns
        for (n, sp) in ((0, 0.5), (1, 0.3))
    ]
    ok = all(1.0 / 8.0 <= r <= 8.0 for r in ratios)
    checks.append(_is_true("hoelder_besov_factor_8", ok, max(ratios)))

    worst = 0.0
    for m in (mu.LimitedDecay(1.5), mu.BandBump(), mu.SlowDecay(1.0, 0.5)):
        for level in (0, 1):
            ws = lp.sigma2_weighted_sobolev(m, level, (-2, 8))
            s2 = lp.sigma2_norm(m, lp.BesovParams(2.0, float(level)), (-2, 8)).total
            ratio = ws / s2
            worst = max(worst, ratio, 1.0 / ratio)
    checks.append(_at_most("weighted_sobolev_factor_4", worst, 4.0))

    worst = 0.0
    for m in (mu.LimitedDecay(1.5), mu.BandBump(), mu.SlowDecay(1.0, 0.5)):
        for alpha in (0.3, 0.5):
            lhs = lp.sigma2_norm(m, lp.BesovParams(math.inf, alpha + 0.1), (-2, 6)).total
            rhs = lp.sigma2_norm(m, lp.BesovParams(2.0, 0.5 + alpha + 0.1), (-2, 6)).total
            worst = max(worst, lhs / rhs)
    checks.append(_at_most("sup_besov_embedding_16", worst, 16.0))

    base = lp.sigma2_norm(mu.LimitedDecay(1.0), lp.BesovParams(2.0, 0.5), (-2, 8)).total
    moved = lp.sigma2_norm(mu.scaled(mu.LimitedDecay(1.0), 2.0), lp.BesovParams(2.0, 0.5), (-3, 7)).total
    checks.append(_at_most("dyadic_reindexing_exact", abs(moved - base) / base, 1e-12))

    worst = lp.dilation_invariance_check(mu.LimitedDecay(1.0), [2.0, 1.37, 0.73], lp.BesovParams(2.0, 0.5), (-2, 8))
    checks.append(_at_most("dilation_invariance_8", worst, 8.0))
    return checks


def suite_multipliers(seed: int = 0) -> list[Check]:
    checks = []
    slopes = mu.decay_profile(mu.LimitedDecay(1.0), (3, 10), 1)
    checks.append(_within("limited_decay_slope_order0", slopes[0], -1.0, 0.1))
    checks.append(_within("limited_decay_slope_order1", slopes[1], -1.0, 0.1))
    slopes = mu.decay_profile(mu.Oscillatory(0.5, 1.0), (3, 10), 1)
    checks.append(_within("oscillatory_slope_order1", slopes[1], -1.5, 0.1))
    slopes = mu.decay_profile(mu.SlowDecay(1.0, 0.5), (5, 12), 2)
    checks.append(_within("slow_decay_slope_order2", slopes[2], -2.0, 0.1))

    res = lp.sigma2_norm(mu.LimitedDecay(1.0), lp.BesovParams(2.0, 0.7), (-2, 10))
    bands = dict(res.bands)
    js = np.arange(2, 11)
    slope = float(np.polyfit(js, np.log2([bands[j] for j in js]), 1)[0])
    checks.append(_within("sigma2_band_slope", slope, -0.3, 0.1))
    checks.append(_is_true("sigma2_negative_bands_zero", bands[-1] == 0.0 and bands[-2] == 0.0))

    conv_short = lp.sigma2_norm(mu.LimitedDecay(1.0), lp.BesovParams(2.0, 0.7), (-2, 8)).total
    conv_long = lp.sigma2_norm(mu.LimitedDecay(1.0), lp.BesovParams(2.0, 0.7), (-2, 12)).total
    div_long = lp.sigma2_norm(mu.LimitedDecay(1.0), lp.BesovParams(2.0, 1.3), (-2, 12))
    checks.append(
        _is_true(
            "sigma2_finite_iff_r_below_a",
            conv_long <= 1.10 * conv_short and div_long.stale,
            conv_long / conv_short,
        )
    )

    def brute(m, alpha, rho, n=400_000):
        p = 3.0 / (1.0 - alpha)
        w = (np.arange(n) + 0.5) / n
        u = w**p
        vals = mu.evaluate(m, rho * (1.0 - u))
        return complex(np.sum((mu.evaluate(m, rho) - vals) * u ** (-1 - alpha) * p * w ** (p - 1)) / n)

    mine, _ = mu.mtilde_values(mu.LimitedDecay(1.0), 0.4, np.array([8.0]))
    checks.append(_at_most("mtilde_oracle_agreement", abs(mine[0] - brute(mu.LimitedDecay(1.0), 0.4, 8.0)), 1e-5))

    c1 = mu.Custom(lambda r: mu.evaluate(mu.LimitedDecay(1.0), r))
    c2 = mu.Custom(lambda r: mu.evaluate(mu.BandBump(), r))
    both = mu.Custom(lambda r: 2.0 * mu.evaluate(mu.LimitedDecay(1.0), r) + 3.0 * mu.evaluate(mu.BandBump(), r))
    rho = np.geomspace(0.6, 30.0, 17)
    v1, _ = mu.mtilde_values(c1, 0.4, rho)
    v2, _ = mu.mtilde_values(c2, 0.4, rho)
    vs, _ = mu.mtilde_values(both, 0.4, rho)
    checks.append(_at_most("mtilde_linearity", float(np.max(np.abs(vs - 2 * v1 - 3 * v2))), 1e-10))

    rho = np.geomspace(1e-2, 2.0**12, 100)
    sup = max(
        float(np.max(np.abs(mu.mtilde_values(m, 0.45, rho)[0])))
        for m in (mu.LimitedDecay(1.0), mu.Oscillatory(0.5, 1.0), mu.SlowDecay(1.0, 0.5), mu.BandBump())
    )
    checks.append(_at_most("mtilde_bounded", sup, 50.0))

    worst = 0.0
    for m, s in ((mu.BandBump(), 1.0), (mu.LimitedDecay(1.5), 0.5)):
        ratio = mu.embedding_check(m, 0.3, 0.1, 2.0, s, (-2, 5))
        worst = max(worst, ratio)
    checks.append(_at_most("embedding_check_32", worst, 32.0))
    return checks


def suite_maximal(seed: int = 0) -> list[Check]:
    checks = []
    pow_lac = ds.DilationSet(ds.UnionSet((ds.PowerSequence(1.0), ds.LacunaryGrid())))
    lac = ds.DilationSet(ds.LacunaryGrid())

    blocks = ml.sampled_dilations(pow_lac, (-2, 3), 5, augment=True)
    weights = ml.build_h_weights(blocks, 0.3)
    worst = max(
        abs(float(np.sum(hb.weights)) - ds.finite_distance_integral(ds.BlockSet(hb.j, blocks[hb.j]), 0.6))
        / ds.finite_distance_integral(ds.BlockSet(hb.j, blocks[hb.j]), 0.6)
        for hb in weights
    )
    checks.append(_at_most("h_weights_match_closed_form", worst, 1e-6))

    f = ml.build_function(ml.GaussianBump(1.0), 512, 8.0)
    single = ds.DilationSet(ds.ExplicitPoints((1.0,)))
    sup, _ = ml.maximal_function(f, mu.BandBump(), single, 4, (0, 0))
    l2 = math.sqrt(float(np.sum(sup.samples.real**2) * sup.dx))
    checks.append(_at_most("plancherel_contraction", l2 / f.l2_norm(), 1.0 + 1e-10))

    small = ds.DilationSet(ds.ExplicitPoints((1.0, 1.5)))
    large = ds.DilationSet(ds.ExplicitPoints((1.0, 1.25, 1.5, 1.75)))
    s1, _ = ml.maximal_function(f, mu.LimitedDecay(1.0), small, 4, (0, 0))
    s2, _ = ml.maximal_function(f, mu.LimitedDecay(1.0), large, 4, (0, 0))
    checks.append(_is_true("maximal_monotone_in_set", bool(np.all(s2.samples.real >= s1.samples.real - 1e-15))))

    xi_samples = np.geomspace(0.25, 64.0, 25)
    worst = 0.0
    for m in (mu.BandBump(), mu.LimitedDecay(1.0), mu.SlowDecay(1.0, 0.5)):
        for E in (pow_lac, lac):
            for beta in (0.25, 0.35):
                worst = max(worst, ml.mm_linf_h_norm(m, E, beta, xi_samples, j_range=(-4, 4), depth=6))
    checks.append(_at_most("h_norm_bound_12_cases", worst, 16.0))

    config = ml.ExperimentConfig(
        E=pow_lac,
        m=mu.BandBump(),
        f=ml.GaussianBump(1.0),
        alpha=0.45,
        beta=0.3,
        n=512,
        j_range=(-2, 3),
        depth=3,
        s_resolution=96,
        seed=seed,
    )
    report = ml.domination_ratio(config)
    checks.append(
        _is_true(
            "domination_ratio_stable",
            report.stable and math.isfinite(report.max_ratio),
            report.relative_change,
        )
    )

    n, extent = 1024, 8.0
    x = -extent + (2 * extent / n) * np.arange(n)
    mode = lp.GridFunction(extent, np.exp(2j * np.pi * 2.0 * x))
    times = np.geomspace(1e-4, 1e-3, 8) / (2 * np.pi * 2.0) ** 0.5
    slope = ml.halfwave_convergence(mode, 0.5, 0.4, times).beta_fit
    checks.append(_within("halfwave_single_mode_slope", slope, 1.0, 0.02))
    times = ml.halfwave_times(ds.DilationSet(ds.PowerSequence(1.0)), 1.0 / 40, 0.35)
    gauss = ml.build_function(ml.GaussianBump(1.0), 1024, 8.0)
    beta_fit = ml.halfwave_convergence(gauss, 0.5, 0.4, times).beta_fit
    checks.append(Check("halfwave_gaussian_rate", beta_fit >= 0.3, beta_fit, "x >= 0.3"))
    return checks


# suite name -> checks, in the order `run_all` runs them
SUITES = {
    "dimension": suite_dimension,
    "fraccalc": suite_fraccalc,
    "frames": suite_frames,
    "multipliers": suite_multipliers,
    "maximal": suite_maximal,
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    return SuiteReport(name, seed, tuple(SUITES[name](seed)))


def run_all(seed: int = 0) -> list[SuiteReport]:
    return [run_suite(name, seed) for name in SUITES]
