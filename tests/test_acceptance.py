"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import json
import math
import time

import numpy as np
import pytest

from fracmax import dilation_sets as ds
from fracmax import fractional_calculus as fc
from fracmax import lp_frames as lp
from fracmax import maximal_lab as ml
from fracmax import multipliers as mu

KAPPA_SCHED = ds.geometric_schedule(0.07, 0.7e-6, 9)


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_kappa_power_sequences():
    worst_err, worst_dt = 0.0, 0.0
    for a in (1.0, 0.5, 2.0):
        t0 = time.monotonic()
        est = ds.kappa(ds.DilationSet(ds.PowerSequence(a)), KAPPA_SCHED, (-2, 3))
        dt = time.monotonic() - t0
        worst_err = max(worst_err, abs(est.value - 1.0 / (1.0 + a)))
        worst_dt = max(worst_dt, dt)
    ok = worst_err <= 0.05 and worst_dt < 10.0
    report(1, ok, f"kappa error {worst_err:.4f} (<=0.05), slowest {worst_dt:.2f}s (<10s)")


def test_criterion_02_cantor_dimension():
    t0 = time.monotonic()
    block = ds.rescaled_block(ds.DilationSet(ds.CantorLike(3, (0, 2), 12)), 0)
    est = ds.minkowski_dimension(block, np.array([3.0**-k for k in range(2, 11)]))
    dt = time.monotonic() - t0
    err = abs(est.value - math.log(2) / math.log(3))
    ok = err <= 0.03 and dt < 5.0
    report(2, ok, f"level-12 box dimension error {err:.4f} (<=0.03) in {dt:.2f}s (<5s)")


def test_criterion_03_dimension_lemma_two_sided():
    t0 = time.monotonic()
    sched = ds.geometric_schedule(0.35, 0.7e-5, 40)
    suite = {
        "two_point": ds.BlockSet(0, np.array([1.0, 2.0])),
        "cantor6": ds.rescaled_block(ds.DilationSet(ds.CantorLike(3, (0, 2), 6)), 0),
        "cantor9": ds.rescaled_block(ds.DilationSet(ds.CantorLike(3, (0, 2), 9)), 0),
        "cantor12": ds.rescaled_block(ds.DilationSet(ds.CantorLike(3, (0, 2), 12)), 0),
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
    cases = 0
    for block in suite.values():
        for rep in ds.dimension_bound_check(block, (0.3, 0.5, 0.7), sched, constant=10.0):
            worst = max(worst, rep.ratio_left, rep.ratio_right)
            cases += 1
    dt = time.monotonic() - t0
    ok = worst <= 10.0 and cases == 30 and dt < 30.0
    report(3, ok, f"{cases} cases, worst ratio {worst:.2f} (<=10) in {dt:.1f}s (<30s)")


def test_criterion_04_sequence_corollary():
    flips_ok = True
    worst_flip = 0.0
    for a_seq in (0.5, 1.0, 2.0):
        gaps = ds.sequence_gaps(lambda n: 1.0 + n**-a_seq)
        lo, hi = 0.05, 0.98
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            if ds.gap_sum_converges(gaps, mid):
                hi = mid
            else:
                lo = mid
        err = abs(0.5 * (lo + hi) - 1.0 / (1.0 + a_seq))
        worst_flip = max(worst_flip, err)
        flips_ok = flips_ok and err <= 0.05
    sched = ds.geometric_schedule(0.5, 1e-5, 21)
    lorentz_ok, worst_bound = True, 0.0
    for r in (0.5, 1.0, 2.0):
        res = ds.lorentz_membership(lambda n, rr=r: n ** (-1.0 / rr), r, sched)
        lorentz_ok = lorentz_ok and res.verdict and res.bound <= 2.0
        worst_bound = max(worst_bound, res.bound)
    dims_ok, worst_dim = True, 0.0
    for r in (0.5, 1.0, 2.0):
        block = ds.rescaled_block(ds.DilationSet(ds.PowerSequence(1.0 / r)), 0)
        err = abs(ds.minkowski_dimension(block, KAPPA_SCHED).value - r / (1.0 + r))
        worst_dim = max(worst_dim, err)
        dims_ok = dims_ok and err <= 0.05
    ok = flips_ok and lorentz_ok and dims_ok
    report(
        4,
        ok,
        f"flip error {worst_flip:.3f} (<=0.05), weak-type bound {worst_bound:.2f} (<=2), "
        f"dimension error {worst_dim:.3f} (<=0.05)",
    )


def test_criterion_05_fractional_calculus():
    grid8 = np.linspace(0.0, 2.0, 8193)
    grid4 = np.linspace(0.0, 2.0, 4097)
    worst_rt = 0.0
    for alpha in (0.25, 0.5, 0.75):
        worst_rt = max(worst_rt, fc.roundtrip_residual(fc.SampledPath(grid4, grid4**2), alpha))
        worst_rt = max(
            worst_rt,
            fc.roundtrip_residual(fc.SampledPath(grid8, np.sin(2 * np.pi * grid8)), alpha),
        )
    worst_pl = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for beta in (1, 2, 3):
            deriv = fc.marchaud_derivative(fc.SampledPath(grid8, grid8 ** float(beta)), alpha)
            exact = math.gamma(beta + 1) / math.gamma(beta + 1 - alpha) * deriv.grid ** (beta - alpha)
            worst_pl = max(worst_pl, float(np.max(np.abs(deriv.values - exact)) / np.max(np.abs(exact))))
    resc = max(
        fc.rescaled_derivative_check(lambda t: t, 1, 0.3, 65),
        fc.rescaled_derivative_check(lambda t: t**2, 2, 0.5, 65, n_grid=16384),
    )
    residuals = [
        fc.roundtrip_residual(
            fc.SampledPath(np.linspace(0.0, 2.0, n + 1), np.linspace(0.0, 2.0, n + 1) ** 2), 0.5
        )
        for n in (512, 1024, 2048, 4096, 8192)
    ]
    halves = all(fine <= coarse / 2.0 for coarse, fine in zip(residuals, residuals[1:]))
    ok = worst_rt <= 1e-3 and worst_pl <= 1e-4 and resc <= 1e-5 and halves
    report(
        5,
        ok,
        f"roundtrip {worst_rt:.2e} (<=1e-3), power law {worst_pl:.2e} (<=1e-4), "
        f"rescaled {resc:.2e} (<=1e-5), halving={halves}",
    )


def test_criterion_06_sigma2_band_slopes():
    worst = 0.0
    zeros_ok = True
    for a in (0.5, 1.0, 1.5):
        r = a - 0.3
        res = mu.sigma2_norm(mu.LimitedDecay(a), lp.BesovParams(2.0, r), (-2, 10))
        bands = dict(res.bands)
        js = np.arange(2, 11)
        slope = float(np.polyfit(js, np.log2([bands[j] for j in js]), 1)[0])
        worst = max(worst, abs(slope - (r - a)))
        zeros_ok = zeros_ok and bands[-1] == 0.0 and bands[-2] == 0.0
    ok = worst <= 0.1 and zeros_ok
    report(6, ok, f"slope error {worst:.3f} (<=0.1), negative bands exactly zero: {zeros_ok}")


def test_criterion_07_oscillatory_decay_profile():
    prof = mu.decay_profile(mu.Oscillatory(0.5, 1.0), (3, 10), 1)
    err = abs(prof[1] - (-1.5))
    ok = err <= 0.1
    report(7, ok, f"first-derivative slope {prof[1]:.3f} vs -1.5, error {err:.3f} (<=0.1)")


def test_criterion_08_domination_ratio_stability():
    sets = {
        "lacunary": ds.DilationSet(ds.LacunaryGrid()),
        "power+lacunary": ds.DilationSet(ds.UnionSet((ds.PowerSequence(1.0), ds.LacunaryGrid()))),
    }
    mults = {"band_bump": mu.BandBump(), "limited_decay": mu.LimitedDecay(1.0)}
    worst_change, worst_dt = 0.0, 0.0
    all_finite = True
    for E in sets.values():
        for m in mults.values():
            config = ml.Domination(
                set=E,
                multiplier=m,
                f=ml.GaussianBump(1.0),
                alpha=0.45,
                beta=0.3,
                n=1024,
                extent=8.0,
                j_range=(-3, 4),
                depth=4,
            )
            t0 = time.monotonic()
            rep = ml.domination_ratio(config)
            worst_dt = max(worst_dt, time.monotonic() - t0)
            worst_change = max(worst_change, rep.relative_change)
            all_finite = all_finite and math.isfinite(rep.max_ratio) and rep.max_ratio > 0
    ok = all_finite and worst_change < 0.10 and worst_dt < 300.0
    report(
        8,
        ok,
        f"ratios finite={all_finite}, worst refinement change {worst_change:.2%} (<10%), "
        f"slowest config {worst_dt:.1f}s (<300s)",
    )


def test_criterion_09_h_norm_bound():
    xi_samples = np.geomspace(0.25, 64.0, 25)
    pow_lac = ds.DilationSet(ds.UnionSet((ds.PowerSequence(1.0), ds.LacunaryGrid())))
    lac = ds.DilationSet(ds.LacunaryGrid())
    worst, cases = 0.0, 0
    for m in (mu.BandBump(), mu.LimitedDecay(1.0), mu.SlowDecay(1.0, 0.5)):
        for E in (pow_lac, lac):
            for beta in (0.25, 0.35):
                worst = max(worst, ml.mm_linf_h_norm(m, E, beta, xi_samples, j_range=(-4, 4), depth=6))
                cases += 1
    ok = worst <= 16.0 and cases == 12
    report(9, ok, f"{cases} cases, worst H-norm ratio {worst:.2f} (<=16)")


def test_criterion_10_embedding_lemma():
    suite = [
        (mu.BandBump(), 1.0),
        (mu.LimitedDecay(1.5), 0.5),
        (mu.LimitedDecay(1.0), 0.3),
        (mu.Oscillatory(0.5, 1.0), 0.3),
        (mu.SlowDecay(1.0, 0.5), 0.3),
    ]
    worst = 0.0
    for alpha, eps in ((0.3, 0.1), (0.5, 0.1)):
        for m, s in suite:
            ratio = mu.embedding_check(m, alpha, eps, 2.0, s, (-2, 6))
            worst = max(worst, ratio)
    ok = worst <= 32.0
    report(10, ok, f"worst transform/base ratio {worst:.2f} (<=32)")


def test_criterion_11_halfwave_rates():
    t0 = time.monotonic()
    n, extent = 1024, 8.0
    x = -extent + (2 * extent / n) * np.arange(n)
    mode = lp.GridFunction(extent, np.exp(2j * np.pi * 2.0 * x))
    times = np.geomspace(1e-4, 1e-3, 8) / (2 * np.pi * 2.0) ** 0.5
    slope = ml.halfwave_convergence(mode, 0.5, times).beta_fit
    gauss = ml.build_function(ml.GaussianBump(1.0), 1024, 8.0)
    seq_times = ml.halfwave_times(ds.DilationSet(ds.PowerSequence(1.0)), 1.0 / 40, 0.35)
    beta_fit = ml.halfwave_convergence(gauss, 0.5, seq_times).beta_fit
    dt = time.monotonic() - t0
    ok = abs(slope - 1.0) <= 0.02 and beta_fit >= 0.3 and dt < 60.0
    report(
        11,
        ok,
        f"single-mode slope {slope:.4f} (1+-0.02), sequence rate {beta_fit:.3f} (>=0.3) in {dt:.1f}s (<60s)",
    )


def test_criterion_12_frame_sanity():
    xi = np.geomspace(2.0**-10, 2.0**10, 4001)
    defect = lp.partition_defect(xi)
    g = lp.grid_from_profile(lambda x: np.exp(-(x**2)) * np.exp(2j * np.pi * 3 * x), 8.0, 1024)
    plancherel = abs(g.lp_norm(2.0) - g.to_frequency().lp_norm(2.0)) / g.lp_norm(2.0)
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
    equiv_ok = all(1.0 / 8.0 <= r <= 8.0 for r in ratios)
    ok = defect <= 1e-12 and plancherel <= 1e-10 and equiv_ok
    report(
        12,
        ok,
        f"partition defect {defect:.1e} (<=1e-12), Plancherel {plancherel:.1e} (<=1e-10), "
        f"Hoelder-Besov in [1/8,8]: {equiv_ok}",
    )


def test_criterion_13_verify_all_deterministic(verify_all_twice):
    # the two `verify --suite all --seed 0` runs are shared with test_cli (see conftest.py)
    run1, run2 = verify_all_twice
    code1, dt1, first = run1.code, run1.seconds, run1.report
    code2, dt2, second = run2.code, run2.seconds, run2.report
    payload = json.loads(first)
    ok = (
        code1 == 0
        and code2 == 0
        and dt1 < 900.0
        and dt2 < 900.0
        and first == second
        and payload["all_passed"]
    )
    report(
        13,
        ok,
        f"verify all exit {code1}, {dt1:.0f}s (<900s), rerun byte-identical: {first == second}",
    )
