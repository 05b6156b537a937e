import math
import warnings

import numpy as np
import pytest

from fracmax.lp_frames import (
    BesovParams,
    GridFunction,
    SmoothCutoff,
    besov_norm,
    dilation_invariance_check,
    grid_from_profile,
    hoelder_besov_ratio,
    hoelder_norm,
    lp_piece,
    partition_defect,
    sigma2_norm,
    sigma2_weighted_sobolev,
)
from fracmax.multipliers import BandBump, Custom, LimitedDecay, SlowDecay, evaluate, scaled

CUT = SmoothCutoff()


def make_grid(fn, extent=8.0, n=8192):
    return grid_from_profile(fn, extent, n)


FIVE_FUNCTIONS = [
    lambda x: np.exp(-(x**2)),
    lambda x: np.exp(-(x**2) / 4) * np.cos(2 * np.pi * 1.5 * x),
    lambda x: np.exp(-((x - 1) ** 2) / 0.5),
    lambda x: 1.0 / (1.0 + x**2),
    lambda x: np.exp(-(x**2) / 2) * np.sin(2 * np.pi * 0.7 * x) + 0.3 * np.exp(-((x + 2) ** 2)),
]


# --- cutoffs -------------------------------------------------------------------


@pytest.mark.parametrize("cut", [CUT], ids=["smooth_exp"])
def test_cutoff_plateau_and_support(cut):
    assert cut.phi(np.array([0.5]))[0] == 1.0
    assert cut.phi(np.array([3.0]))[0] == 0.0
    rho = np.linspace(0.0, 3.0, 3001)
    vals = cut.phi(rho)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert np.all(np.diff(vals) <= 1e-12)  # monotone in |xi|


@pytest.mark.parametrize("cut", [CUT], ids=["smooth_exp"])
def test_bump_nonnegative_with_annular_support(cut):
    rho = np.linspace(0.0, 3.0, 3001)
    psi = cut.psi(rho)
    assert np.all(psi >= -1e-15)
    outside = (rho < 0.5 - 1e-9) | (rho > 2.0 + 1e-9)
    assert np.max(np.abs(psi[outside])) == 0.0


def test_partition_of_unity_to_1e12():
    xi = np.geomspace(2.0**-10, 2.0**10, 4001)
    assert partition_defect(xi) <= 1e-12
    # spot value away from dyadic anchors
    total = sum(CUT.psi_band(np.array([1.37]), j)[0] for j in range(-20, 21))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_profile_derivatives_match_finite_differences():
    r = np.linspace(1.01, 1.99, 23)
    fd1 = (CUT.phi(r + 1e-6) - CUT.phi(r - 1e-6)) / 2e-6
    np.testing.assert_allclose(CUT.phi_d1(r), fd1, atol=1e-8)
    fd2 = (CUT.phi(r + 1e-5) - 2 * CUT.phi(r) + CUT.phi(r - 1e-5)) / 1e-10
    np.testing.assert_allclose(CUT.phi_d2(r), fd2, atol=1e-4)


def test_profile_derivatives_vanish_off_the_shell():
    rho = np.array([0.0, 1.0, 2.0, 3.0, 1e-300, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(CUT.phi_d1(rho) == 0.0) and np.all(CUT.phi_d2(rho) == 0.0)


# --- grid functions --------------------------------------------------------------


def test_grid_roundtrip_and_plancherel():
    g = make_grid(lambda x: np.exp(-(x**2)) * np.exp(2j * np.pi * 3 * x), n=1024)
    back = g.to_frequency().to_space()
    rel = np.max(np.abs(back.samples - g.samples)) / np.max(np.abs(g.samples))
    assert rel <= 1e-12
    assert abs(g.l2_norm() - g.to_frequency().l2_norm()) <= 1e-10 * g.l2_norm()


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(4.0, np.zeros(100, dtype=complex))  # not a power of two
    with pytest.raises(ValueError):
        GridFunction(4.0, np.zeros((64, 64), dtype=complex))  # not 1-d
    with pytest.raises(ValueError):
        GridFunction(-1.0, np.zeros(64, dtype=complex))
    with pytest.raises(ValueError):
        GridFunction(4.0, np.zeros(64, dtype=complex), side="spectral")


# --- Littlewood-Paley pieces -----------------------------------------------------


def test_lp_piece_band_containment():
    # spectrum tightly concentrated at |xi| = 8 passes band 3 up to the taper
    g = make_grid(lambda x: np.exp(-(x**2) / 2) * np.exp(2j * np.pi * 8.0 * x), n=2048)
    piece = lp_piece(g, 3)
    rel = np.max(np.abs(piece.samples - g.samples)) / np.max(np.abs(g.samples))
    assert rel <= 0.05


def test_lp_piece_kills_constants():
    g = grid_from_profile(lambda x: np.full_like(x, 2.5), 8.0, 512)
    for j in (1, 2, 3):
        assert lp_piece(g, j).lp_norm(math.inf) <= 1e-12


def test_lp_piece_band_out_of_range():
    g = make_grid(lambda x: np.exp(-(x**2)), n=256)  # Nyquist = 8
    with pytest.raises(ValueError, match="band out of range"):
        lp_piece(g, 3)


def test_gaussian_band_norms_decay_superalgebraically():
    # Gaussian spectrum with sigma_xi = 8: band ratios must keep shrinking,
    # the signature of faster-than-algebraic decay
    g = grid_from_profile(
        lambda xi: np.exp(-(xi**2) / (2 * 64.0)), 4.0, 8192, side="frequency"
    )
    norms = [lp_piece(g, j).lp_norm(math.inf) for j in range(3, 9)]
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    assert all(r2 <= 0.5 * r1 for r1, r2 in zip(ratios, ratios[1:]))


# --- Besov norms -----------------------------------------------------------------


def test_besov_zero_function():
    g = grid_from_profile(lambda x: np.zeros_like(x), 8.0, 512)
    assert besov_norm(g, BesovParams(2.0, 0.7, j_max=3)) == 0.0


def test_besov_single_band_matches_l2():
    g = make_grid(lambda x: np.exp(-(x**2) / 2) * np.exp(2j * np.pi * 8.0 * x), n=2048)
    band = lp_piece(g, 3)
    norm = besov_norm(band, BesovParams(2.0, 0.0, j_max=5))
    assert norm == pytest.approx(band.l2_norm(), rel=0.05)


def test_besov_smooth_function_close_to_l2():
    g = make_grid(lambda x: np.exp(-(x**2)) * np.cos(2 * np.pi * x), n=4096)
    norm = besov_norm(g, BesovParams(2.0, 0.0, j_max=6))
    assert 0.5 * g.l2_norm() <= norm <= 2.0 * g.l2_norm()


def test_besov_monotone_in_smoothness_for_high_band_functions():
    g = make_grid(lambda x: np.exp(-(x**2)) * np.cos(2 * np.pi * 2.3 * x), n=8192)
    band_limited = lp_piece(g, 2)
    norms = [
        besov_norm(band_limited, BesovParams(2.0, s, j_max=6)) for s in (0.2, 0.5, 1.0, 1.5)
    ]
    assert all(a <= b for a, b in zip(norms, norms[1:]))


def test_besov_integrability_index_must_exceed_one():
    with pytest.raises(ValueError):
        BesovParams(1.0, 0.5)


# --- Hoelder norms ---------------------------------------------------------------


def test_hoelder_norm_constant():
    g = grid_from_profile(lambda x: np.full_like(x, -3.0), 8.0, 512)
    assert hoelder_norm(g, 0, 0.5) == pytest.approx(3.0)


def test_hoelder_norm_matches_analytic_sups():
    L = 8.0
    g = make_grid(lambda x: np.sin(2 * np.pi * x / L) * np.exp(-(x**2) / 8))
    # dense closed-form oracle for sup|f| and the s'=1/2 seminorm
    x = np.linspace(-L, L, 400001)
    f = np.sin(2 * np.pi * x / L) * np.exp(-(x**2) / 8)
    sup_f = np.max(np.abs(f))
    semi = 0.0
    for k in range(11):
        gap = (1 << k) * (2 * L / 8192)
        shift = np.interp(np.clip(x + gap, -L, L), x, f)
        semi = max(semi, float(np.max(np.abs(shift - f)) / gap**0.5))
    oracle = sup_f + semi
    assert hoelder_norm(g, 0, 0.5) == pytest.approx(oracle, rel=0.05)


def test_hoelder_besov_equivalence_factor_eight():
    ratios = [
        hoelder_besov_ratio(make_grid(fn), n, sp)
        for fn in FIVE_FUNCTIONS
        for (n, sp) in [(0, 0.5), (1, 0.3)]
    ]
    assert all(1.0 / 8.0 <= r <= 8.0 for r in ratios), ratios


# --- square-summed band norms ----------------------------------------------------


def test_sigma2_band_bump_three_active_bands():
    res = sigma2_norm(BandBump(), BesovParams(2.0, 0.5), (-4, 4))
    bands = dict(res.bands)
    active = {j for j, v in bands.items() if v > 1e-12}
    assert active == {-1, 0, 1}
    assert math.isfinite(res.total) and res.total > 0


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
def test_sigma2_limited_decay_slope(a):
    r = a - 0.3
    res = sigma2_norm(LimitedDecay(a), BesovParams(2.0, r), (-2, 10))
    bands = dict(res.bands)
    js = np.arange(2, 11)
    slope = np.polyfit(js, np.log2([bands[j] for j in js]), 1)[0]
    assert slope == pytest.approx(r - a, abs=0.1)
    assert bands[-1] == 0.0 and bands[-2] == 0.0


def test_sigma2_constant_multiplier_diverges_with_flag():
    res = sigma2_norm(Custom(lambda r: np.ones_like(r)), BesovParams(2.0, 0.5), (-6, 8))
    bands = [v for _, v in res.bands]
    assert res.stale  # dilation-invariant symbol: constant band norms, sum never settles
    assert np.std(bands) <= 0.02 * np.mean(bands)


def test_sigma2_evaluates_only_the_band_support():
    seen = []

    def record(rho):
        seen.append(np.array(rho))
        return evaluate(LimitedDecay(1.0), rho)

    sigma2_norm(Custom(record), BesovParams(2.0, 0.5), (-2, 4))
    assert len(seen) == 7
    for j, rho in zip(range(-2, 5), seen):
        assert rho.size > 0
        assert np.all((rho >= 2.0 ** (j - 1)) & (rho <= 2.0 ** (j + 1))), j


def test_sigma2_finite_iff_smoothness_below_decay():
    # convergent case: extending the band range moves the total by little;
    # divergent case: the total keeps growing and the staleness flag trips
    a = 1.0
    conv_short = sigma2_norm(LimitedDecay(a), BesovParams(2.0, a - 0.3), (-2, 8)).total
    conv_long = sigma2_norm(LimitedDecay(a), BesovParams(2.0, a - 0.3), (-2, 12)).total
    assert conv_long <= 1.10 * conv_short
    div_short = sigma2_norm(LimitedDecay(a), BesovParams(2.0, a + 0.3), (-2, 8))
    div_long = sigma2_norm(LimitedDecay(a), BesovParams(2.0, a + 0.3), (-2, 12))
    assert div_long.total >= 1.5 * div_short.total
    assert div_long.stale


def test_sigma2_exact_dyadic_reindexing():
    base = sigma2_norm(LimitedDecay(1.0), BesovParams(2.0, 0.5), (-2, 8)).total
    moved = sigma2_norm(scaled(LimitedDecay(1.0), 2.0), BesovParams(2.0, 0.5), (-3, 7)).total
    assert moved == pytest.approx(base, rel=1e-12)


# --- weighted-Sobolev cross-check -------------------------------------------------


@pytest.mark.parametrize("level", [0, 1, 2])
def test_weighted_sobolev_equivalence(level):
    for m in (LimitedDecay(1.5), BandBump(), SlowDecay(1.0, 0.5)):
        ws = sigma2_weighted_sobolev(m, level, (-2, 8))
        s2 = sigma2_norm(m, BesovParams(2.0, float(level)), (-2, 8)).total
        assert 0.25 <= ws / s2 <= 4.0


def test_weighted_sobolev_zero_multiplier():
    from fracmax.multipliers import Custom

    assert sigma2_weighted_sobolev(Custom(lambda r: np.zeros_like(r)), 0, (-2, 4)) == 0.0


def test_sup_besov_embedding_constant():
    worst = 0.0
    for m in (LimitedDecay(1.5), BandBump(), SlowDecay(1.0, 0.5)):
        for alpha in (0.3, 0.5):
            s = 1.0 / 2.0 + alpha + 0.1  # d/p0 + alpha + eps at p0 = 2, d = 1
            lhs = sigma2_norm(m, BesovParams(math.inf, alpha + 0.1), (-2, 6)).total
            rhs = sigma2_norm(m, BesovParams(2.0, s), (-2, 6)).total
            worst = max(worst, lhs / rhs)
    assert worst <= 16.0


# --- dilation invariance -----------------------------------------------------------


def test_dilation_invariance_dyadic_and_generic():
    worst = dilation_invariance_check(LimitedDecay(1.0), [2.0, 1.37, 0.73], BesovParams(2.0, 0.5), (-2, 8))
    assert worst <= 8.0
