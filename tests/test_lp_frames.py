import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracmax.lp_frames import (
    BesovParams,
    GridFunction,
    SmoothCutoff,
    _band_norms,
    _besov_sum,
    besov_norm,
    grid_from_profile,
    hoelder_besov_ratio,
    hoelder_norm,
    lp_piece,
    partition_defect,
)
from fracmax.multipliers import (
    _BAND_MEMO,
    BandBump,
    Custom,
    LimitedDecay,
    Scaled,
    SlowDecay,
    band_memo,
    dilation_invariance_check,
    evaluate,
    sigma2_norm,
    sigma2_weighted_sobolev,
)

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
    total = sum(CUT.psi(np.array([1.37]) / 2.0**j)[0] for j in range(-20, 21))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_profile_derivatives_match_finite_differences():
    r = np.linspace(1.01, 1.99, 23)
    fd1 = (CUT.phi(r + 1e-6) - CUT.phi(r - 1e-6)) / 2e-6
    np.testing.assert_allclose(CUT.phi(r, 1), fd1, atol=1e-8)
    fd2 = (CUT.phi(r + 1e-5) - 2 * CUT.phi(r) + CUT.phi(r - 1e-5)) / 1e-10
    np.testing.assert_allclose(CUT.phi(r, 2), fd2, atol=1e-4)


def test_profile_derivatives_vanish_off_the_shell():
    rho = np.array([0.0, 1.0, 2.0, 3.0, 1e-300, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(CUT.phi(rho, 1) == 0.0) and np.all(CUT.phi(rho, 2) == 0.0)


# --- grid functions --------------------------------------------------------------


def test_grid_roundtrip_and_plancherel():
    g = make_grid(lambda x: np.exp(-(x**2)) * np.exp(2j * np.pi * 3 * x), n=1024)
    back = g.to_frequency().to_space()
    rel = np.max(np.abs(back.samples - g.samples)) / np.max(np.abs(g.samples))
    assert rel <= 1e-12
    assert abs(g.lp_norm(2.0) - g.to_frequency().lp_norm(2.0)) <= 1e-10 * g.lp_norm(2.0)


@pytest.mark.parametrize("side", ["space", "frequency"])
@pytest.mark.parametrize("complex_weights", [False, True], ids=["real", "complex"])
def test_filtered_matches_per_row_inverse_transform(side, complex_weights):
    rng = np.random.default_rng(3)
    n = 256
    g = GridFunction(8.0, rng.standard_normal(n) + 1j * rng.standard_normal(n), side=side)
    weights = rng.standard_normal((3, n))
    if complex_weights:
        weights = weights + 1j * rng.standard_normal((3, n))
    before, given = g.samples.copy(), weights.copy()
    rows = g.filtered(given)
    assert rows.shape == (3, n)
    # complex weights are the output buffer, overwritten and returned; real ones are left as they are
    assert (rows is given) == complex_weights and (complex_weights or np.array_equal(given, weights))
    spec = g.to_frequency()
    for row, w_k in zip(rows, weights):
        ref = replace(spec, samples=spec.samples * w_k, side="frequency").to_space().samples
        np.testing.assert_allclose(row, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
    # filtered works in place on its own buffer, never on the input's samples
    spec.filtered()
    np.testing.assert_array_equal(g.samples, before)
    np.testing.assert_array_equal(spec.filtered(), spec.to_space().samples)


def filtered_phase_after_weights(g, weights):
    """`filtered` with the +-1 phase multiplied into the whole (filters x n) product, after the weights."""
    spec = g.to_frequency()
    out = spec._phase() * (spec.samples if weights is None else weights * spec.samples)
    return np.multiply(np.fft.ifft(out, axis=-1, out=out), spec.dxi * spec.n, out=out)


@pytest.mark.parametrize("n", [1, 2, 4, 2048])
@pytest.mark.parametrize("spectrum", ["random", "zero"])
@pytest.mark.parametrize("weights", [None, "real", "complex", "dilated"])
def test_filtered_keeps_the_bits_of_the_phase_after_the_weights(n, spectrum, weights):
    rng = np.random.default_rng(n)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n) if spectrum == "random" else np.zeros(n, complex)
    g = GridFunction(8.0, samples, side="frequency")
    if weights == "real":
        weights = rng.standard_normal((3, n))
    elif weights == "complex":
        weights = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    elif weights == "dilated":
        weights = evaluate(LimitedDecay(1.0), np.multiply.outer([0.5, 1.0, 1.7], g.freq_radius()))
    want = filtered_phase_after_weights(g, weights)  # first: filtered overwrites complex weights
    got = g.filtered(weights)
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()  # signed zeros too


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
    assert norm == pytest.approx(band.lp_norm(2.0), rel=0.05)


def test_besov_smooth_function_close_to_l2():
    g = make_grid(lambda x: np.exp(-(x**2)) * np.cos(2 * np.pi * x), n=4096)
    norm = besov_norm(g, BesovParams(2.0, 0.0, j_max=6))
    assert 0.5 * g.lp_norm(2.0) <= norm <= 2.0 * g.lp_norm(2.0)


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


@pytest.mark.parametrize("n", [1024, 8192])
@pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
def test_besov_norm_keeps_the_bits_of_the_pieces_over_the_whole_grid(n, p):
    # _band_norms weights each piece on its window only.  Away from p = 2 its norms are those of
    # lp_piece's full-grid product; at p = 2 they are the window's frequency-side Riemann sum, which
    # Plancherel equates with the space-side norm of the piece up to round-off
    rng = np.random.default_rng(n)
    smooth = make_grid(FIVE_FUNCTIONS[4], n=n)
    rough = GridFunction(8.0, rng.standard_normal(n) + 1j * rng.standard_normal(n), side="frequency")
    for g in (smooth, rough):
        params = BesovParams(p, 0.7, j_max=int(math.log2(g.nyquist)) - 1)
        low = GridFunction(g.extent, g.filtered(CUT.phi(g.freq_radius()))).lp_norm(p)
        pieces = [low] + [lp_piece(g, j).lp_norm(p) for j in range(1, params.j_max + 1)]
        norms = _band_norms(g, p, params.j_max)
        if p == 2:
            rho, signed = g.freq_radius(), g._phase() * g.to_frequency().samples
            sums = []
            for j in range(params.j_max + 1):
                window = (rho < 2.0 ** (j + 1)) & (rho > (2.0 ** (j - 1) if j else -1.0))
                weight = CUT.psi(rho / 2.0**j) if j else CUT.phi(rho)
                assert not weight[~window].any()  # the window holds every nonzero weight
                product = weight[window] * signed[window]
                sums.append(float((np.sum(np.abs(product) ** 2) * g.dxi) ** 0.5))
            assert norms == sums
            assert max(abs(a - b) / b for a, b in zip(norms, pieces)) <= 1e-14
            pieces = sums
        assert norms == pieces
        assert besov_norm(g, params) == _besov_sum(pieces, params)


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


def test_sigma2_band_memory_is_bounded():
    # LimitedDecay(1)'s band 12 takes a 2**18-point grid; with the grid's sampling arrays alive through the
    # band's transform the peak was 11.5 grid-sized float arrays
    n = 1 << 18
    tracemalloc.start()
    try:
        res = sigma2_norm(LimitedDecay(1.0), BesovParams(2.0, 0.7), (12, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.bands[0][1] > 0
    assert peak <= 10 * 8 * n


def test_to_frequency_keeps_the_bits_of_the_scaled_transform():
    g = make_grid(FIVE_FUNCTIONS[1], n=4096)
    spec = g.to_frequency()
    assert spec.samples.tobytes() == (g.dx * g._phase() * np.fft.fft(g.samples)).tobytes()
    assert spec.to_frequency() is spec


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


def test_sigma2_flags_bands_beyond_the_besov_ladder():
    # band j of LimitedDecay(1.0) oscillates at 2**j; the default ladder stops at
    # 2**12, so bands 13 and 14 read as round-off and the sum looks settled
    res = sigma2_norm(LimitedDecay(1.0), BesovParams(2.0, 0.7), (-2, 14))
    bands = dict(res.bands)
    assert bands[13] < 1e-12 and bands[14] < 1e-12
    assert res.stale
    # a ladder cut at j_max = 3 misses bands 5 and 6 the same way
    assert sigma2_norm(LimitedDecay(1.0), BesovParams(2.0, 0.2, j_max=3), (-2, 6)).stale
    # inside the ladder only the tail rule decides
    assert not sigma2_norm(LimitedDecay(1.0), BesovParams(2.0, 0.2), (-2, 12)).stale


def test_sigma2_exact_dyadic_reindexing():
    base = sigma2_norm(LimitedDecay(1.0), BesovParams(2.0, 0.5), (-2, 8)).total
    moved = sigma2_norm(Scaled(LimitedDecay(1.0), 2.0), BesovParams(2.0, 0.5), (-3, 7)).total
    assert moved == pytest.approx(base, rel=1e-12)


# --- band memo ------------------------------------------------------------------


@pytest.mark.parametrize("m", [LimitedDecay(1.0), BandBump(), Scaled(LimitedDecay(1.0), 2.0)], ids=repr)
def test_band_memo_gives_the_bits_of_a_fresh_call(m):
    calls = [(BesovParams(p, s), r) for p in (2.0, 2, math.inf) for r in ((-2, 10), (-2, 6)) for s in (0.5, 1.3)]
    calls.append((BesovParams(2.0, 0.5, j_max=4), (-2, 6)))
    fresh = [sigma2_norm(m, params, r) for params, r in calls]
    (params, (lo, hi)), moved = calls[0], Scaled(m, 2.0)
    fresh_moved = sigma2_norm(moved, params, (lo - 1, hi - 1))
    with band_memo():
        memoized = [sigma2_norm(m, params, r) for params, r in calls]
        # band j of m(2 .) samples what band j + 1 of m samples, so the memo serves it by its bytes
        memoized_moved = sigma2_norm(moved, params, (lo - 1, hi - 1))
    assert memoized == fresh  # total, every band and the stale flag, bit for bit
    assert memoized_moved == fresh_moved


def _counting_transforms(monkeypatch):
    calls = {"fft": 0, "ifft": 0}

    def counting(name):
        transform = getattr(np.fft, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    return calls


def test_band_memo_transforms_equal_samples_once_and_zero_bands_never(monkeypatch):
    m, params = LimitedDecay(1.0), BesovParams(2.0, 0.5)
    calls = _counting_transforms(monkeypatch)
    far = sigma2_norm(BandBump(), params, (3, 9))  # the bump's bands vanish beyond j = 1
    assert calls == {"fft": 0, "ifft": 0} and far.total == 0.0 and all(v == 0.0 for _, v in far.bands)
    assert _band_norms(GridFunction(4.0, np.zeros(1024, dtype=complex)), 2.0, 5) == [0.0] * 6
    assert calls == {"fft": 1, "ifft": 0}  # p = 2 reads every piece off the spectrum
    # p = 2: one forward transform per sampled band, and no inverse one; bands below j = -1 sample zeros
    fresh_moved = sigma2_norm(Scaled(m, 2.0), params, (-3, 7))
    assert [j for j, v in fresh_moved.bands if v == 0.0] == [-3, -2]
    assert calls == {"fft": 1 + 9, "ifft": 0}
    # any other p transforms each piece back: j_max + 1 inverse transforms per band
    rough = GridFunction(4.0, np.random.default_rng(3).standard_normal(1024))
    for p in (1.5, math.inf):
        before = dict(calls)
        _band_norms(rough, p, 5)
        assert calls == {"fft": before["fft"] + 1, "ifft": before["ifft"] + 6}
    before = dict(calls)
    sigma2_norm(m, BesovParams(math.inf, 0.5, j_max=4), (0, 2))
    assert calls == {"fft": before["fft"] + 3, "ifft": before["ifft"] + 3 * 5}
    with band_memo():
        start = dict(calls)
        sigma2_norm(m, params, (-2, 8))  # bands -2 and -1 sample zeros
        before = dict(calls)
        assert before == {"fft": start["fft"] + 9, "ifft": start["ifft"]}
        assert sigma2_norm(Scaled(m, 2.0), params, (-3, 7)) == fresh_moved
        assert sigma2_norm(BandBump(), params, (3, 9)) == far
        assert calls == before  # memo hits and zero bands transform nothing


def _counting_custom():
    seen = [0]

    def evaluator(rho):
        seen[0] += np.size(rho)
        return evaluate(LimitedDecay(1.0), rho)

    return Custom(evaluator), seen


def _points_evaluated(m, seen, s):
    before = seen[0]
    sigma2_norm(m, BesovParams(2.0, s), (-2, 4))
    return seen[0] - before


def test_band_memo_skips_sampling_within_its_scope_only():
    m, seen = _counting_custom()
    with band_memo():
        assert _points_evaluated(m, seen, 0.5) > 0
        assert _points_evaluated(m, seen, 0.9) == 0
        with band_memo():  # reentrant: the nested scope shares the outer memo
            assert _points_evaluated(m, seen, 1.3) == 0
        assert _points_evaluated(m, seen, 0.2) == 0
    assert _BAND_MEMO.get() is None
    assert _points_evaluated(m, seen, 0.9) > 0
    assert _points_evaluated(m, seen, 0.9) > 0  # outside the scope nothing is kept


def test_band_memo_is_dropped_when_its_body_raises():
    m, seen = _counting_custom()
    with pytest.raises(RuntimeError):
        with band_memo():
            assert _points_evaluated(m, seen, 0.5) > 0
            raise RuntimeError("body failed")
    assert _BAND_MEMO.get() is None
    assert _points_evaluated(m, seen, 0.9) > 0


def test_band_memo_shares_int_and_float_parameters_bit_for_bit():
    assert LimitedDecay(1) == LimitedDecay(1.0) and hash(LimitedDecay(1)) == hash(LimitedDecay(1.0))
    calls = [(LimitedDecay(1.0), BesovParams(2.0, 0.7)), (LimitedDecay(1), BesovParams(2, 0.7))]
    fresh = [sigma2_norm(m, params, (-2, 6)) for m, params in calls]
    with band_memo():
        memoized = [sigma2_norm(m, params, (-2, 6)) for m, params in calls]
    assert memoized == fresh


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
