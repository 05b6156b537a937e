import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmax.dilation_sets import (
    BlockSet,
    CantorLike,
    DilationSet,
    ExplicitPoints,
    LacunaryGrid,
    PowerSequence,
    UnionSet,
    finite_distance_integral,
)
from fracmax.fractional_calculus import marchaud_matrix
from fracmax.lp_frames import GridFunction
from fracmax.maximal_lab import (
    FUNCTIONS,
    ExperimentConfig,
    GaussianBump,
    ModulatedBump,
    RandomBand,
    _batched_dilate,
    apply_dilated_multiplier,
    build_function,
    build_h_weights,
    config_from_json,
    config_to_json,
    halfwave_convergence,
    halfwave_times,
    domination_ratio,
    maximal_function,
    mm_linf_h_norm,
    nested_sample,
    operator_norm_probe,
    sampled_dilations,
    square_functional,
)
from fracmax.multipliers import BandBump, Custom, LimitedDecay, SlowDecay, evaluate

LAC = DilationSet(LacunaryGrid())
POW_LAC = DilationSet(UnionSet((PowerSequence(1.0), LacunaryGrid())))


def gaussian(n=512, extent=8.0, width=1.0):
    return build_function(GaussianBump(width), n, extent)


# --- dilated application --------------------------------------------------------


def test_identity_symbol_preserves_function():
    f = gaussian()
    out = apply_dilated_multiplier(f, Custom(lambda r: np.ones_like(r)), 1.7)
    np.testing.assert_allclose(out.samples, f.samples, atol=1e-12)


def test_band_aligned_dilation_passes_band_function():
    f = build_function(ModulatedBump(2.0, 2.0), 1024, 8.0)
    from fracmax.lp_frames import lp_piece

    band = lp_piece(f, 1)
    out = apply_dilated_multiplier(band, BandBump(), 2.0**-1)
    rel = np.max(np.abs(out.samples - band.samples)) / np.max(np.abs(band.samples))
    assert rel <= 0.2  # up to the taper of the annular bump


def test_dilated_l2_ratio_follows_symbol_decay():
    # |m(2 xi)| / |m(xi)| = 1/2 on the band carrying the function
    f = build_function(ModulatedBump(2.0, 4.0), 1024, 8.0)
    m = LimitedDecay(1.0)
    spec = f.to_frequency()
    out1 = apply_dilated_multiplier(f, m, 1.0).l2_norm()
    out2 = apply_dilated_multiplier(f, m, 2.0).l2_norm()
    # direct quadrature of |m(t xi) f_hat|^2 as the oracle
    rho = spec.freq_radius()
    for t, measured in ((1.0, out1), (2.0, out2)):
        oracle = math.sqrt(
            float(np.sum(np.abs(evaluate(m, t * rho) * spec.samples) ** 2) * spec.dxi)
        )
        assert measured == pytest.approx(oracle, rel=1e-10)
    assert out2 / out1 == pytest.approx(0.5, abs=0.05)


def test_dilation_parameter_must_be_positive():
    with pytest.raises(ValueError):
        apply_dilated_multiplier(gaussian(), BandBump(), 0.0)


# --- sampling -------------------------------------------------------------------


def test_nested_sampling_is_nested_and_covering():
    pts = np.sort(1.0 + np.random.default_rng(5).random(400))
    prev = set()
    for depth in range(2, 8):
        now = set(nested_sample(pts, depth).tolist())
        assert prev <= now
        prev = now
    sample = nested_sample(pts, 4)
    assert sample[0] == pts[0] and sample[-1] == pts[-1]
    assert np.max(np.diff(sample)) <= 3.0 / 16.0  # value coverage at depth 4


def _nested_sample_loop(points, depth):
    """The per-target loop nested_sample replaced: nearest block point, a tie to the one below."""
    n = points.size
    targets = 1.0 + np.arange((1 << depth) + 1) / float(1 << depth)
    snap = []
    for t, i in zip(targets, np.searchsorted(points, targets)):
        best = None
        for k in (i - 1, i):
            if 0 <= k < n and (best is None or abs(points[k] - t) < abs(points[best] - t)):
                best = k
        snap.append(best)
    ladder = [0, n - 1]
    for k in range(depth + 1):
        ladder += [min(1 << k, n - 1), max(n - 1 - (1 << k), 0)]
    return points[np.unique(np.array(snap + ladder, dtype=int))]


@pytest.mark.parametrize("n", [1, 2, 5, 400])
def test_nested_sample_matches_loop_reference(n):
    # on the evenly spaced points some targets lie exactly midway between two neighbours
    for pts in (np.sort(1.0 + np.random.default_rng(n).random(n)), np.linspace(1.0, 2.0, 4 * n + 1)):
        for depth in range(0, 7):
            np.testing.assert_array_equal(nested_sample(pts, depth), _nested_sample_loop(pts, depth))


def test_sampled_dilations_augmentation():
    plain = sampled_dilations(DilationSet(ExplicitPoints((1.3,))), (0, 0), 3)
    assert plain[0].tolist() == [1.3]
    aug = sampled_dilations(DilationSet(ExplicitPoints((1.3,))), (0, 0), 3, augment=True)
    assert set(aug[0].tolist()) == {1.0, 1.3, 2.0}


# --- maximal function -----------------------------------------------------------


def test_singleton_set_reduces_to_plain_operator():
    f = gaussian()
    single = DilationSet(ExplicitPoints((1.0,)))
    direct = apply_dilated_multiplier(f, BandBump(), 1.0)
    sup, increment = maximal_function(f, BandBump(), single, 4, (0, 0))
    np.testing.assert_allclose(sup.samples.real, np.abs(direct.samples), atol=1e-13)
    assert increment == 0.0


def test_plancherel_contraction_singleton():
    f = gaussian()
    single = DilationSet(ExplicitPoints((1.0,)))
    sup, _ = maximal_function(f, BandBump(), single, 4, (0, 0))
    l2 = math.sqrt(float(np.sum(sup.samples.real**2) * sup.dx))
    assert l2 <= f.l2_norm() + 1e-10  # sup|m| = 1 for the annular bump


def test_maximal_monotone_under_set_inclusion():
    f = gaussian()
    small = DilationSet(ExplicitPoints((1.0, 1.5)))
    large = DilationSet(ExplicitPoints((1.0, 1.25, 1.5, 1.75)))
    s1, _ = maximal_function(f, LimitedDecay(1.0), small, 4, (0, 0))
    s2, _ = maximal_function(f, LimitedDecay(1.0), large, 4, (0, 0))
    assert np.all(s2.samples.real >= s1.samples.real - 1e-15)


def test_maximal_depth_refinement_settles():
    f = gaussian(n=1024)
    sup_a, _ = maximal_function(f, BandBump(), LAC, 4, (-3, 4))
    sup_b, inc = maximal_function(f, BandBump(), LAC, 5, (-3, 4))
    l2 = math.sqrt(float(np.sum(sup_b.samples.real**2) * sup_b.dx))
    delta = math.sqrt(float(np.sum((sup_b.samples.real - sup_a.samples.real) ** 2) * sup_b.dx))
    assert delta <= 0.02 * l2
    assert inc <= 0.02


def test_maximal_block_of_repeated_dilations_is_skipped():
    # block 1 of {1 + 1/n} holds only the dilation 2, already seen in block 0
    f = gaussian(n=256)
    E = DilationSet(PowerSequence(1.0))
    sup, inc = maximal_function(f, BandBump(), E, 3, (0, 1))
    sup0, inc0 = maximal_function(f, BandBump(), E, 3, (0, 0))
    np.testing.assert_array_equal(sup.samples, sup0.samples)
    assert inc == inc0


def test_maximal_empty_window_raises():
    f = gaussian()
    with pytest.raises(ValueError, match="empty dilation sampling"):
        maximal_function(f, BandBump(), DilationSet(ExplicitPoints((7.0,))), 3, (10, 11))


def test_maximal_matches_per_dilation_reference():
    # several dilations, against the per-dilation spectral product as the reference
    n, extent = 64, 4.0
    x = -extent + (2 * extent / n) * np.arange(n)
    f = GridFunction(extent, np.exp(-(x**2)) * np.exp(2j * np.pi * 2.0 * x))
    E, m = DilationSet(ExplicitPoints((1.0, 1.3, 1.7))), LimitedDecay(1.0)
    sup, _ = maximal_function(f, m, E, 2, (-1, 0))
    spec = f.to_frequency()
    ts = [2.0**j * t for j, pts in sampled_dilations(E, (-1, 0), 2).items() for t in pts]
    assert len(ts) >= 3

    def dilated(t):
        masked = spec.samples * evaluate(m, t * spec.freq_radius())
        return np.abs(replace(spec, samples=masked, side="frequency").to_space().samples)

    np.testing.assert_allclose(sup.samples.real, np.max([dilated(t) for t in ts], axis=0), atol=1e-13)


# --- H weights -------------------------------------------------------------------


def test_h_weights_match_closed_form_distance_integral():
    blocks = sampled_dilations(POW_LAC, (-2, 3), 5, augment=True)
    weights = build_h_weights(blocks, 0.3)
    for hb in weights:
        exact = finite_distance_integral(BlockSet(hb.j, blocks[hb.j]), 0.6)
        assert np.sum(hb.weights) == pytest.approx(exact, rel=1e-6)
        assert np.all(hb.weights >= 0)
        assert np.all((hb.nodes >= 1.0) & (hb.nodes <= 2.0))


def test_h_weights_sup_over_blocks_finite_above_dimension():
    # 2 beta = 0.6 above the set's dimension 1/2: block sums stay bounded
    blocks = sampled_dilations(POW_LAC, (-6, 6), 8, augment=True)
    weights = build_h_weights(blocks, 0.3)
    sums = [np.sum(hb.weights) for hb in weights]
    assert max(sums) <= 20.0


def test_h_weights_exponent_validation():
    blocks = sampled_dilations(LAC, (0, 0), 2, augment=True)
    with pytest.raises(ValueError):
        build_h_weights(blocks, 0.5)


# --- square functional -------------------------------------------------------------


def test_square_functional_zero_inputs():
    f = GridFunction(8.0, np.zeros(256, dtype=complex))
    res = square_functional(f, BandBump(), LAC, 0.45, 0.3, sampling_depth=3, j_range=(-2, 2))
    assert np.all(res.values.samples.real == 0)
    g = gaussian(n=256)
    res2 = square_functional(
        g, Custom(lambda r: np.zeros_like(r)), LAC, 0.45, 0.3, sampling_depth=3, j_range=(-2, 2)
    )
    assert np.max(res2.values.samples.real) <= 1e-20


def test_square_functional_matches_dense_brute_force():
    f = build_function(ModulatedBump(1.0, 2.0), 512, 8.0)
    alpha, beta = 0.45, 0.3
    res = square_functional(
        f, BandBump(), LAC, alpha, beta, sampling_depth=3, j_range=(-2, 3), s_resolution=128
    )
    vals = res.values.samples.real
    spec = f.to_frequency()
    blocks = sampled_dilations(LAC, (-2, 3), 3, augment=True)
    acc = np.zeros(f.n)
    for j, pts in blocks.items():
        sd = np.linspace(0.0, 2.0, 1281)  # ten times the base resolution
        paths = _batched_dilate(spec, BandBump(), 2.0**j * sd)
        deriv = marchaud_matrix(sd, alpha, exponent=1.0) @ paths
        s_int = sd[1:]
        sel = (s_int >= 1.0) & (s_int <= 2.0)
        dist = np.min(np.abs(s_int[sel][:, None] - pts[None, :]), axis=1)
        keep = dist > 1e-12
        acc += (sd[1] - sd[0]) * (
            dist[keep] ** (2 * beta - 1.0) @ np.abs(deriv[sel][keep]) ** 2
        )
    assert np.max(np.abs(vals - acc)) <= 0.05 * np.max(acc)
    assert vals[f.n // 2] > 1e3 * vals[5]  # concentrated where f lives


def test_square_functional_validates_exponents():
    with pytest.raises(ValueError):
        square_functional(gaussian(n=256), BandBump(), LAC, 0.3, 0.45)


# --- lemma ratio experiment ----------------------------------------------------------


def test_domination_ratio_stability_small_config():
    config = ExperimentConfig(
        E=POW_LAC,
        m=BandBump(),
        f=GaussianBump(1.0),
        alpha=0.45,
        beta=0.3,
        n=512,
        extent=8.0,
        j_range=(-2, 3),
        depth=3,
        s_resolution=96,
    )
    report = domination_ratio(config)
    assert math.isfinite(report.max_ratio) and report.max_ratio > 0
    assert report.flagged_pixels == 0
    assert report.stable


def test_domination_zero_function_trivially_passes():
    config = ExperimentConfig(
        E=LAC,
        m=Custom(lambda r: np.zeros_like(r)),
        f=GaussianBump(1.0),
        n=256,
        j_range=(-2, 2),
        depth=2,
        s_resolution=64,
    )
    report = domination_ratio(config)
    assert report.excluded_pixels == 256
    assert np.all(np.isnan(report.ratios))


def test_domination_histogram_csv():
    config = ExperimentConfig(
        E=LAC,
        m=BandBump(),
        f=GaussianBump(1.0),
        n=256,
        j_range=(-2, 2),
        depth=2,
        s_resolution=64,
    )
    hist = domination_ratio(config).histogram(bins=8)
    lines = hist.splitlines()
    assert lines[0] == "lo,hi,count" and len(lines) == 9


# --- H-norm bound -----------------------------------------------------------------


def test_mm_linf_h_norm_suite():
    xi_samples = np.geomspace(0.25, 64.0, 25)
    for m in (BandBump(), LimitedDecay(1.0), SlowDecay(1.0, 0.5)):
        for E in (POW_LAC, LAC):
            for beta in (0.25, 0.35):
                ratio = mm_linf_h_norm(m, E, beta, xi_samples, j_range=(-4, 4), depth=6)
                assert ratio <= 16.0, (type(m).__name__, beta, ratio)


def test_mm_linf_h_norm_zero_multiplier():
    ratio = mm_linf_h_norm(Custom(lambda r: np.zeros_like(r)), LAC, 0.3, np.array([1.0, 2.0]), j_range=(-2, 2))
    assert ratio == 0.0


# --- operator norm probing -----------------------------------------------------------


def test_probe_zero_multiplier():
    config = ExperimentConfig(
        E=LAC, m=Custom(lambda r: np.zeros_like(r)), f=GaussianBump(1.0), n=256,
        j_range=(-2, 2), depth=2,
    )
    assert operator_norm_probe(config, trials=1).lower_bound == 0.0


def test_probe_singleton_band_bump_bounded_by_one():
    config = ExperimentConfig(
        E=DilationSet(ExplicitPoints((1.0,))),
        m=BandBump(),
        f=GaussianBump(1.0),
        n=512,
        j_range=(0, 0),
        depth=2,
    )
    report = operator_norm_probe(config, trials=3)
    assert report.lower_bound <= 1.0 + 1e-10


def test_probe_monotone_in_set():
    base = dict(m=LimitedDecay(1.0), f=GaussianBump(1.0), n=512, j_range=(0, 0), depth=3)
    small = operator_norm_probe(
        ExperimentConfig(E=DilationSet(ExplicitPoints((1.0, 1.5))), **base), trials=2
    )
    large = operator_norm_probe(
        ExperimentConfig(E=DilationSet(ExplicitPoints((1.0, 1.25, 1.5, 1.75))), **base), trials=2
    )
    assert large.lower_bound >= small.lower_bound - 1e-12


def test_probe_regularity_sweep_recorded():
    config = ExperimentConfig(
        E=LAC, m=BandBump(), f=GaussianBump(1.0), n=256, j_range=(-1, 1), depth=2
    )
    report = operator_norm_probe(config, trials=1, regularity_grid=(0.5, 1.0, 1.5))
    assert len(report.regularity_sweep) == 3
    assert all(v >= 0 for _, v in report.regularity_sweep)


# --- half-wave convergence ------------------------------------------------------------


def test_halfwave_single_mode_slope_one():
    n, extent = 1024, 8.0
    x = -extent + (2 * extent / n) * np.arange(n)
    xi0 = 2.0
    f = GridFunction(extent, np.exp(2j * np.pi * xi0 * x))
    times = np.geomspace(1e-4, 1e-3, 8) / (2 * np.pi * xi0) ** 0.5
    report = halfwave_convergence(f, 0.5, 0.4, times)
    assert report.beta_fit == pytest.approx(1.0, abs=0.02)


def test_halfwave_gaussian_along_power_sequence():
    times = halfwave_times(DilationSet(PowerSequence(1.0)), 1.0 / 40, 0.35)
    report = halfwave_convergence(gaussian(n=1024), 0.5, 0.4, times)
    assert report.beta_fit >= 0.3


def test_halfwave_times_extraction():
    lac_times = halfwave_times(LAC, 0.01, 0.5)
    assert set(lac_times.tolist()) == {2.0**-k for k in range(1, 7)}
    with pytest.raises(ValueError):
        halfwave_convergence(gaussian(n=256), 0.5, 0.4, np.array([0.1, 0.2]))


# --- config wire format -----------------------------------------------------------------


def test_config_json_roundtrip():
    config = ExperimentConfig(
        E=POW_LAC,
        m=LimitedDecay(1.0),
        f=ModulatedBump(1.5, 3.0),
        alpha=0.4,
        beta=0.25,
        n=512,
        depth=3,
        seed=11,
    )
    payload = json.loads(json.dumps(config_to_json(config)))
    back = config_from_json(payload)
    assert back == config
    # the test-function codec: extra keys (smoothness among them) are ignored,
    # an unknown kind is a ValueError and a missing field a KeyError
    assert FUNCTIONS.from_json({"kind": "gaussian_bump", "width": 2, "smoothness": 0.1}) == GaussianBump(2.0)
    assert FUNCTIONS.to_json(RandomBand(3, 7)) == {"kind": "random_band", "band": 3, "seed": 7}
    with pytest.raises(ValueError, match="unknown test function 'nope'"):
        FUNCTIONS.from_json({"kind": "nope"})
    with pytest.raises(KeyError):
        FUNCTIONS.from_json({"kind": "modulated_bump", "width": 1.0})


def test_function_parameters_checked():
    for make in (lambda: GaussianBump(0.0), lambda: ModulatedBump(-1.0, 2.0), lambda: RandomBand(1, -1)):
        with pytest.raises(ValueError):
            make()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_WIDTH = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(
    st.one_of(
        st.builds(GaussianBump, _WIDTH),
        st.builds(ModulatedBump, _WIDTH, _FINITE),
        st.builds(RandomBand, st.integers(), st.integers(min_value=0)),
    )
)
def test_function_wire_roundtrip(f):
    assert FUNCTIONS.from_json(json.loads(json.dumps(FUNCTIONS.to_json(f)))) == f


def test_set_json_roundtrip_nested_union():
    payload = {
        "generator": {
            "kind": "union",
            "members": [
                {"kind": "power_sequence", "a": 0.5},
                {"kind": "cantor", "base": 3, "digits": [0, 2], "levels": 4},
                {"kind": "lacunary"},
            ],
        },
        "cap": 50_000,
    }
    E = DilationSet.from_json(payload)
    assert E.materialization_cap == 50_000
    assert E.to_json() == payload
    # explicit points, the default cap, and int-valued numbers echoed as floats
    members = [{"kind": "explicit", "points": [3, 1.5]}, {"kind": "power_sequence", "a": 1}]
    E = DilationSet.from_json({"generator": {"kind": "union", "members": members}})
    assert E == DilationSet(UnionSet((ExplicitPoints((1.5, 3.0)), PowerSequence(1.0))))
    assert json.dumps(E.to_json(), sort_keys=True) == (
        '{"cap": 1000000, "generator": {"kind": "union", "members": ['
        '{"kind": "explicit", "points": [1.5, 3.0]}, {"a": 1.0, "kind": "power_sequence"}]}}'
    )
    # Cantor base and levels are coerced to int, digits stay as given; extra keys are ignored
    cantor = {"kind": "cantor", "base": 3.0, "digits": [2.0, 0.0], "levels": 2, "note": "x"}
    E = DilationSet.from_json({"generator": cantor})
    assert E.generator == CantorLike(3, (0, 2), 2)
    assert json.dumps(E.to_json()["generator"], sort_keys=True) == (
        '{"base": 3, "digits": [0.0, 2.0], "kind": "cantor", "levels": 2}'
    )
    with pytest.raises(ValueError, match="unknown set kind 'sierpinski'"):
        DilationSet.from_json({"generator": {"kind": "sierpinski"}})
    with pytest.raises(ValueError, match="unknown set kind None"):
        DilationSet.from_json({"generator": {"a": 1.0}})
    with pytest.raises(KeyError):
        DilationSet.from_json({"generator": {"kind": "power_sequence"}})
    with pytest.raises(KeyError):
        DilationSet.from_json({"cap": 10})
    # a JSON string is not a list of points, and Cantor digits must be integers
    with pytest.raises(TypeError, match="expected a list, got str"):
        DilationSet.from_json({"generator": {"kind": "explicit", "points": "12"}})
    with pytest.raises(ValueError, match="digits must be"):
        DilationSet.from_json({"generator": {"kind": "cantor", "base": 3, "digits": [0.5, 2], "levels": 2}})
