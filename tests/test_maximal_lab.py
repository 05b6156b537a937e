import json
import math
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracmax.maximal_lab as ml
from fracmax.dilation_sets import (
    BlockSet,
    CantorLike,
    DilationSet,
    ExplicitPoints,
    LacunaryGrid,
    PowerSequence,
    UnionSet,
    augmented,
    distance_integral,
)
from fracmax.fractional_calculus import marchaud_matrix
from fracmax.lp_frames import GridFunction
from fracmax.maximal_lab import (
    EXPERIMENTS,
    FUNCTIONS,
    Domination,
    GaussianBump,
    Halfwave,
    ModulatedBump,
    Probe,
    RandomBand,
    _batched_dilate,
    _path_hoelder_ok,
    build_function,
    build_h_weights,
    halfwave_convergence,
    halfwave_times,
    domination_ratio,
    maximal_function,
    mm_linf_h_norm,
    nested_sample,
    sampled_dilations,
    square_functional,
)
from fracmax.multipliers import BandBump, Custom, LimitedDecay, Oscillatory, Scaled, SlowDecay, band_sup_norm, evaluate
from fracmax.wire import to_wire

from conftest import apply_dilated_multiplier

LAC = DilationSet(LacunaryGrid())
POW_LAC = DilationSet(UnionSet((PowerSequence(1.0), LacunaryGrid())))
DENSE = DilationSet(UnionSet((PowerSequence(0.5), ExplicitPoints(tuple(np.geomspace(0.3, 3.0, 4000))))))


def family_id(m) -> str:
    """A multiplier's repr as its test id, but a Custom's is its type alone: a lambda's repr holds its address."""
    return "Custom" if isinstance(m, Custom) else repr(m)


def gaussian(n=512, extent=8.0, width=1.0):
    return build_function(GaussianBump(width), n, extent)


def test_modulated_bump_is_the_gaussian_times_its_modulation():
    width, freq, n, extent = 1.5, 2.25, 256, 8.0
    x = GridFunction(extent, np.zeros(n)).x_axis()
    exact = np.exp(-(x**2) / (2 * width**2)) * np.exp(2j * np.pi * freq * x)
    samples = build_function(ModulatedBump(width, freq), n, extent).samples
    np.testing.assert_allclose(samples, exact, rtol=1e-12, atol=1e-15)


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
    out1 = apply_dilated_multiplier(f, m, 1.0).lp_norm(2.0)
    out2 = apply_dilated_multiplier(f, m, 2.0).lp_norm(2.0)
    # direct quadrature of |m(t xi) f_hat|^2 as the oracle
    rho = spec.freq_radius()
    for t, measured in ((1.0, out1), (2.0, out2)):
        oracle = math.sqrt(
            float(np.sum(np.abs(evaluate(m, t * rho) * spec.samples) ** 2) * spec.dxi)
        )
        assert measured == pytest.approx(oracle, rel=1e-10)
    assert out2 / out1 == pytest.approx(0.5, abs=0.05)


def full_spectrum_dilate(f, m, ts):
    """T_{m(t .)} f with m evaluated at every frequency, negative ones included."""
    return f.filtered(evaluate(m, np.multiply.outer(ts, f.freq_radius())))


@pytest.mark.parametrize("n", [1, 2, 4, 2048])
@pytest.mark.parametrize(
    "m",
    [
        LimitedDecay(1.0),
        SlowDecay(1.0, 0.5),
        Oscillatory(0.5, 0.7),
        BandBump(),
        Custom(lambda r: np.exp(0.3j * r) / (1.0 + r)),
        Scaled(LimitedDecay(0.7), 1.7),
    ],
    ids=family_id,
)
def test_batched_dilate_matches_full_spectrum_evaluation(n, m):
    f = build_function(ModulatedBump(1.0, 1.5), n, 8.0)
    ts = np.array([0.05, 0.37, 1.0, 1.5, 2.0, 7.3, 40.0])
    assert np.array_equal(_batched_dilate(f, m, ts), full_spectrum_dilate(f, m, ts))


# --- sampling -------------------------------------------------------------------


def test_nested_sampling_is_nested_and_covering():
    pts = np.sort(1.0 + np.random.default_rng(5).random(400))
    prev = set()
    for depth in range(2, 8):
        now = set(nested_sample(pts, depth)[0].tolist())
        assert prev <= now
        prev = now
    sample, _ = nested_sample(pts, 4)
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
            sample, labels = nested_sample(pts, depth)
            np.testing.assert_array_equal(sample, _nested_sample_loop(pts, depth))
            # the points labelled <= d are the sample at depth d
            for d in range(depth + 1):
                np.testing.assert_array_equal(sample[labels <= d], _nested_sample_loop(pts, d))


def test_sampled_dilations_augmentation():
    plain = sampled_dilations(DilationSet(ExplicitPoints((1.3,))), (0, 0), 3)
    assert plain[0].tolist() == [1.3]
    aug = sampled_dilations(augmented(DilationSet(ExplicitPoints((1.3,)))), (0, 0), 3)
    assert set(aug[0].tolist()) == {1.0, 1.3, 2.0}


# --- maximal function -----------------------------------------------------------


def test_singleton_set_reduces_to_plain_operator():
    f = gaussian()
    single = DilationSet(ExplicitPoints((1.0,)))
    direct = apply_dilated_multiplier(f, BandBump(), 1.0)
    prev, sup = maximal_function(f, BandBump(), sampled_dilations(single, (0, 0), 4), (3, 4))
    np.testing.assert_allclose(sup, np.abs(direct.samples), atol=1e-13)
    assert np.array_equal(prev, sup)


def test_plancherel_contraction_singleton():
    f = gaussian()
    single = DilationSet(ExplicitPoints((1.0,)))
    [sup] = maximal_function(f, BandBump(), sampled_dilations(single, (0, 0), 4), (4,))
    l2 = math.sqrt(float(np.sum(sup**2) * f.dx))
    assert l2 <= f.lp_norm(2.0) + 1e-10  # sup|m| = 1 for the annular bump


def test_maximal_monotone_under_set_inclusion():
    f = gaussian()
    small = DilationSet(ExplicitPoints((1.0, 1.5)))
    large = DilationSet(ExplicitPoints((1.0, 1.25, 1.5, 1.75)))
    [s1] = maximal_function(f, LimitedDecay(1.0), sampled_dilations(small, (0, 0), 4), (4,))
    [s2] = maximal_function(f, LimitedDecay(1.0), sampled_dilations(large, (0, 0), 4), (4,))
    assert np.all(s2 >= s1 - 1e-15)


def test_maximal_depth_refinement_settles():
    f = gaussian(n=1024)
    sup_a, sup_b = maximal_function(f, BandBump(), sampled_dilations(LAC, (-3, 4), 5), (4, 5))
    l2 = math.sqrt(float(np.sum(sup_b**2) * f.dx))
    delta = math.sqrt(float(np.sum((sup_b - sup_a) ** 2) * f.dx))
    assert delta <= 0.02 * l2


def test_maximal_block_of_repeated_dilations_is_skipped():
    # block 1 of {1 + 1/n} holds only the dilation 2, already seen in block 0
    f = gaussian(n=256)
    E = DilationSet(PowerSequence(1.0))
    sups = maximal_function(f, BandBump(), sampled_dilations(E, (0, 1), 3), (2, 3))
    sups0 = maximal_function(f, BandBump(), sampled_dilations(E, (0, 0), 3), (2, 3))
    assert all(np.array_equal(a, b) for a, b in zip(sups, sups0))


def test_maximal_empty_window_raises():
    f = gaussian()
    with pytest.raises(ValueError, match="empty dilation sampling"):
        maximal_function(f, BandBump(), sampled_dilations(DilationSet(ExplicitPoints((7.0,))), (10, 11), 3), (3,))


def test_maximal_matches_per_dilation_reference():
    # several dilations, against the per-dilation spectral product as the reference
    n, extent = 64, 4.0
    x = -extent + (2 * extent / n) * np.arange(n)
    f = GridFunction(extent, np.exp(-(x**2)) * np.exp(2j * np.pi * 2.0 * x))
    E, m = DilationSet(ExplicitPoints((1.0, 1.3, 1.7))), LimitedDecay(1.0)
    [sup] = maximal_function(f, m, sampled_dilations(E, (-1, 0), 2), (2,))
    spec = f.to_frequency()
    ts = [2.0**j * t for j, pts in sampled_dilations(E, (-1, 0), 2).items() for t in pts]
    assert len(ts) >= 3

    def dilated(t):
        masked = spec.samples * evaluate(m, t * spec.freq_radius())
        return np.abs(replace(spec, samples=masked, side="frequency").to_space().samples)

    np.testing.assert_allclose(sup, np.max([dilated(t) for t in ts], axis=0), atol=1e-13)


def test_maximal_increment_matches_two_depth_reference(monkeypatch):
    # three blocks of the lacunary union: neighbouring blocks share the endpoint 2 * 2**j = 1 * 2**(j + 1)
    f = build_function(ModulatedBump(1.0, 1.5), 128, 8.0)
    m, depth, j_range = LimitedDecay(1.0), 3, (-1, 1)
    blocks = sampled_dilations(augmented(POW_LAC), j_range, depth)
    assert len(blocks) == 3 and all(blocks[j][-1] == 2.0 and blocks[j + 1][0] == 1.0 for j in (-1, 0))

    def sup_over(d):
        ts = {2.0**j * t for j, pts in sampled_dilations(augmented(POW_LAC), j_range, d).items() for t in pts}
        return np.max([np.abs(apply_dilated_multiplier(f, m, t).samples) for t in sorted(ts)], axis=0)

    now, prev = sup_over(depth), sup_over(depth - 1)
    expected = np.linalg.norm(now - prev) / np.linalg.norm(now)
    assert expected > 0
    config = Domination(set=POW_LAC, multiplier=m, f=ModulatedBump(1.0, 1.5), n=128, j_range=j_range, depth=depth)
    calls = []

    def recording_maximal_function(f, m, sampling, depths):
        calls.append(depths)  # read by name, so a reordered signature fails here rather than passing by accident
        return maximal_function(f, m, sampling, depths)

    monkeypatch.setattr(ml, "maximal_function", recording_maximal_function)
    assert domination_ratio(config).maximal_increment == pytest.approx(expected, rel=1e-9)
    assert calls == [(depth - 1, depth, depth + 1)]  # one batch serves the increment and both ratios


def per_depth_sups(f, m, E, depths, j_range):
    """The sup over each depth's own sampling, from one batch of that depth's dilations alone."""
    return [
        np.abs(_batched_dilate(f, m, np.unique([2.0**j * t for j, pts in blocks.items() for t in pts]))).max(axis=0)
        for blocks in (sampled_dilations(E, j_range, d) for d in depths)
    ]


@pytest.mark.parametrize(
    "depths, augment",
    [((2, 3, 4), True), ((0, 0, 1), True), ((1, 3), False), ((3,), False)],
    ids=["augmented", "augmented_from_depth_0", "plain", "one_depth"],
)
def test_maximal_function_dilates_the_deepest_sampling_once(monkeypatch, depths, augment):
    f, m, j_range = build_function(ModulatedBump(1.0, 1.5), 128, 8.0), LimitedDecay(1.0), (-1, 1)
    E = augmented(POW_LAC) if augment else POW_LAC
    # neighbouring blocks share the endpoint 2 * 2**j = 1 * 2**(j + 1), which is one row of the batch
    deepest = sampled_dilations(E, j_range, depths[-1])
    assert all(deepest[j][-1] == 2.0 and deepest[j + 1][0] == 1.0 for j in (-1, 0))
    expected = per_depth_sups(f, m, E, depths, j_range)
    dilated = []

    def counting_dilate(f, m, ts):
        dilated.append(ts.copy())
        return _batched_dilate(f, m, ts)

    monkeypatch.setattr(ml, "_batched_dilate", counting_dilate)
    sups = maximal_function(f, m, deepest, depths)
    assert len(dilated) == 1
    assert np.array_equal(dilated[0], np.unique([2.0**j * t for j, pts in deepest.items() for t in pts]))
    assert len(sups) == len(depths) and all(a.tobytes() == b.tobytes() for a, b in zip(sups, expected))
    if depths[0] < depths[-1]:
        assert not np.array_equal(sups[0], sups[-1])  # the shallowest sampling really lacks rows that matter


# --- H weights -------------------------------------------------------------------


@pytest.mark.parametrize("E, augment", [(POW_LAC, True), (DENSE, False)], ids=["augmented", "plain"])
def test_h_weights_match_closed_form_distance_integral(E, augment):
    # a plain block may lack 1 and 2, so its weights hold the end intervals, as the closed form's end terms do
    blocks = sampled_dilations(augmented(E) if augment else E, (-2, 3), 5)
    weights = build_h_weights(blocks, 0.3)
    assert augment or any(pts[0] > 1.0 and pts[-1] < 2.0 for pts in blocks.values())
    for hb in weights:
        exact = distance_integral(BlockSet(hb.j, blocks[hb.j]), 0.6, with_tails=False)
        assert np.sum(hb.weights) == pytest.approx(exact, rel=1e-6)
        assert np.all(hb.weights >= 0)
        assert np.all((hb.nodes >= 1.0) & (hb.nodes <= 2.0))


def per_gap_h_weights(blocks, beta):
    """The per-gap quadrature build_h_weights replaces: five graded cells per half-gap, one call each."""

    def halfgap_cells(anchor, width, beta2, outward):
        if width <= 0:
            return np.array([]), np.array([])
        edges = width * 2.0 ** -np.arange(5, -1, -1.0)
        edges[0] = 0.0
        lo, hi = edges[:-1], edges[1:]
        mass = hi**beta2 - lo**beta2
        centers = (beta2 / (beta2 + 1.0)) * (hi ** (beta2 + 1.0) - lo ** (beta2 + 1.0)) / mass
        return anchor + outward * centers, mass / beta2

    beta2 = 2.0 * beta
    out = []
    for j, pts in sorted(blocks.items()):
        cells = [halfgap_cells(pts[0], pts[0] - 1.0, beta2, -1.0)] if pts[0] > 1.0 else []
        for left, right in zip(pts[:-1], pts[1:]):
            half = 0.5 * (right - left)
            cells += [halfgap_cells(left, half, beta2, 1.0), halfgap_cells(right, half, beta2, -1.0)]
        if pts[-1] < 2.0:
            cells.append(halfgap_cells(pts[-1], 2.0 - pts[-1], beta2, 1.0))
        all_nodes, all_weights = (np.concatenate(parts) for parts in zip(*cells))
        order = np.argsort(all_nodes)
        out.append((j, all_nodes[order], all_weights[order]))
    return out


def _random_blocks(seed):
    """Random ascending blocks in [1, 2], each with or without the endpoints 1 and 2."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for j in range(40):
        pts = np.unique(rng.uniform(1.0, 2.0, rng.integers(1, 200)))
        blocks[j] = np.concatenate([[1.0]] * (j % 2) + [pts] + [[2.0]] * (j // 2 % 2))
    return blocks


NEAR_TWO = DilationSet(ExplicitPoints((1.5, 1.9999999999999996)))  # the union's deduplication drops the endpoint 2
CANTOR = DilationSet(CantorLike(4, (1, 2), 6))  # every block lies strictly inside (1, 2)


@pytest.mark.parametrize(
    "make_blocks, ends",
    [
        pytest.param(lambda: sampled_dilations(augmented(POW_LAC), (-3, 3), 5), (False, False), id="pow_lac_augmented"),
        pytest.param(lambda: sampled_dilations(augmented(DENSE), (-2, 2), 8), (False, False), id="dense_augmented"),
        pytest.param(lambda: sampled_dilations(CANTOR, (-1, 1), 5), (True, True), id="cantor_plain"),
        pytest.param(lambda: sampled_dilations(DENSE, (-2, 2), 8), (True, True), id="dense_plain"),
        pytest.param(lambda: _random_blocks(0), (True, True), id="random_0"),
        pytest.param(lambda: _random_blocks(1), (True, True), id="random_1"),
        pytest.param(
            lambda: sampled_dilations(augmented(NEAR_TWO), (-1, 1), 3), (False, True), id="near_two_augmented"
        ),
    ],
)
@pytest.mark.parametrize("beta", [0.05, 0.3, 0.499])
def test_h_weights_keep_the_bits_of_the_per_gap_quadrature(make_blocks, ends, beta):
    blocks = make_blocks()
    # `ends`: whether some block starts above 1 and whether some block ends below 2, so that end interval runs
    assert (any(pts[0] > 1.0 for pts in blocks.values()), any(pts[-1] < 2.0 for pts in blocks.values())) == ends
    got = build_h_weights(blocks, beta)
    assert len(got) == len(blocks)
    for hb, (j, nodes, weights) in zip(got, per_gap_h_weights(blocks, beta)):
        assert hb.j == j
        assert hb.nodes.tobytes() == nodes.tobytes() and hb.weights.tobytes() == weights.tobytes()


def test_h_weights_sup_over_blocks_finite_above_dimension():
    # 2 beta = 0.6 above the set's dimension 1/2: block sums stay bounded
    blocks = sampled_dilations(augmented(POW_LAC), (-6, 6), 8)
    weights = build_h_weights(blocks, 0.3)
    sums = [np.sum(hb.weights) for hb in weights]
    assert max(sums) <= 20.0


def test_h_weights_exponent_validation():
    blocks = sampled_dilations(augmented(LAC), (0, 0), 2)
    with pytest.raises(ValueError):
        build_h_weights(blocks, 0.5)


# --- square functional -------------------------------------------------------------


def test_square_functional_zero_inputs():
    f = GridFunction(8.0, np.zeros(256, dtype=complex))
    sampling = sampled_dilations(augmented(LAC), (-2, 2), 4)
    res = square_functional(f, BandBump(), sampling, 0.45, 0.3, 3, 128)
    assert np.all(res.values == 0)
    g = gaussian(n=256)
    res2 = square_functional(g, Custom(lambda r: np.zeros_like(r)), sampling, 0.45, 0.3, 3, 128)
    assert np.max(res2.values) <= 1e-20


def test_square_functional_matches_dense_brute_force():
    f = build_function(ModulatedBump(1.0, 2.0), 512, 8.0)
    alpha, beta = 0.45, 0.3
    res = square_functional(f, BandBump(), sampled_dilations(augmented(LAC), (-2, 3), 4), alpha, beta, 3, 128)
    vals = res.values
    spec = f.to_frequency()
    blocks = sampled_dilations(augmented(LAC), (-2, 3), 3)
    acc = np.zeros(f.n)
    for j, pts in blocks.items():
        sd = np.linspace(0.0, 2.0, 1281)  # ten times the base resolution
        paths = _batched_dilate(spec, BandBump(), 2.0**j * sd)
        deriv = marchaud_matrix(sd, alpha) @ paths
        s_int = sd[1:]
        sel = (s_int >= 1.0) & (s_int <= 2.0)
        dist = np.min(np.abs(s_int[sel][:, None] - pts[None, :]), axis=1)
        keep = dist > 1e-12
        acc += (sd[1] - sd[0]) * (
            dist[keep] ** (2 * beta - 1.0) @ np.abs(deriv[sel][keep]) ** 2
        )
    assert np.max(np.abs(vals - acc)) <= 0.05 * np.max(acc)
    assert vals[f.n // 2] > 1e3 * vals[5]  # concentrated where f lives


def test_augmented_blocks_all_carry_weight_nodes():
    # square_functional differentiates at the weight nodes and has no branch for a block without any
    sets = [LAC, POW_LAC, DilationSet(CantorLike(3, (0, 2), 6)), DilationSet(ExplicitPoints((1.1, 1.3, 3.4)))]
    for E in sets:
        for depth in (0, 2, 5):
            blocks = sampled_dilations(augmented(E), (-3, 4), depth)
            for j, pts in blocks.items():
                assert pts[0] == 1.0 and pts[-1] == 2.0
            for block in build_h_weights(blocks, 0.3):
                assert block.nodes.size >= 10
                assert np.all((block.nodes > 1.0) & (block.nodes < 2.0))


def full_matrix_square_functional(f, m, E, alpha, beta, depth, j_range, s_resolution):
    """The square functional from the full Marchaud matrix and full-spectrum paths, rows picked afterwards."""
    blocks = build_h_weights(sampled_dilations(augmented(E), j_range, depth), beta)
    spec, acc = f.to_frequency(), np.zeros(f.n)
    for block in blocks:
        s_grid = np.unique(np.concatenate([np.linspace(0.0, 2.0, s_resolution + 1), block.nodes]))
        deriv = marchaud_matrix(s_grid, alpha) @ full_spectrum_dilate(spec, m, 2.0**block.j * s_grid)
        acc += block.weights @ np.abs(deriv[np.searchsorted(s_grid[1:], block.nodes)]) ** 2
    return acc


def one_sampling_flags(f, m, E, alpha, beta, depth, j_range, s_resolution):
    """The Hoelder flags of one sampling's full-spectrum paths."""
    flagged = np.zeros(f.n, dtype=bool)
    for block in build_h_weights(sampled_dilations(augmented(E), j_range, depth), beta):
        s_grid = np.unique(np.concatenate([np.linspace(0.0, 2.0, s_resolution + 1), block.nodes]))
        flagged |= ~_path_hoelder_ok(full_spectrum_dilate(f.to_frequency(), m, 2.0**block.j * s_grid), alpha)
    return flagged


@pytest.mark.parametrize("m", [BandBump(), LimitedDecay(1.0)], ids=repr)
def test_square_functional_is_the_full_matrix_contraction_bit_for_bit(m):
    f = build_function(ModulatedBump(1.0, 2.0), 256, 8.0)
    res = square_functional(f, m, sampled_dilations(augmented(POW_LAC), (-2, 2), 4), 0.45, 0.3, 3, 64)
    expected = full_matrix_square_functional(f, m, POW_LAC, 0.45, 0.3, 3, (-2, 2), 64)
    assert np.array_equal(res.values, expected)
    assert res.values.dtype == np.float64
    # the refined sampling, from the same call, is the one-sampling run at depth + 1 and 2 s_resolution
    refined = full_matrix_square_functional(f, m, POW_LAC, 0.45, 0.3, 4, (-2, 2), 128)
    assert res.refined.tobytes() == refined.tobytes()
    assert np.array_equal(res.flagged, one_sampling_flags(f, m, POW_LAC, 0.45, 0.3, 3, (-2, 2), 64))


def median_hoelder_estimate(paths):
    """The per-path estimate _path_hoelder_ok thresholds, by np.median over all log ratios."""
    d1 = np.abs(paths[1:-1] - paths[:-2])
    d2 = np.abs(paths[2:] - paths[:-2])
    scale = np.max(np.abs(paths), axis=0, keepdims=True) + 1e-300
    ratios = np.where(d1 > 1e-13 * scale, d2 / np.maximum(d1, 1e-300), 2.0)
    return np.median(np.log2(np.maximum(ratios, 1e-12)), axis=0)


@pytest.mark.parametrize("nodes", [1, 2, 3, 4, 5, 6, 7, 8, 51, 52])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_path_hoelder_ok_matches_the_median_formula(nodes, seed):
    rng = np.random.default_rng(seed)
    # small integer values make tied ratios common
    paths = rng.integers(-2, 3, (nodes, 40)) + 1j * rng.integers(-2, 3, (nodes, 40))
    paths[:, 0] = 1.0 + 1.0j  # constant
    paths[:, 1] = 0.0
    paths[:, 2] = np.arange(nodes)  # linear: every ratio is 2
    paths[:, 3] = np.arange(nodes) ** 0.5  # a true Hoelder exponent of 1/2
    paths[:, 4:8] = rng.standard_normal((nodes, 4)) * 10.0 ** rng.integers(-6, 6, (1, 4))
    if nodes < 3:
        assert np.array_equal(_path_hoelder_ok(paths, 0.45), np.ones(40, dtype=bool))
        return
    est = np.minimum(median_hoelder_estimate(paths), 1.0)
    # thresholds at the estimates and one ulp below them, where an estimate one ulp off flips a flag
    for alpha in [0.45, 0.5, 1.0] + est.tolist() + np.nextafter(est, -np.inf).tolist():
        assert np.array_equal(_path_hoelder_ok(paths, alpha), est > alpha)


def test_square_functional_validates_exponents():
    with pytest.raises(ValueError):
        sampling = sampled_dilations(augmented(LAC), (-3, 4), 5)
        square_functional(gaussian(n=256), BandBump(), sampling, 0.3, 0.45, 4, 128)


# --- lemma ratio experiment ----------------------------------------------------------


def test_domination_ratio_stability_small_config():
    config = Domination(
        set=POW_LAC,
        multiplier=BandBump(),
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


def two_pass_domination_ratio(config):
    """domination_ratio as two independent runs, each with the sup over its own depth's dilations alone and a
    one-sampling square functional built here from full-spectrum paths and the full Marchaud matrix; the increment
    takes the depth - 1 sup from its own dilations too."""
    m, E, j_range, alpha, beta = config.multiplier, config.set, config.j_range, config.alpha, config.beta

    def pointwise_ratio(f, depth, s_resolution):
        [sup] = per_depth_sups(f, m, augmented(E), (depth,), j_range)
        top = sup**2
        bot = full_matrix_square_functional(f, m, E, alpha, beta, depth, j_range, s_resolution)
        excluded = (top <= ml.EXCLUSION_FACTOR * top.max()) & (bot <= ml.EXCLUSION_FACTOR * bot.max())
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(excluded, np.nan, top / bot)
        return ratios, excluded, one_sampling_flags(f, m, E, alpha, beta, depth, j_range, s_resolution), sup

    f = build_function(config.f, config.n, config.extent)
    base, excluded, flagged, now = pointwise_ratio(f, config.depth, config.s_resolution)
    fine, _, _, _ = pointwise_ratio(f, config.depth + 1, 2 * config.s_resolution)
    [prev] = per_depth_sups(f, m, augmented(E), (max(config.depth - 1, 0),), j_range)
    increment = float(np.linalg.norm(now - prev)) / (float(np.linalg.norm(now)) or 1.0)
    max_base = 0.0 if np.all(np.isnan(base)) else float(np.nanmax(base))
    max_fine = 0.0 if np.all(np.isnan(fine)) else float(np.nanmax(fine))
    change = abs(max_fine - max_base) / max_base if max_base > 0 else 0.0
    return max_base, max_fine, change, int(np.sum(excluded)), int(np.sum(flagged)), increment, base


def level_grids(E, j_range, depth, s_resolution, beta=0.3):
    """Per level: the s-grid of the base sampling and of the refined one (depth + 1, 2 s_resolution)."""
    return [
        tuple(np.union1d(np.linspace(0.0, 2.0, r + 1), b.nodes) for r, b in zip((s_resolution, 2 * s_resolution), bs))
        for bs in zip(*[build_h_weights(sampled_dilations(augmented(E), j_range, d), beta) for d in (depth, depth + 1)])
    ]


ALL_FAMILIES = [
    LimitedDecay(1.0),
    SlowDecay(1.0, 0.5),
    Oscillatory(0.5, 0.7),
    BandBump(),
    Custom(lambda r: np.exp(0.3j * r) / (1.0 + r)),
    Scaled(LimitedDecay(0.7), 1.7),
]


@pytest.mark.parametrize("m", ALL_FAMILIES, ids=family_id)
@pytest.mark.parametrize("E, base_has_own_rows", [(POW_LAC, True), (LAC, False)], ids=["pow_lac", "lac"])
def test_domination_ratio_is_the_two_pass_form_bit_for_bit(m, E, base_has_own_rows):
    config = Domination(set=E, multiplier=m, f=ModulatedBump(1.0, 2.0), n=256, j_range=(-2, 2), depth=3, s_resolution=24)
    # the power sequence adds sampled points at depth + 1, so the base grid has weight nodes the refined one lacks
    grids = level_grids(E, (-2, 2), 3, 24)
    assert any(np.setdiff1d(base, fine).size for base, fine in grids) == base_has_own_rows
    report = domination_ratio(config)
    *fields, ratios = two_pass_domination_ratio(config)
    assert [report.max_ratio, report.refined_ratio, report.relative_change] == fields[:3]
    assert [report.excluded_pixels, report.flagged_pixels, report.maximal_increment] == fields[3:]
    assert report.ratios.tobytes() == ratios.tobytes()


def test_square_functional_dilates_the_refined_grid_and_only_the_base_rows_it_lacks(monkeypatch):
    dilated, checked = [], []

    def counting_dilate(f, m, ts):
        dilated.append(ts.copy())
        return _batched_dilate(f, m, ts)

    def counting_hoelder(paths, alpha):
        checked.append(paths.shape[0])
        return _path_hoelder_ok(paths, alpha)

    monkeypatch.setattr(ml, "_batched_dilate", counting_dilate)
    monkeypatch.setattr(ml, "_path_hoelder_ok", counting_hoelder)
    f = build_function(GaussianBump(1.0), 256, 8.0)
    square_functional(f, BandBump(), sampled_dilations(augmented(POW_LAC), (-2, 2), 4), 0.45, 0.3, 3, 24)
    grids = level_grids(POW_LAC, (-2, 2), 3, 24)
    assert checked == [base.size for base, _ in grids]  # the Hoelder check sees the base sampling only
    # per level one batch of the refined grid and one of the base rows it lacks
    expected = [2.0**j * ts for j, (base, fine) in zip(range(-2, 3), grids) for ts in (fine, np.setdiff1d(base, fine))]
    assert len(dilated) == len(expected) and all(np.array_equal(a, b) for a, b in zip(dilated, expected))
    lacking = sum(np.setdiff1d(base, fine).size for base, fine in grids)
    assert sum(ts.size for ts in dilated) == sum(fine.size for _, fine in grids) + lacking
    assert 0 < lacking < sum(base.size for base, _ in grids)


@pytest.mark.parametrize("m", ALL_FAMILIES, ids=family_id)
@pytest.mark.parametrize(
    "n, rows, chunks",
    [(2048, 70, [32, 32, 6]), (2048, 1, [1]), (2048, 0, []), (2 * ml.CHUNK_POINTS, 3, [1, 1, 1])],
    ids=["partial_last_chunk", "one_row", "zero_rows", "one_row_per_chunk"],
)
def test_batched_dilate_is_the_per_row_dilation_bit_for_bit(monkeypatch, m, n, rows, chunks):
    f = build_function(ModulatedBump(1.0, 1.5), n, 8.0)
    ts = np.geomspace(0.05, 40.0, rows)
    expected = np.array([apply_dilated_multiplier(f, m, t).samples for t in ts]).reshape(rows, n)
    evaluated = []

    def recording_evaluate(m, rho):
        evaluated.append(np.shape(rho))
        return evaluate(m, rho)

    monkeypatch.setattr(ml, "evaluate", recording_evaluate)
    got = _batched_dilate(f, m, ts)
    assert got.shape == (rows, n) and got.tobytes() == expected.tobytes()
    assert evaluated == [(k, n // 2 + 1) for k in chunks]  # CHUNK_POINTS values a chunk, on the half spectrum
    if rows > 1:
        assert got.tobytes() == full_spectrum_dilate(f, m, ts).tobytes()


def test_maximal_function_takes_a_running_max_over_the_kernel_chunks(monkeypatch):
    f, m = build_function(ModulatedBump(1.0, 1.5), 1 << 14, 8.0), LimitedDecay(1.0)
    sampling = sampled_dilations(augmented(POW_LAC), (-1, 1), 3)
    expected = per_depth_sups(f, m, augmented(POW_LAC), (1, 2, 3), (-1, 1))
    sizes = []

    def counting_dilate(f, m, ts):
        sizes.append(ts.size)
        return _batched_dilate(f, m, ts)

    monkeypatch.setattr(ml, "_batched_dilate", counting_dilate)
    sups = maximal_function(f, m, sampling, (1, 2, 3))
    step = ml.CHUNK_POINTS >> 14
    rows = len({2.0**j * t for j, pts in sampling.items() for t in pts})
    assert len(sizes) > 2 and max(sizes) == step and sum(sizes) == rows  # every row once, a chunk at a time
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sups, expected))


def node_major_hoelder_ok(paths, alpha):
    """The partition form of _path_hoelder_ok: np.partition picks each path's middle pair of ratios along axis 0."""
    if paths.shape[0] < 3:
        return np.ones(paths.shape[1], dtype=bool)
    d1 = np.abs(paths[1:-1] - paths[:-2])
    d2 = np.abs(paths[2:] - paths[:-2])
    scale = np.max(np.abs(paths), axis=0, keepdims=True) + 1e-300
    ratios = np.where(d1 > 1e-13 * scale, d2 / np.maximum(d1, 1e-300), 2.0)
    mid = [(ratios.shape[0] - 1) // 2, ratios.shape[0] // 2]
    est = np.log2(np.maximum(np.partition(ratios, mid, axis=0)[mid], 1e-12)).mean(axis=0)
    return np.minimum(est, 1.0) > alpha


@pytest.mark.parametrize("nodes", [1, 2, 3, 4, 7, 52, 301])
def test_counting_hoelder_check_is_the_partition_one(nodes):
    rng = np.random.default_rng(nodes)
    s = np.linspace(0.0, 2.0, nodes)
    paths = rng.standard_normal((nodes, 96)) + 1j * rng.standard_normal((nodes, 96))
    paths[:, 0] = 0.0  # a zero path
    paths[:, 1] = rng.standard_normal(nodes)  # white noise: an exponent near 0, flagged at alpha 0.45
    paths[:, 2] = np.exp(1j * s)  # smooth
    paths[:, 3:9] *= 10.0 ** rng.integers(-8, 8, (1, 6))
    for alpha in (0.1, 0.45, 0.5):
        expected = node_major_hoelder_ok(paths, alpha)
        assert np.array_equal(_path_hoelder_ok(paths, alpha), expected)
        assert np.array_equal(_path_hoelder_ok(paths[:, 5:70], alpha), expected[5:70])  # a strided chunk of columns
    if nodes >= 7:
        assert not _path_hoelder_ok(paths, 0.45)[1] and _path_hoelder_ok(paths, 0.45)[2]


def hoelder_thresholds(paths):
    """Each path's clamped estimate and the float just below it: a decision one ulp off flips a flag there."""
    est = np.minimum(median_hoelder_estimate(paths), 1.0)
    return np.concatenate([est, np.nextafter(est, -np.inf)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 60).flatmap(
        lambda nodes: st.lists(
            st.lists(st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)), min_size=nodes, max_size=nodes),
            min_size=1,
            max_size=6,
        )
    )
)
def test_counting_hoelder_check_is_the_partition_one_on_small_integer_paths(columns):
    paths = np.array(columns).T  # small integers: tied ratios, and logs tied either side of a threshold, are common
    for alpha in hoelder_thresholds(paths):
        assert np.array_equal(_path_hoelder_ok(paths, alpha), node_major_hoelder_ok(paths, alpha))


@pytest.mark.parametrize(
    "steps, passes, fails",
    [
        # 4 ratios 2, 1.25, 5, 1.25: at 0.5 and 0.7 two logs lie above alpha, and their median 0.66 lies between
        ([1.0, 1.0, 0.25, 1.0, 0.25], [0.3, 0.5], [0.7, 1.5]),
        ([1.0, 0.25, 1.0, 0.25], [0.3], [0.4, 1.0]),  # 3 ratios 1.25, 5, 1.25: the median is log2(1.25)
        ([1.0, 3.0, 9.0, 27.0, 81.0], [0.5, np.nextafter(1.0, 0.0)], [1.0]),  # every log is 2: the clamp decides at 1
    ],
    ids=["even_count_half_above", "odd_count", "clamp_at_one"],
)
def test_counting_hoelder_check_at_its_edges(steps, passes, fails):
    path = np.concatenate([[0.0], np.cumsum(steps)])[:, None]  # ratios 1 + steps[i + 1] / steps[i]
    for alpha in passes + fails + hoelder_thresholds(path).tolist():
        assert _path_hoelder_ok(path, alpha)[0] == node_major_hoelder_ok(path, alpha)[0]
    assert all(_path_hoelder_ok(path, alpha)[0] for alpha in passes)
    assert not any(_path_hoelder_ok(path, alpha)[0] for alpha in fails)


def test_square_functional_frees_each_level_before_the_next_is_dilated(monkeypatch):
    batches, alive = [], []

    def tracking_dilate(f, m, ts):
        if len(batches) % 2 == 0:  # a level's refined batch, then the base rows it lacks
            alive.append(sum(batch() is not None for batch in batches))
        out = _batched_dilate(f, m, ts)
        batches.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ml, "_batched_dilate", tracking_dilate)
    f = build_function(ModulatedBump(1.0, 2.0), 2048, 8.0)  # several pixel chunks per level
    square_functional(f, LimitedDecay(1.0), sampled_dilations(augmented(POW_LAC), (-2, 2), 4), 0.45, 0.3, 3, 64)
    assert alive == [0] * 5  # no batch of an earlier level lives when a level's refined batch is dilated


def whole_batch_square_functional(f, m, sampling, alpha, beta, depth, s_resolution):
    """square_functional as it was before pixel chunks: each level's whole base and refined batches, the Hoelder
    check on the whole base batch, and one Marchaud matrix built per level and sampling."""
    samplings = ((depth, s_resolution), (depth + 1, 2 * s_resolution))
    spec, accs, flagged = f.to_frequency(), (np.zeros(f.n), np.zeros(f.n)), np.zeros(f.n, dtype=bool)
    cuts = [{j: pts[sampling.labels[j] <= d] for j, pts in sampling.items()} for d, _ in samplings]
    for blocks in zip(*[build_h_weights(cut, beta) for cut in cuts]):
        grids = [np.union1d(np.linspace(0.0, 2.0, r + 1), b.nodes) for (_, r), b in zip(samplings, blocks)]
        fine = _batched_dilate(spec, m, 2.0 ** blocks[0].j * grids[1])
        pos = np.searchsorted(grids[1], grids[0])
        shared = grids[1][pos] == grids[0]
        base = np.take(fine, pos, axis=0)
        base[~shared] = _batched_dilate(spec, m, 2.0 ** blocks[0].j * grids[0][~shared])
        flagged |= ~node_major_hoelder_ok(base, alpha)
        for acc, grid, block, paths in zip(accs, grids, blocks, (base, fine)):
            deriv = marchaud_matrix(grid, alpha, np.searchsorted(grid[1:], block.nodes)) @ paths
            acc += block.weights @ np.abs(deriv) ** 2
    return accs, flagged


@pytest.mark.parametrize(
    "m, E, n, depth, s_resolution",
    [(m, POW_LAC, 256, 3, 24) for m in ALL_FAMILIES]
    + [
        (LimitedDecay(1.0), POW_LAC, 2048, 3, 64),  # 128-pixel chunks
        (Oscillatory(0.5, 0.7), DilationSet(CantorLike(3, (0, 2), 10)), 2048, 4, 32),
        (SlowDecay(1.0, 0.5), LAC, 512, 2, 1024),  # budget chunks of 16 pixels, raised to PIXEL_CHUNK
    ],
    ids=[family_id(m) for m in ALL_FAMILIES] + ["128_pixel_chunks", "cantor_2048", "pixel_chunk_floor"],
)
def test_square_functional_is_the_whole_batch_form_bit_for_bit(m, E, n, depth, s_resolution):
    f = build_function(ModulatedBump(1.0, 2.0), n, 8.0)
    sampling = sampled_dilations(augmented(E), (-1, 1), depth + 1)
    res = square_functional(f, m, sampling, 0.45, 0.3, depth, s_resolution)
    (values, refined), flagged = whole_batch_square_functional(f, m, sampling, 0.45, 0.3, depth, s_resolution)
    assert res.values.tobytes() == values.tobytes()
    assert res.refined.tobytes() == refined.tobytes()
    assert np.array_equal(res.flagged, flagged)


def frequency_side_integral(f, m, blocks, alpha, s_resolution):
    """int |f^|^2 H_alpha dxi, H_alpha(xi) = sum_j sum_nodes w |sum_k M[i, k] m(2**j s_k xi)|^2: nothing is dilated."""
    spec, h = f.to_frequency(), np.zeros(f.n)
    for block in blocks:
        grid = np.union1d(np.linspace(0.0, 2.0, s_resolution + 1), block.nodes)
        rows = marchaud_matrix(grid, alpha, np.searchsorted(grid[1:], block.nodes))
        h += block.weights @ np.abs(rows @ evaluate(m, np.multiply.outer(2.0**block.j * grid, spec.freq_radius()))) ** 2
    return float(np.sum(np.abs(spec.samples) ** 2 * h)) * spec.dxi


@pytest.mark.parametrize("m", [BandBump(), LimitedDecay(1.0), Oscillatory(0.5, 0.2), SlowDecay(1.0, 0.5)], ids=repr)
@pytest.mark.parametrize("E", [POW_LAC, DilationSet(CantorLike(3, (0, 2), 6))], ids=["power", "cantor"])
def test_square_functional_integrates_to_its_frequency_side(monkeypatch, m, E):
    # Parseval along x closes the L^2 chain: int S f dx = int |f^|^2 H_alpha dxi on the periodic grid, at both cuts;
    # the smaller chunk budget runs each level in several pixel chunks (64 pixels of 256) and dilation chunks
    monkeypatch.setattr(ml, "CHUNK_POINTS", 1 << 12)
    f, alpha, beta, depth, s_resolution = build_function(ModulatedBump(1.0, 2.0), 256, 8.0), 0.45, 0.3, 1, 16
    sampling = sampled_dilations(augmented(E), (-1, 1), depth + 1)
    res = square_functional(f, m, sampling, alpha, beta, depth, s_resolution)
    for d, r, values in ((depth, s_resolution, res.values), (depth + 1, 2 * s_resolution, res.refined)):
        blocks = build_h_weights({j: pts[sampling.labels[j] <= d] for j, pts in sampling.items()}, beta)
        assert float(np.sum(values)) * f.dx == pytest.approx(frequency_side_integral(f, m, blocks, alpha, r), rel=1e-13)


def test_square_functional_builds_each_marchaud_matrix_once_per_call(monkeypatch):
    built = []

    def counting_marchaud(grid, alpha, rows=None):
        built.append((grid.tobytes(), np.asarray(rows).tobytes()))
        return marchaud_matrix(grid, alpha, rows)

    monkeypatch.setattr(ml, "marchaud_matrix", counting_marchaud)
    f, sampling = gaussian(n=256), sampled_dilations(augmented(LAC), (-2, 2), 4)
    for _ in range(2):  # the memo lives in one call: a second call builds again
        square_functional(f, BandBump(), sampling, 0.45, 0.3, 3, 24)
    # every level of the lacunary set is the block {1, 2}: one base and one refined matrix serve all five
    assert len(built) == 4 and len(set(built)) == 2 and built[:2] == built[2:]


def test_square_functional_holds_one_refined_batch_at_a_time():
    """On a 2048-pixel domination (Oscillatory, a Cantor set, the refined depth 5 and 65 fill nodes), the traced
    peak of the square functional stays under twice its largest level's refined batch: that batch, the base rows it
    lacks and one chunk.  The whole-batch form held each level's base batch, products and magnitudes too (3.4x)."""
    E, m = DilationSet(CantorLike(3, (0, 2), 10)), Oscillatory(0.5, 1.0)
    f = build_function(ModulatedBump(1.0, 2.0), 2048, 8.0)
    sampling = sampled_dilations(augmented(E), (-1, 1), 5)
    fine_rows = max(np.union1d(np.linspace(0.0, 2.0, 65), b.nodes).size for b in build_h_weights(sampling, 0.3))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        square_functional(f, m, sampling, 0.45, 0.3, 4, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fine_rows > 300 and peak - start <= 2 * fine_rows * f.n * 16


def test_domination_ratio_samples_each_block_once(monkeypatch):
    # both sides of the inequality and all three sups read one depth + 1 sampling of the augmented set
    blocks = len(sampled_dilations(augmented(POW_LAC), (-2, 2), 4))
    calls = []
    monkeypatch.setattr(ml, "nested_sample", lambda pts, depth: calls.append(depth) or nested_sample(pts, depth))
    config = Domination(
        set=POW_LAC, multiplier=BandBump(), f=GaussianBump(1.0), n=256, j_range=(-2, 2), depth=3, s_resolution=24
    )
    domination_ratio(config)
    assert calls == [4] * blocks and blocks == 5


def test_domination_zero_function_trivially_passes():
    config = Domination(
        set=LAC,
        multiplier=Custom(lambda r: np.zeros_like(r)),
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
    config = Domination(
        set=LAC,
        multiplier=BandBump(),
        f=GaussianBump(1.0),
        n=256,
        j_range=(-2, 2),
        depth=2,
        s_resolution=64,
    )
    report = domination_ratio(config)
    lines = report.histogram().splitlines()
    assert lines[0] == "lo,hi,count" and len(lines) == 33  # the 32 bins of ratio_histogram.csv
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))  # the bins tile the ratios' range
    assert sum(row[2] for row in rows) == np.isfinite(report.ratios).sum() > 0


@pytest.mark.parametrize("E", [LAC, POW_LAC, DENSE], ids=["lac", "pow_lac", "dense"])
@pytest.mark.parametrize("depth", [0, 2, 5])
@pytest.mark.parametrize("kind", [Domination, Probe], ids=["domination", "probe"])
def test_batch_bound_covers_every_batch_the_run_makes(monkeypatch, kind, E, depth):
    """A config is rejected before any work once its largest (dilations x pixels) batch may pass MAX_BATCH."""
    rows = []

    def counting_dilate(f, m, ts):
        rows.append(ts.size)
        return _batched_dilate(f, m, ts)

    extra = {"f": GaussianBump(1.0), "s_resolution": 16} if kind is Domination else {"trials": 1}
    config = kind(set=E, multiplier=BandBump(), n=64, j_range=(-2, 1), depth=depth, **extra)
    monkeypatch.setattr(ml, "_batched_dilate", counting_dilate)
    config.run()
    monkeypatch.setattr(ml, "MAX_BATCH", 64 * max(rows) - 1)
    with pytest.raises(ValueError, match="config.depth, .*config.grid.n: one dilation batch may hold"):
        replace(config)  # runs the checks of __post_init__ again


def test_no_benchmark_pool_op_passes_the_batch_bound():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    ops = workloads.pool("experiments")
    assert len(ops) > 80 and any(op.config["kind"] == "halfwave" for op in ops)
    for op in ops:
        EXPERIMENTS.from_json(dict(op.config, config={"seed": 0, **op.config["config"]}))


# --- H-norm bound -----------------------------------------------------------------


def per_frequency_h_norm(m, E, beta, xi_samples, j_range, depth):
    """mm_linf_h_norm as one small evaluation per frequency and block."""
    weights = build_h_weights(sampled_dilations(augmented(E), j_range, depth), beta)
    sup_h2 = 0.0
    for xi in np.asarray(xi_samples, dtype=float):
        h2 = 0.0
        for block in weights:
            vals = evaluate(m, 2.0**block.j * block.nodes * abs(xi))
            h2 += float(block.weights @ np.abs(vals) ** 2)
        sup_h2 = max(sup_h2, h2)
    sigma_inf = math.sqrt(sum(band_sup_norm(m, block.j) ** 2 for block in weights))
    return math.sqrt(sup_h2) / sigma_inf


def test_mm_linf_h_norm_suite():
    # each case also has the bits of the evaluation one frequency at a time
    xi_samples = np.geomspace(0.25, 64.0, 25)
    for m in (BandBump(), LimitedDecay(1.0), SlowDecay(1.0, 0.5)):
        for E in (POW_LAC, LAC):
            for beta in (0.25, 0.35):
                ratio = mm_linf_h_norm(m, E, beta, xi_samples, j_range=(-4, 4), depth=6)
                assert ratio <= 16.0, (type(m).__name__, beta, ratio)
                assert ratio == per_frequency_h_norm(m, E, beta, xi_samples, (-4, 4), 6)


def test_mm_linf_h_norm_zero_multiplier():
    zero = Custom(lambda r: np.zeros_like(r))
    ratio = mm_linf_h_norm(zero, LAC, 0.3, np.array([1.0, 2.0]), j_range=(-2, 2), depth=8)
    assert ratio == 0.0


# --- operator norm probing -----------------------------------------------------------


def test_probe_zero_multiplier():
    config = Probe(set=LAC, multiplier=Custom(lambda r: np.zeros_like(r)), n=256, j_range=(-2, 2), depth=2, trials=1)
    assert config.run()[0]["lower_bound"] == 0.0


def test_probe_singleton_band_bump_bounded_by_one():
    config = Probe(
        set=DilationSet(ExplicitPoints((1.0,))),
        multiplier=BandBump(),
        n=512,
        j_range=(0, 0),
        depth=2,
        trials=3,
    )
    assert config.run()[0]["lower_bound"] <= 1.0 + 1e-10


def test_probe_monotone_in_set():
    base = dict(multiplier=LimitedDecay(1.0), n=512, j_range=(0, 0), depth=3, trials=2)
    small = Probe(set=DilationSet(ExplicitPoints((1.0, 1.5))), **base).run()[0]
    large = Probe(set=DilationSet(ExplicitPoints((1.0, 1.25, 1.5, 1.75))), **base).run()[0]
    assert large["lower_bound"] >= small["lower_bound"] - 1e-12


def test_probe_regularity_sweep_recorded():
    config = Probe(set=LAC, multiplier=BandBump(), n=256, j_range=(-1, 1), depth=2, trials=1, regularity_grid=(0.5, 1.0, 1.5))
    sweep = config.run()[0]["regularity_sweep"]
    assert len(sweep) == 3
    assert all(v >= 0 for _, v in sweep)


# --- half-wave convergence ------------------------------------------------------------


def test_halfwave_single_mode_slope_one():
    n, extent = 1024, 8.0
    x = -extent + (2 * extent / n) * np.arange(n)
    xi0 = 2.0
    f = GridFunction(extent, np.exp(2j * np.pi * xi0 * x))
    times = np.geomspace(1e-4, 1e-3, 8) / (2 * np.pi * xi0) ** 0.5
    report = halfwave_convergence(f, 0.5, times)
    assert report.beta_fit == pytest.approx(1.0, abs=0.02)


def test_halfwave_gaussian_along_power_sequence():
    times = halfwave_times(DilationSet(PowerSequence(1.0)), 1.0 / 40, 0.35)
    report = halfwave_convergence(gaussian(n=1024), 0.5, times)
    assert report.beta_fit >= 0.3


def test_halfwave_fits_only_times_that_move_f_beyond_the_round_trip():
    f = gaussian(n=1024)
    round_trip = float(np.max(np.abs(f.to_frequency().to_space().samples - f.samples)))
    moved = 2.0 ** -np.arange(2.0, 7.0)
    report = halfwave_convergence(f, 0.5, np.concatenate([[5e-324, 6.48e-319, 1e-300], moved]))
    assert report.sup_differences[:3] == (round_trip,) * 3 and len(report.times) == 8  # every row is reported
    assert report.beta_fit == halfwave_convergence(f, 0.5, moved).beta_fit > 0.99  # with the round-off rows: 0.05
    # within ROUNDOFF_FACTOR of the round trip a difference is not motion, so one moved time is too few
    with pytest.raises(ValueError, match="moves f at 1 of 4 times; a rate fit needs two"):
        halfwave_convergence(f, 0.5, np.array([5e-324, 1e-300, 1e-16, 0.25]))


@pytest.mark.parametrize("a", [0.3, 0.1, 0.05, 0.01])
def test_halfwave_times_span_a_window_of_more_than_100001_n(a):
    # the n are spread over the whole window, not the first 100001 from its top (where a = 0.01 gave one time)
    times = halfwave_times(DilationSet(PowerSequence(a)), 0.025, 0.35)
    assert times.min() < 0.03 and times.max() > 0.34


def test_halfwave_times_extraction():
    lac_times = halfwave_times(LAC, 0.01, 0.5)
    assert set(lac_times.tolist()) == {2.0**-k for k in range(1, 7)}
    with pytest.raises(ValueError):
        halfwave_convergence(gaussian(n=256), 0.5, np.array([0.1, 0.2]))


# --- config wire format -----------------------------------------------------------------


def test_config_json_roundtrip():
    config = Domination(
        set=POW_LAC,
        multiplier=LimitedDecay(1.0),
        f=ModulatedBump(1.5, 3.0),
        alpha=0.4,
        beta=0.25,
        n=512,
        depth=3,
    )
    payload = json.loads(json.dumps(EXPERIMENTS.to_json(config)))
    back = EXPERIMENTS.from_json(payload)
    assert back == config
    # a multiplier with no wire format is never echoed as an empty object: the echo is no JSON
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps(EXPERIMENTS.to_json(replace(config, multiplier=Custom(np.abs))))
    probe = Probe(set=POW_LAC, multiplier=LimitedDecay(1.0), seed=11, trials=2, regularity_grid=(0.5, 1.0))
    halfwave = Halfwave(set=POW_LAC, f=RandomBand(2, 5), n=256, extent=4.0, hw_alpha=0.3, hw_beta=0.2, t_max=0.3)
    for config in (probe, halfwave):
        assert EXPERIMENTS.from_json(json.loads(json.dumps(EXPERIMENTS.to_json(config)))) == config
    # every field lands at its dotted path, after the tag
    assert list(EXPERIMENTS.to_json(halfwave)) == ["kind", "config", "hw_alpha", "hw_beta", "t_min", "t_max"]
    assert list(EXPERIMENTS.to_json(halfwave)["config"]) == ["set", "grid", "f"]
    assert EXPERIMENTS.to_json(halfwave)["config"]["grid"] == {"n": 256, "extent": 4.0, "dim": 1}
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
_WIDTH = st.floats(min_value=0.0, exclude_min=True, max_value=1e150)  # the widths GaussianBump accepts


@given(
    st.one_of(
        st.builds(GaussianBump, _WIDTH),
        st.builds(ModulatedBump, _WIDTH, _FINITE),
        st.builds(RandomBand, st.integers(max_value=1022), st.integers(min_value=0)),  # the bands RandomBand accepts
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
    assert to_wire(E) == payload
    # explicit points, the default cap, and int-valued numbers echoed as floats
    members = [{"kind": "explicit", "points": [3, 1.5]}, {"kind": "power_sequence", "a": 1}]
    E = DilationSet.from_json({"generator": {"kind": "union", "members": members}})
    assert E == DilationSet(UnionSet((ExplicitPoints((1.5, 3.0)), PowerSequence(1.0))))
    assert json.dumps(to_wire(E), sort_keys=True) == (
        '{"cap": 1000000, "generator": {"kind": "union", "members": ['
        '{"kind": "explicit", "points": [1.5, 3.0]}, {"a": 1.0, "kind": "power_sequence"}]}}'
    )
    # Cantor base and levels are coerced to int, digits stay as given; extra keys are ignored
    cantor = {"kind": "cantor", "base": 3.0, "digits": [2.0, 0.0], "levels": 2, "note": "x"}
    E = DilationSet.from_json({"generator": cantor})
    assert E.generator == CantorLike(3, (0, 2), 2)
    assert json.dumps(to_wire(E)["generator"], sort_keys=True) == (
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
