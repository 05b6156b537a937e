import math
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracmax.dilation_sets as ds
from fracmax.dilation_sets import (
    GAP_SUM_TERMS,
    BlockSet,
    BoundCheckReport,
    CantorLike,
    DilationSet,
    DimensionEstimate,
    ExplicitPoints,
    LacunaryGrid,
    PowerSequence,
    TailInfo,
    UnionSet,
    _boundary_split,
    _cover,
    _cut_sums,
    _threshold_scan,
    augmented,
    dimension_bound_check,
    dimension_from_distance_integral,
    dimension_from_gap_sums,
    distance_integral,
    entropy_number,
    gap_sum_converges,
    gap_sum_verdicts,
    geometric_schedule,
    kappa,
    lorentz_membership,
    minkowski_dimension,
    rescaled_block,
    sequence_gaps,
)

SCHED = geometric_schedule(0.07, 0.7e-6, 9)


# --- independent oracles -----------------------------------------------------


def brute_entropy(points, delta):
    """Direct enumeration of covering cells (closed intervals)."""
    points = np.asarray(points, dtype=float)
    k_max = int(math.ceil(points.max() / delta)) + 1
    count = 0
    for k in range(0, k_max + 1):
        if np.any((k * delta <= points) & (points <= (k + 1) * delta)):
            count += 1
    return count


def brute_cantor_endpoints(base, digits, levels):
    """Enumerate kept-digit codes and collect interval endpoints on [1, 2]."""
    codes = [()]
    for _ in range(levels):
        codes = [c + (d,) for c in codes for d in digits]
    pts = set()
    for code in codes:
        left = 1.0 + sum(d * base ** -(i + 1) for i, d in enumerate(code))
        pts.add(round(left, 15))
        pts.add(round(left + base**-levels, 15))
    return sorted(pts)


def quad_distance_integral(points, a, n=400_000):
    """Midpoint-rule quadrature of d(t, set)**(a-1) over [1, 2]."""
    t = np.linspace(1.0, 2.0, n, endpoint=False) + 0.5 / n
    d = np.min(np.abs(t[:, None] - np.asarray(points)[None, :]), axis=1)
    return float(np.mean(np.where(d > 0, d, 1.0) ** (a - 1.0) * (d > 0)))


# --- rescaled blocks ---------------------------------------------------------


def test_lacunary_block_is_two_points():
    block = rescaled_block(DilationSet(LacunaryGrid()), 0)
    np.testing.assert_allclose(block.points, [1.0, 2.0])
    assert block.points[0] == 1.0 and block.points[-1] == 2.0


def test_power_sequence_block_matches_direct_substitution():
    block = rescaled_block(DilationSet(PowerSequence(1.0)), 0)
    expected_head = np.sort(1.0 + 1.0 / np.arange(1, 6))
    np.testing.assert_allclose(block.points[-5:], expected_head)
    assert block.truncated
    assert block.tails and block.tails[0].anchor == 1.0


def test_power_sequence_other_blocks():
    E = DilationSet(PowerSequence(1.0))
    np.testing.assert_allclose(rescaled_block(E, 1).points, [1.0])
    assert rescaled_block(E, 2).empty
    assert rescaled_block(E, -1).empty


def test_cantor_level2_block_against_enumeration():
    block = rescaled_block(DilationSet(CantorLike(3, (0, 2), 2)), 0)
    oracle = brute_cantor_endpoints(3, (0, 2), 2)
    np.testing.assert_allclose(block.points, oracle, atol=1e-12)
    assert block.points[0] == 1.0 and abs(block.points[1] - (1 + 1 / 9)) < 1e-12


def test_block_invariants_points_sorted_in_interval():
    for gen in (PowerSequence(0.5), CantorLike(3, (0, 2), 5), LacunaryGrid()):
        block = rescaled_block(DilationSet(gen), 0)
        assert np.all(block.points >= 1.0) and np.all(block.points <= 2.0)
        assert np.all(np.diff(block.points) > 0)


def test_power_block_lies_strictly_above_one():
    block = rescaled_block(DilationSet(PowerSequence(0.5)), 0)
    assert block.points[0] > 1.0 and block.points[-1] == 2.0


def test_cantor_blocks_away_from_home_scale():
    E = DilationSet(CantorLike(3, (0, 2), 3))
    np.testing.assert_allclose(rescaled_block(E, 1).points, [1.0])  # only the point 2 rescales in
    np.testing.assert_allclose(rescaled_block(E, -1).points, [2.0])  # only the point 1
    assert rescaled_block(E, 4).empty


def test_truncated_block_serializes_flag():
    block = rescaled_block(DilationSet(PowerSequence(1.0)), 0)
    assert block.truncated is True


def test_entropy_without_tail_extrapolation_counts_points_only():
    block = rescaled_block(DilationSet(PowerSequence(1.0)), 0)
    delta = 1e-4
    with_tail = entropy_number(block, delta)
    points_only = entropy_number(block, delta, include_tails=False)
    assert points_only <= with_tail


def test_union_block_merges_members():
    E = DilationSet(UnionSet((LacunaryGrid(), ExplicitPoints((1.5,)))))
    block = rescaled_block(E, 0)
    np.testing.assert_allclose(block.points, [1.0, 1.5, 2.0])


def test_union_small_times_concatenate_the_members_in_order():
    times = UnionSet((LacunaryGrid(), ExplicitPoints((0.7, 0.3)))).small_times(0.1, 1.0)
    assert times.tolist() == [1.0, 0.5, 0.25, 0.125, 0.3, 0.7]


def test_augmented_adjoins_lacunary_grid():
    E = augmented(DilationSet(PowerSequence(1.0)))
    block = rescaled_block(E, 5)
    np.testing.assert_allclose(block.points, [1.0, 2.0])


def ladder_augmented(E):
    """The grid adjoined only to a set that lacks it: the generator-kind ladder `augmented` replaced."""
    gen = E.generator
    if isinstance(gen, LacunaryGrid) or isinstance(gen, UnionSet) and LacunaryGrid() in gen.members:
        return E
    return DilationSet(UnionSet((gen, LacunaryGrid())), E.materialization_cap)


AUGMENT_SETS = {
    "power": DilationSet(PowerSequence(1.0)),
    "explicit": DilationSet(ExplicitPoints((0.3, 1.0, 1.3, 2.0, 2.6, 7.9))),
    "cantor": DilationSet(CantorLike(3, (0, 2), 5)),
    "capped_cantor": DilationSet(CantorLike(3, (0, 2), 8), 40),
    "lacunary": DilationSet(LacunaryGrid()),
    "union": DilationSet(UnionSet((PowerSequence(0.5), ExplicitPoints((1.7, 3.1))))),
    "union_with_lacunary": DilationSet(UnionSet((PowerSequence(1.0), LacunaryGrid()))),
    "capped_union_with_lacunary": DilationSet(UnionSet((LacunaryGrid(), CantorLike(3, (0, 2), 8))), 40),
}


@pytest.mark.parametrize("name", AUGMENT_SETS)
def test_augmented_blocks_are_the_ladder_blocks(name):
    E = AUGMENT_SETS[name]
    for j in range(-3, 5):
        new, old = rescaled_block(augmented(E), j), rescaled_block(ladder_augmented(E), j)
        assert new.points.tobytes() == old.points.tobytes(), j
        assert (new.tails, new.truncated) == (old.tails, old.truncated), j
        assert new.points[0] == 1.0 and new.points[-1] == 2.0


def test_power_sequence_with_a_huge_decay_is_the_points_one_and_two():
    # (a / gap_floor)**(1 / (1 + a)) is inf for a = 1e300; n_max is clamped to the cap before the ceiling
    pts, truncated, (tail,) = PowerSequence(1e300).materialize(0, 1_000_000, 1e-9)
    assert pts.tolist() == [1.0, 2.0] and truncated and tail.n_trunc == 2


def full_array_power_block(a, cap, gap_floor):
    """Block 0 of PowerSequence(a) as built from the n array, the gaps array and the index array of the big gaps."""
    n_star = max(1.0, (a / max(gap_floor, 1e-300)) ** (1.0 / (1.0 + a)))
    n = np.arange(1, math.ceil(min(cap, n_star * 2)) + 1, dtype=float)
    pts = PowerSequence(a).sequence(n)
    gaps = -np.diff(pts)
    big = np.nonzero(gaps >= gap_floor)[0]
    last = int(big[-1]) + 2 if big.size else 1
    return pts[:last][::-1].copy(), last


@pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 2.5, 1e300])
@pytest.mark.parametrize("gap_floor", [1e-9, 1e-4, 0.9])  # 0.9 lies above the first gap unless a is huge
@pytest.mark.parametrize("cap", [1, 2, 100, 1_000_000])
def test_power_materialize_equals_the_full_array_construction(a, gap_floor, cap):
    pts, truncated, (tail,) = PowerSequence(a).materialize(0, cap, gap_floor)
    ref, last = full_array_power_block(a, cap, gap_floor)
    assert pts.tobytes() == ref.tobytes() and truncated
    assert tail == TailInfo(anchor=1.0, edge=float(ref[0]), power=a, n_trunc=last)


def test_power_materialize_holds_at_most_three_point_arrays():
    # the cap-bound a = 0.5 block builds 1e6 points; the n, gaps and index arrays took the peak to 4.3 of them
    tracemalloc.start()
    try:
        PowerSequence(0.5).materialize(0, 1_000_000, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 1_000_000


def test_power_sequence_small_times_at_tiny_decays():
    # for a = 0.001 even the largest float n has its offset n**-a above t_max: no times
    assert PowerSequence(0.001).small_times(0.025, 0.35).size == 0
    # for a = 0.003 only t_min**(-1/a) overflows: the offsets of the first 100001 n from n_lo on
    times = PowerSequence(0.003).small_times(0.025, 0.35)
    assert times.size == 100001 and np.all((0.025 <= times) & (times <= 0.35))
    times = PowerSequence(1.0).small_times(0.025, 0.35)
    assert times.tolist() == [1.0 / n for n in range(2, 42)]


def test_materialization_cap_flags_truncation():
    E = DilationSet(PowerSequence(1.0), materialization_cap=100)
    block = rescaled_block(E, 0)
    assert block.points.size <= 100 and block.truncated


def test_capped_finite_block_keeps_an_even_subsample_with_both_ends():
    points = np.linspace(1.0, 2.0, 50)
    block = rescaled_block(DilationSet(ExplicitPoints(tuple(points)), materialization_cap=10), 0)
    assert block.truncated and block.points.size == 10
    assert block.points[0] == 1.0 and block.points[-1] == 2.0
    assert block.points.tolist() == points[np.round(np.linspace(0, 49, 10)).astype(int)].tolist()


# --- entropy numbers ---------------------------------------------------------


def test_entropy_single_point():
    assert entropy_number(BlockSet(0, np.array([1.0])), 0.3) == 1


def test_entropy_two_points_matches_enumeration():
    # 1 and 2 each sit on a shared cell boundary at delta = 0.5, so each
    # counts twice under the closed-interval convention.
    block = BlockSet(0, np.array([1.0, 2.0]))
    assert entropy_number(block, 0.5) == brute_entropy([1.0, 2.0], 0.5) == 4


def test_entropy_cantor_scale_count():
    for level in (3, 4, 5):
        block = rescaled_block(DilationSet(CantorLike(3, (0, 2), level)), 0)
        n = entropy_number(block, 3.0**-level)
        assert 2**level <= n <= 3 * 2**level


def unique_entropy(block, delta, include_tails=True):
    """Reference count: entropy_number's point cells, sorted and counted with np.unique, and its tail ranges, merged,
    less the point cells inside them."""
    x = block.points / delta
    r, on_boundary = _boundary_split(x)
    k = np.floor(x)
    cells = np.unique(np.concatenate([k[~on_boundary], r[on_boundary] - 1, r[on_boundary]]))
    count, merged = cells.size, []
    for tail in block.tails if include_tails else ():
        lo, lo_exact = _boundary_split(np.array([tail.anchor / delta]))
        k_lo = int(lo[0]) if lo_exact[0] else int(math.floor(tail.anchor / delta))
        hi, hi_exact = _boundary_split(np.array([tail.edge / delta]))
        k_hi = int(hi[0]) - 1 if hi_exact[0] else int(math.floor(tail.edge / delta))
        if k_hi >= k_lo:
            merged.append([k_lo, k_hi])
    merged.sort()
    for i in range(len(merged) - 1, 0, -1):  # join overlapping or adjacent ranges, from the right
        if merged[i][0] <= merged[i - 1][1] + 1:
            merged[i - 1][1] = max(merged[i - 1][1], merged[i][1])
            del merged[i]
    for k_lo, k_hi in merged:
        inside = np.searchsorted(cells, k_hi, side="right") - np.searchsorted(cells, k_lo)
        count += k_hi - k_lo + 1 - int(inside)
    return count


EDGES = (1.0 - 1e-12, 1.0, 2.0, 2.0 + 1e-12)  # a block may reach 1e-12 past [1, 2]


@st.composite
def entropy_cases(draw):
    """A block of ascending points in [1 - 1e-12, 2 + 1e-12], some on or next to exact multiples of delta, and up to
    2000 in a cluster a few cells wide; delta down to DEDUP_TOL, where the boundary slack covers whole cells; with
    or without tails; counted CELL_CHUNK points at a time for a small or the default chunk."""
    delta = draw(
        st.one_of(
            st.integers(0, 49).map(lambda k: 2.0**-k),
            st.integers(0, 31).map(lambda k: 3.0**-k),
            st.integers(0, 15).map(lambda k: 10.0**-k),
        )
    )
    on_grid = st.integers(math.ceil(1.0 / delta), math.floor(2.0 / delta)).map(lambda i: i * delta)
    in_range = st.one_of(st.floats(1.0, 2.0), on_grid, st.sampled_from(EDGES))
    points = set(draw(st.lists(in_range, max_size=30)))
    size = draw(st.sampled_from([0, 0, 200, 2000]))
    if size:  # a cluster: grid points, some nudged by a relative 1e-16..1e-8, and points between them
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        start = draw(in_range)
        cells = start + delta * rng.integers(-3, 4, size)
        nudge = rng.choice([0.0, 1e-16, -1e-16, 1e-10, -1e-10, 1e-8, -1e-8], size)
        between = start + delta * rng.uniform(-3, 3, size)
        cluster = np.where(rng.random(size) < 0.5, cells * (1.0 + nudge), between)
        points.update(np.clip(cluster, EDGES[0], EDGES[-1]).tolist())
    tails = []
    for _ in range(draw(st.integers(0, 2))):
        anchor, edge = sorted(draw(st.lists(in_range, min_size=2, max_size=2)))
        tails.append(TailInfo(anchor=anchor, edge=edge, power=1.0, n_trunc=10))
    block = BlockSet(0, np.array(sorted(points)), truncated=bool(tails), tails=tuple(tails))
    return block, delta, draw(st.booleans()), draw(st.sampled_from([ds.CELL_CHUNK, 3, 64]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entropy_cases())
def test_entropy_matches_the_unique_count(case):
    block, delta, include_tails, chunk = case
    with mock.patch.object(ds, "CELL_CHUNK", chunk):
        count = entropy_number(block, delta, include_tails)
    assert count == unique_entropy(block, delta, include_tails)
    assert block.counts == {(delta, flag): unique_entropy(block, delta, flag) for flag in (True, False)}


def test_one_count_fills_both_tail_keys():
    # the points are counted once; the count without tails comes from the same pass
    block = rescaled_block(DilationSet(UnionSet((PowerSequence(0.7), CantorLike(3, (0, 2), 6)))), 0)
    fresh = BlockSet(block.j, block.points, block.truncated, block.tails)
    calls = []
    with mock.patch.object(ds, "_cover", lambda *args: calls.append(args[2:]) or _cover(*args)):
        with_tails = entropy_number(fresh, 1e-5)
        assert entropy_number(fresh, 1e-5, include_tails=False) < with_tails
    assert fresh.counts == {(1e-5, True): with_tails, (1e-5, False): unique_entropy(block, 1e-5, False)}
    assert calls.count(()) == 1  # one pass over the whole block; the other calls count the tail's few points
    assert with_tails == unique_entropy(block, 1e-5)


def test_entropy_memory_is_bounded_by_the_chunk():
    # a 1e6-point count once held about seven copies of the points (55 MB traced at delta 1e-8)
    block = BlockSet(0, np.linspace(1.0, 2.0, 1_000_000))
    for delta in (1e-8, 1e-5):
        tracemalloc.start()
        try:
            count = entropy_number(block, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == unique_entropy(block, delta)
        assert peak < 20 * 8 * ds.CELL_CHUNK  # a few chunk-sized arrays, whatever the block's size


@pytest.mark.parametrize(
    "gen", [PowerSequence(1.0), CantorLike(3, (0, 2), 8), UnionSet((PowerSequence(2.0), LacunaryGrid()))]
)
def test_cached_count_matches_a_fresh_block(gen):
    block = rescaled_block(DilationSet(gen), 0)
    fresh = BlockSet(block.j, block.points.copy(), block.truncated, block.tails)
    for delta in [float(d) for d in SCHED] + [2.0**-k for k in range(1, 14)]:
        for include_tails in (True, False):
            first = entropy_number(block, delta, include_tails)
            assert block.counts[(delta, include_tails)] == first
            assert entropy_number(block, delta, include_tails) == first == entropy_number(fresh, delta, include_tails)
    assert rescaled_block(DilationSet(gen), 0) is block  # the counts live on the one shared block
    assert repr(block) == repr(BlockSet(block.j, block.points, block.truncated, block.tails))


def test_entropy_bad_delta():
    block = BlockSet(0, np.array([1.0]))
    with pytest.raises(ValueError):
        entropy_number(block, 0.0)
    with pytest.raises(ValueError):
        entropy_number(block, 1.5)
    with pytest.raises(ValueError, match="delta must lie in"):
        entropy_number(block, 1e-16)  # below DEDUP_TOL


def test_tail_count_memory_does_not_grow_with_the_tail_width():
    # a (1, 1.25) tail at delta 1e-8 spans 2.5e7 cells; counting them one by one took about 200 MB
    tail = TailInfo(anchor=1.0, edge=1.25, power=0.1, n_trunc=10)
    block = BlockSet(0, np.array([1.125, 1.25, 1.5, 2.0]), truncated=True, tails=(tail,))
    tracemalloc.start()
    try:
        count = entropy_number(block, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tail's cells, plus the cell right of 1.25 and the two cells each of 1.5 and 2.0; 1.125 lies inside the tail
    assert count == 25_000_000 + 1 + 2 + 2
    assert peak < 10_000_000


@pytest.mark.parametrize(
    "gen", [PowerSequence(1.0), CantorLike(3, (0, 2), 8), LacunaryGrid()]
)
def test_entropy_monotone_on_nested_grid(gen):
    block = rescaled_block(DilationSet(gen), 0)
    deltas = [2.0**-k for k in range(1, 14)]
    counts = [entropy_number(block, d) for d in deltas]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_entropy_shift_invariance_within_two():
    rng = np.random.default_rng(7)
    pts = np.sort(1.0 + rng.random(40))
    for shift in (0.013, 0.377, 0.5):
        for delta in (0.05, 0.011, 0.003):
            n0 = brute_entropy(pts, delta)
            n1 = brute_entropy(pts + shift, delta)
            assert abs(n0 - n1) <= 2


# --- distance integrals ------------------------------------------------------


def test_distance_integral_two_points_closed_form():
    block = BlockSet(0, np.array([1.0, 2.0]))
    # antiderivative of u**(-1/2): 2*2*(1/2)**(1/2) = 2*sqrt(2)
    assert distance_integral(block, 0.5) == pytest.approx(2.0 * math.sqrt(2.0))
    assert distance_integral(block, 0.5) == pytest.approx(
        quad_distance_integral([1.0, 2.0], 0.5), rel=1e-3
    )


def test_distance_integral_near_one_limit():
    block = BlockSet(0, np.array([1.0, 2.0]))
    assert distance_integral(block, 1.0 - 1e-9) == pytest.approx(1.0, rel=1e-6)


def test_distance_integral_power_block_divergence():
    block = rescaled_block(DilationSet(PowerSequence(1.0)), 0)
    # gaps are 1/(n(n+1)): sum of gap**a converges iff a > 1/2
    assert math.isfinite(distance_integral(block, 0.6))
    assert distance_integral(block, 0.4) == math.inf


def test_distance_integral_rejects_bad_exponent():
    block = BlockSet(0, np.array([1.5]))
    for a in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            distance_integral(block, a)


def test_finiteness_monotone_in_exponent():
    block = rescaled_block(DilationSet(PowerSequence(1.0)), 0)
    finite = [math.isfinite(distance_integral(block, a)) for a in np.linspace(0.05, 0.95, 19)]
    assert finite == sorted(finite)  # once finite, stays finite


def test_distance_integral_checks_its_arguments_before_the_tail_bound():
    tail = TailInfo(anchor=1.0, edge=1.5, power=1.0, n_trunc=10)  # its bound is infinite for every a <= 1/2
    tailed = BlockSet(0, np.array([1.5, 2.0]), truncated=True, tails=(tail,))
    for a in (0.0, -0.2, 1.0):
        with pytest.raises(ValueError, match="exponent must lie in"):
            distance_integral(tailed, a)
    with pytest.raises(ValueError, match="empty block"):
        distance_integral(BlockSet(0, np.array([]), truncated=True, tails=(tail,)), 0.3)
    with pytest.raises(ValueError, match="empty block"):
        distance_integral(BlockSet(0, np.array([])), 0.3, with_tails=False)


def test_distance_integral_has_a_ceiling_only_with_tails():
    # a million gaps each add about 2 / a: 2e12, above the divergence ceiling
    block = BlockSet(0, np.linspace(1.0, 2.0, 10**6))
    assert distance_integral(block, 1e-6, with_tails=False) == pytest.approx(1.99997e12, rel=1e-5)
    assert distance_integral(block, 1e-6) == math.inf


def test_a_tail_anchored_at_one_covers_the_left_strip():
    tailed = BlockSet(0, np.array([1.5, 2.0]), truncated=True, tails=(TailInfo(1.0, 1.25, 2.0, 10),))
    # the gap gives 2; with tails the tail bound 2**0.5 / 0.5 * 2**0.5 * 10**-0.5 / 0.5 stands in for the strip 0.5
    assert distance_integral(tailed, 0.5) == pytest.approx(2.0 + 8.0 / math.sqrt(10.0), rel=1e-12)
    assert distance_integral(tailed, 0.5) == pytest.approx(4.5298, abs=1e-4)
    assert distance_integral(tailed, 0.5, with_tails=False) == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)


def summed_distance_integral(block, a, with_tails=True):
    """The closed form with every gap summed before the tail bound is read: the interior gaps, the end strips (the
    left one unless a tail starts at 1), then one analytic bound per tail, infinite where a (1 + power) <= 1; with
    tails a partial sum above the divergence ceiling reads inf, and without them there is no ceiling."""
    pts, tails = block.points, block.tails if with_tails else ()
    gaps = np.diff(pts)
    partial = float(np.sum(2.0 * (gaps / 2.0) ** a / a)) if gaps.size else 0.0
    tail_bound = 0.0
    for tail in tails:
        expo = a * (1.0 + tail.power)
        gap_sum = tail.power**a * tail.n_trunc ** (1.0 - expo) / (expo - 1.0) if expo > 1.0 else math.inf
        tail_bound += 2.0 ** (1.0 - a) / a * gap_sum
    if pts[0] - 1.0 > 0 and not any(tail.anchor <= 1.0 + 1e-12 for tail in tails):
        partial += (pts[0] - 1.0) ** a / a
    if 2.0 - pts[-1] > 0:
        partial += (2.0 - pts[-1]) ** a / a
    if with_tails and partial > ds.DIVERGENCE_CEILING or not math.isfinite(tail_bound):
        return math.inf
    return partial + tail_bound


DISTANCE_SETS = {
    "power": PowerSequence(0.7),
    "steep_power": PowerSequence(3.0),
    "union": UnionSet((PowerSequence(0.8), PowerSequence(2.0), CantorLike(3, (0, 2), 5))),
    "cantor": CantorLike(3, (0, 2), 8),
    "explicit": ExplicitPoints((1.1, 1.3, 1.7, 1.95)),
}


@pytest.mark.parametrize("name", DISTANCE_SETS)
def test_distance_integral_is_the_summed_closed_form_bit_for_bit(name, monkeypatch):
    block = rescaled_block(DilationSet(DISTANCE_SETS[name]), 0)
    summed = []
    original = ds._gap_contribution
    monkeypatch.setattr(ds, "_gap_contribution", lambda gaps, a: summed.append(a) or original(gaps, a))
    grid = [float(a) for a in np.linspace(0.02, 0.98, 49)]
    for a in grid:
        assert distance_integral(block, a) == summed_distance_integral(block, a), a
        assert distance_integral(block, a, with_tails=False) == summed_distance_integral(block, a, with_tails=False)
    # the gaps are summed for the finite integrals, and for the full ones only where no tail bound is infinite
    diverges = [a for a in grid if any(a * (1.0 + tail.power) <= 1.0 for tail in block.tails)]
    assert sorted(summed) == sorted(grid + [a for a in grid if a not in diverges])
    assert bool(diverges) == bool(block.tails)  # every tailed block here has exponents whose bound is infinite


# --- dimension estimates -----------------------------------------------------


@pytest.mark.parametrize("a", [1.0, 0.5, 2.0])
def test_kappa_power_sequences(a):
    est = kappa(DilationSet(PowerSequence(a)), SCHED, (-2, 3))
    assert est.value == pytest.approx(1.0 / (1.0 + a), abs=0.05)


def test_kappa_lacunary_is_zero():
    est = kappa(DilationSet(LacunaryGrid()), SCHED, (-2, 3))
    assert est.value <= 0.02


def test_kappa_needs_nonempty_blocks():
    E = DilationSet(ExplicitPoints((100.0,)))
    with pytest.raises(ValueError, match="empty"):
        kappa(E, SCHED, (3, 4))


def test_minkowski_two_points():
    assert minkowski_dimension(BlockSet(0, np.array([1.0, 2.0])), SCHED).value <= 0.02


def test_minkowski_cantor_level12():
    block = rescaled_block(DilationSet(CantorLike(3, (0, 2), 12)), 0)
    sched = np.array([3.0**-k for k in range(2, 11)])
    est = minkowski_dimension(block, sched)
    assert est.value == pytest.approx(math.log(2) / math.log(3), abs=0.03)


def test_minkowski_power_block():
    block = rescaled_block(DilationSet(PowerSequence(1.0)), 0)
    assert minkowski_dimension(block, SCHED).value == pytest.approx(0.5, abs=0.05)


def test_dimension_from_distance_integral_matches():
    block = rescaled_block(DilationSet(PowerSequence(1.0)), 0)
    est = dimension_from_distance_integral(block)
    assert est.method == "distance_integral"
    assert est.value == pytest.approx(0.5, abs=0.05)


def all_scales_entropy_slope(blocks, sched):
    """Reference estimate: the max count over the blocks at every scale of the schedule, a least-squares fit of
    log N in -log delta over the last four with its RMS residual."""
    counts = [max(entropy_number(b, d) for b in blocks) for d in sched]
    log_n = np.array([math.log(max(c, 1)) for c in counts])[-4:]
    coeffs, res = np.polyfit(-np.log(sched)[-4:], log_n, 1, full=True)[:2]
    residual = float(np.sqrt(res[0] / 4)) if res.size else 0.0
    value = min(1.0, max(0.0, float(coeffs[0])))
    return DimensionEstimate(value, "entropy_slope", (float(sched[-1]), float(sched[-4])), residual)


SLOPE_SETS = [
    PowerSequence(1.0),
    PowerSequence(0.5),
    PowerSequence(2.0),
    LacunaryGrid(),
    CantorLike(3, (0, 2), 8),
    ExplicitPoints((1.1, 1.3, 1.7, 2.6, 3.4)),
    UnionSet((PowerSequence(1.0), LacunaryGrid())),
]
SLOPE_SCHEDULES = [SCHED, geometric_schedule(0.3, 1e-4, 4), geometric_schedule(0.5, 1e-5, 12)]


@pytest.mark.parametrize("gen", SLOPE_SETS, ids=repr)
@pytest.mark.parametrize("sched", SLOPE_SCHEDULES, ids=lambda s: f"{s.size}_scales")
def test_fitted_scale_estimates_are_the_all_scale_estimates_bit_for_bit(gen, sched):
    E = DilationSet(gen)
    blocks = [b for b in (rescaled_block(E, j) for j in range(-2, 4)) if not b.empty or b.tails]
    assert kappa(E, sched, (-2, 3)) == all_scales_entropy_slope(blocks, sched)
    block = rescaled_block(E, 0)
    expected = all_scales_entropy_slope([block], sched)
    assert minkowski_dimension(block, sched) == expected
    # `fracmax dim` counts every scale for counts.csv first, at Python-float deltas, and the fit reads those counts
    fresh = BlockSet(block.j, block.points, block.truncated, block.tails)
    [entropy_number(fresh, float(d)) for d in sched]
    assert minkowski_dimension(fresh, sched) == expected


def full_threshold_scan(verdicts, method):
    """Reference scan: every verdict of the grid first, then the answer."""
    a_grid = np.linspace(0.02, 0.98, 49)
    if all(verdicts):
        value, resid = float(a_grid[0]), float(a_grid[1] - a_grid[0])
    elif not any(verdicts):
        value, resid = 1.0, float(a_grid[-1] - a_grid[-2])
    else:
        idx = next(i for i, v in enumerate(verdicts) if v)
        value = float(a_grid[idx])
        resid = float(a_grid[idx] - a_grid[idx - 1]) if idx else 0.0
    return DimensionEstimate(min(1.0, max(0.0, value)), method, (0.0, 0.0), resid)


VERDICT_PATTERNS = st.one_of(
    st.just([True] * 49),
    st.just([False] * 49),
    st.integers(1, 48).map(lambda k: [True] * k + [False] * (49 - k)),
    st.integers(1, 48).map(lambda k: [False] * k + [True] * (49 - k)),
    st.lists(st.booleans(), min_size=49, max_size=49),
)


@settings(max_examples=200, deadline=None)
@given(VERDICT_PATTERNS)
def test_threshold_scan_matches_the_full_scan(verdicts):
    grid = [float(a) for a in np.linspace(0.02, 0.98, 49)]
    seen = []

    def passes(a):
        seen.append(grid.index(a))
        return verdicts[seen[-1]]

    assert _threshold_scan(passes, "gap_sum") == full_threshold_scan(verdicts, "gap_sum")
    assert seen == list(range(len(seen)))  # in order, each exponent once
    if not verdicts[0]:  # it stops at the first pass
        assert len(seen) == (verdicts.index(True) + 1 if any(verdicts) else 49)


# --- gap sums and weak-type membership ---------------------------------------


def test_gap_sum_verdicts():
    harmonic, geometric = sequence_gaps(lambda n: 1.0 / n), sequence_gaps(lambda n: 2.0**-n)
    assert gap_sum_converges(harmonic, 0.6)
    assert not gap_sum_converges(harmonic, 0.5)
    assert gap_sum_converges(geometric, 0.3)
    assert gap_sum_converges(geometric, 0.9)


def test_gap_sum_rejects_increasing():
    with pytest.raises(ValueError, match="not decreasing"):
        sequence_gaps(lambda n: np.sin(n))


@pytest.mark.parametrize(
    "rule",
    [lambda n: 1.0 / (n - 1.0), lambda n: np.where(n <= 5.0, 1.0 / n, np.nan)],
    ids=["inf_first_term", "nan_past_5"],
)
def test_gap_sum_rejects_a_non_finite_value(rule):
    # inf - inf and NaN gaps used to pass the order check and read as dimension 1.0
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="through finite values"):
        dimension_from_gap_sums(rule)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.6, 0.9])
def test_gap_sum_verdict_matches_direct_block_sums(a):
    n = np.arange(1, GAP_SUM_TERMS + 1, dtype=float)
    terms = (1.0 / (n * (n + 1.0))) ** a  # the gaps of 1/n, in closed form
    lo = terms[GAP_SUM_TERMS // 4 : GAP_SUM_TERMS // 2].sum()
    hi = terms[GAP_SUM_TERMS // 2 :].sum()
    assert gap_sum_converges(sequence_gaps(lambda n: 1.0 / n), a) == (hi / lo < 0.97)


@pytest.mark.parametrize("a_seq", [0.5, 1.0, 2.0])
def test_gap_sum_flip_matches_corollary(a_seq):
    gaps = sequence_gaps(lambda n: 1.0 + n**-a_seq)
    lo, hi = 0.05, 0.98
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if gap_sum_converges(gaps, mid):
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(1.0 / (1.0 + a_seq), abs=0.05)


GAP_RULES = {
    "harmonic": lambda n: 1.0 / n,
    "power_1": lambda n: 1.0 + 1.0 / n,
    "geometric": lambda n: 2.0**-n,
    "subnormal": lambda n: 1e-300 / n,  # gaps below 1e-308 from n = 3e3 on, the last near 6e-311
    # the first 39999 gaps are -0.0: no nonzero gap comes before the first cut at n = 2**15
    "flat_start": lambda n: np.minimum(1.0, 4e4 / n),
    **{f"power_{a}": PowerSequence(a).sequence for a in (0.5, 2.0, 2.5, 3.0)},  # at 2.5 and 3.0 most gaps are 0
    **{f"offsets_{a}": PowerSequence(a).offsets for a in (2.5, 3.0)},  # harmonic is offsets_1.0
}
CUTS = [GAP_SUM_TERMS // 4 - 1, GAP_SUM_TERMS // 2 - 1, GAP_SUM_TERMS - 1]


@pytest.mark.parametrize("rule", list(GAP_RULES))
def test_gap_sum_partial_sums_are_the_out_of_place_cumsum_bit_for_bit(rule):
    # the exact path sums the nonzero gaps only; the three partial sums it reads are the full-array cumsum's,
    # and gap_sum_verdicts gives gap_sum_converges's verdict on the 49-point grid and on verify's bisection midpoints
    gaps = sequence_gaps(GAP_RULES[rule])
    decide = gap_sum_verdicts(gaps)
    for a in np.linspace(0.02, 0.98, 49):
        assert np.array(_cut_sums(gaps, float(a))).tobytes() == np.cumsum(gaps ** float(a))[CUTS].tobytes()
        assert decide(float(a)) is gap_sum_converges(gaps, float(a))
    lo, hi = 0.05, 0.98
    for _ in range(24 if rule.startswith("power_") else 0):
        mid = 0.5 * (lo + hi)
        verdict = gap_sum_converges(gaps, mid)
        assert decide(mid) is verdict
        lo, hi = (lo, mid) if verdict else (mid, hi)


def full_cumsum_verdict(gaps, a):
    """The dyadic-ratio verdict read off the cumsum of gaps**a over all 2**17 gaps."""
    first, mid, last = np.cumsum(gaps**a)[CUTS]
    lo, hi = mid - first, last - mid
    return bool(hi == 0.0 if lo == 0.0 else hi / lo < 0.97)


def flattened(rule, runs):
    """`rule` held constant over each (start, length) run of indices: its gaps there are 0."""

    def held(n):
        for start, length in runs:
            n = n - np.clip(n - start, 0.0, length)  # nondecreasing in n, so the rule stays nonincreasing
        return rule(n)

    return held


DECREASING_RULES = st.one_of(
    st.floats(0.1, 4.0).map(lambda a: PowerSequence(a).sequence),
    st.floats(0.1, 4.0).map(lambda a: PowerSequence(a).offsets),
    st.floats(0.5, 0.99999).map(lambda q: lambda n: q**n),
    st.tuples(st.sampled_from([1e-300, 1e-310]), st.floats(0.3, 3.0)).map(lambda sa: lambda n: sa[0] * n ** -sa[1]),
)
ZERO_RUNS = st.lists(st.tuples(st.integers(1, GAP_SUM_TERMS), st.integers(1, GAP_SUM_TERMS // 2)), max_size=3)


@settings(max_examples=12, deadline=None)
@given(DECREASING_RULES, ZERO_RUNS, st.lists(st.floats(0.0, 1.5, exclude_min=True), min_size=1, max_size=4))
def test_gap_sum_verdicts_match_the_full_cumsum_on_random_rules(rule, runs, exponents):
    gaps = sequence_gaps(flattened(rule, runs))
    decide = gap_sum_verdicts(gaps)
    for a in [float(a) for a in np.linspace(0.02, 0.98, 49)] + exponents:
        assert decide(a) is full_cumsum_verdict(gaps, a)


def test_gap_sum_verdicts_decide_most_of_the_dimension_pool_without_the_exact_path(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    gens = [op.config["set"]["generator"] for op in workloads.pool("dimension") if "gap_sum" in op.config["methods"]]
    assert len(gens) > 60 and all(gen["kind"] == "power_sequence" for gen in gens)
    exact, verdicts, fallbacks = ds.gap_sum_converges, [], []
    monkeypatch.setattr(ds, "gap_sum_converges", lambda gaps, a: fallbacks.append(a) or exact(gaps, a))
    exp, passes, nonzero = np.exp, [], [0]
    # a full exp pass is one over every nonzero gap; the run-bound tier takes exp of 2 ends per run of 64
    monkeypatch.setattr(np, "exp", lambda x, *a, **kw: passes.append(np.size(x) == nonzero[0]) or exp(x, *a, **kw))
    for gen in gens:
        gaps = sequence_gaps(PowerSequence(gen["a"]).sequence)
        nonzero[0] = np.count_nonzero(gaps)
        decide = gap_sum_verdicts(gaps)
        _threshold_scan(lambda a: verdicts.append(a) or decide(a), "gap_sum")  # the scan of dimension_from_gap_sums
    full = sum(passes)
    assert len(verdicts) - full >= 0.8 * len(verdicts)  # decided by the run bounds
    assert full <= 250 and len(fallbacks) <= 146


def test_gap_sum_verdicts_fall_back_where_the_fast_path_cannot_decide(monkeypatch):
    gaps = np.zeros(GAP_SUM_TERMS)
    gaps[:100] = 1.0  # the middle block is all zeros: the exact path reads an empty block
    exact, fallbacks = ds.gap_sum_converges, []
    monkeypatch.setattr(ds, "gap_sum_converges", lambda g, a: fallbacks.append(a) or exact(g, a))
    decide = gap_sum_verdicts(gaps)
    assert decide(0.5) and fallbacks == [0.5]
    gaps[-1] = 1.0  # a nonzero last block after an empty one
    assert not gap_sum_verdicts(gaps)(0.5)
    swamped = np.full(GAP_SUM_TERMS, 1e-20)
    swamped[0] = 1.0  # the cumsum rounds every later term away: the exact path reads two empty blocks, a ratio of 2
    assert gap_sum_verdicts(swamped)(1.0) and fallbacks == [0.5, 0.5, 1.0]
    harmonic = gap_sum_verdicts(sequence_gaps(lambda n: 1.0 / n))
    assert harmonic(0.6) and fallbacks == [0.5, 0.5, 1.0]  # decided without the exact path
    assert harmonic(1.5) and fallbacks[-1] == 1.5  # exponents past 1 take the exact path
    with pytest.raises(ValueError, match="positive"):
        harmonic(0.0)


@pytest.mark.parametrize("a", [2.5, 3.0])
def test_gap_sum_dimension_of_steep_power_sequences_on_their_offsets(a):
    # the offsets n**-a keep their gaps; on 1 + n**-a most of the 2**17 gaps round to 0 (see README)
    est = dimension_from_gap_sums(PowerSequence(a).offsets)
    assert est.value == pytest.approx(1.0 / (1.0 + a), abs=0.05)


def test_lorentz_membership_cases():
    sched = geometric_schedule(0.5, 1e-5, 21)
    for r in (0.5, 1.0, 2.0):
        res = lorentz_membership(lambda n, rr=r: n ** (-1.0 / rr), r, sched)
        assert res.verdict and res.bound <= 2.0
    assert lorentz_membership(lambda n: 2.0**-n, 0.1, sched).verdict
    assert not lorentz_membership(lambda n: 1.0 / np.log(n + 1.0), 1.0, sched).verdict
    # no term reaches the schedule's smallest scale: every count is 0
    assert lorentz_membership(lambda n: 1e-9 / n, 1.0, sched) == ds.LorentzResult(0.0, True)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_decreasing_gap_dimension_is_r_over_one_plus_r(r):
    block = rescaled_block(DilationSet(PowerSequence(1.0 / r)), 0)
    est = minkowski_dimension(block, SCHED)
    assert est.value == pytest.approx(r / (1.0 + r), abs=0.05)


def test_dimension_from_gap_sums_matches_box_counting():
    est = dimension_from_gap_sums(lambda n: 1.0 / n)
    assert est.method == "gap_sum"
    assert est.value == pytest.approx(0.5, abs=0.05)


def test_dimension_from_gap_sums_evaluates_its_sequence_once():
    calls = []

    def harmonic(n):
        calls.append(n.size)
        return 1.0 / n

    dimension_from_gap_sums(harmonic)
    assert calls == [GAP_SUM_TERMS + 1]


# --- two-sided dimension lemma -----------------------------------------------

BOUND_SCHED = geometric_schedule(0.35, 0.7e-5, 40)


def bound_suite():
    return {
        "two_point": BlockSet(0, np.array([1.0, 2.0])),
        "single": BlockSet(0, np.array([1.4])),
        "cantor6": rescaled_block(DilationSet(CantorLike(3, (0, 2), 6)), 0),
        "cantor9": rescaled_block(DilationSet(CantorLike(3, (0, 2), 9)), 0),
        "cantor12": rescaled_block(DilationSet(CantorLike(3, (0, 2), 12)), 0),
        "power_half": rescaled_block(DilationSet(PowerSequence(0.5)), 0, gap_floor=0.5e-5),
        "power_1": rescaled_block(DilationSet(PowerSequence(1.0)), 0, gap_floor=0.5e-5),
        "power_2": rescaled_block(DilationSet(PowerSequence(2.0)), 0, gap_floor=0.5e-5),
        "lacunary": rescaled_block(DilationSet(LacunaryGrid()), 0),
        "union": rescaled_block(
            DilationSet(UnionSet((PowerSequence(1.0), LacunaryGrid()))), 0, gap_floor=0.5e-5
        ),
    }


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
def test_dimension_bound_check_suite(a):
    for name, block in bound_suite().items():
        [report] = dimension_bound_check(block, [a], BOUND_SCHED)
        assert report.passed, f"{name} a={a}: {report}"


def per_exponent_bound_check(block, a, sched, constant):
    """Reference check for one exponent: it counts every scale again for each a."""
    counts = np.array([entropy_number(block, float(d), include_tails=False) for d in sched], dtype=float)
    lhs = float(np.max(sched**a * counts))
    mid = distance_integral(block, a, with_tails=False)
    lam = sched[::-1]
    rhs = 1.0 + float(np.trapezoid(lam**a * counts[::-1], np.log(lam)))
    ratio_left = lhs / mid if mid > 0 else math.inf
    ratio_right = mid / rhs if rhs > 0 else math.inf
    passed = ratio_left <= constant and ratio_right <= constant
    return BoundCheckReport(a, lhs, mid, rhs, ratio_left, ratio_right, passed)


@pytest.mark.parametrize("constant", [10.0, 1.5])
def test_dimension_bound_check_is_the_per_exponent_check_field_by_field(constant):
    exponents = (0.3, 0.5, 0.7, 0.05, 0.95)
    for name, block in bound_suite().items():
        reports = dimension_bound_check(block, exponents, BOUND_SCHED, constant)
        expected = [per_exponent_bound_check(block, a, BOUND_SCHED, constant) for a in exponents]
        assert [asdict(r) for r in reports] == [asdict(r) for r in expected], name
    assert dimension_bound_check(BlockSet(0, np.array([1.0, 2.0])), [], BOUND_SCHED) == []


def test_dimension_bound_check_two_points_detail():
    [report] = dimension_bound_check(BlockSet(0, np.array([1.0, 2.0])), [0.5], BOUND_SCHED)
    assert report.mid == pytest.approx(2.0 * math.sqrt(2.0))
    assert report.ratio_left <= 10 and report.ratio_right <= 10


def test_finite_distance_integral_includes_boundary_strips():
    block = BlockSet(0, np.array([1.25, 1.75]))
    a = 0.5
    expected = 2 * (0.25**a) / a + 2 * (0.25**a) / a  # one interior gap + two strips
    assert distance_integral(block, a, with_tails=False) == pytest.approx(expected)


# --- serialization -----------------------------------------------------------


def test_dimension_estimate_serialization():
    est = minkowski_dimension(BlockSet(0, np.array([1.0, 2.0])), SCHED)
    payload = asdict(est)
    assert set(payload) == {"value", "method", "delta_range", "residual"}
