import math
from dataclasses import asdict

import numpy as np
import pytest

from fracmax.dilation_sets import (
    BlockSet,
    CantorLike,
    DilationSet,
    ExplicitPoints,
    LacunaryGrid,
    PowerSequence,
    UnionSet,
    augmented,
    dimension_bound_check,
    dimension_from_distance_integral,
    dimension_from_gap_sums,
    distance_integral,
    entropy_number,
    finite_distance_integral,
    gap_sum,
    geometric_schedule,
    kappa,
    lorentz_membership,
    minkowski_dimension,
    rescaled_block,
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


def test_augmented_adjoins_lacunary_grid():
    E = augmented(DilationSet(PowerSequence(1.0)))
    block = rescaled_block(E, 5)
    np.testing.assert_allclose(block.points, [1.0, 2.0])


def test_materialization_cap_flags_truncation():
    E = DilationSet(PowerSequence(1.0), materialization_cap=100)
    block = rescaled_block(E, 0)
    assert len(block) <= 100 and block.truncated


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


def test_entropy_bad_delta():
    block = BlockSet(0, np.array([1.0]))
    with pytest.raises(ValueError):
        entropy_number(block, 0.0)
    with pytest.raises(ValueError):
        entropy_number(block, 1.5)


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


# --- gap sums and weak-type membership ---------------------------------------


def test_gap_sum_verdicts():
    assert gap_sum(lambda n: 1.0 / n, 0.6).convergent
    assert not gap_sum(lambda n: 1.0 / n, 0.5).convergent
    assert gap_sum(lambda n: 2.0**-n, 0.3).convergent
    assert gap_sum(lambda n: 2.0**-n, 0.9).convergent


def test_gap_sum_rejects_increasing():
    with pytest.raises(ValueError, match="not decreasing"):
        gap_sum(lambda n: np.sin(n), 0.5, n_max=64)


def test_gap_sum_partial_sums_match_direct():
    res = gap_sum(lambda n: 1.0 / n, 0.6, n_max=1 << 10)
    n = np.arange(1, (1 << 10) + 1, dtype=float)
    direct = np.cumsum((1.0 / (n * (n + 1.0))) ** 0.6)
    for mark, value in res.checkpoints:
        assert value == pytest.approx(direct[mark - 1])


@pytest.mark.parametrize("a_seq", [0.5, 1.0, 2.0])
def test_gap_sum_flip_matches_corollary(a_seq):
    f = lambda n: 1.0 + n**-a_seq
    lo, hi = 0.05, 0.98
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if gap_sum(f, mid).convergent:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(1.0 / (1.0 + a_seq), abs=0.05)


def test_lorentz_membership_cases():
    sched = geometric_schedule(0.5, 1e-5, 21)
    for r in (0.5, 1.0, 2.0):
        res = lorentz_membership(lambda n, rr=r: n ** (-1.0 / rr), r, sched)
        assert res.verdict and res.bound <= 2.0
    assert lorentz_membership(lambda n: 2.0**-n, 0.1, sched).verdict
    assert not lorentz_membership(lambda n: 1.0 / np.log(n + 1.0), 1.0, sched).verdict


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_decreasing_gap_dimension_is_r_over_one_plus_r(r):
    block = rescaled_block(DilationSet(PowerSequence(1.0 / r)), 0)
    est = minkowski_dimension(block, SCHED)
    assert est.value == pytest.approx(r / (1.0 + r), abs=0.05)


def test_dimension_from_gap_sums_matches_box_counting():
    est = dimension_from_gap_sums(lambda n: 1.0 / n)
    assert est.method == "gap_sum"
    assert est.value == pytest.approx(0.5, abs=0.05)


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
        report = dimension_bound_check(block, a, BOUND_SCHED)
        assert report.passed, f"{name} a={a}: {report}"


def test_dimension_bound_check_two_points_detail():
    report = dimension_bound_check(BlockSet(0, np.array([1.0, 2.0])), 0.5, BOUND_SCHED)
    assert report.mid == pytest.approx(2.0 * math.sqrt(2.0))
    assert report.ratio_left <= 10 and report.ratio_right <= 10


def test_finite_distance_integral_includes_boundary_strips():
    block = BlockSet(0, np.array([1.25, 1.75]))
    a = 0.5
    expected = 2 * (0.25**a) / a + 2 * (0.25**a) / a  # one interior gap + two strips
    assert finite_distance_integral(block, a) == pytest.approx(expected)


# --- serialization -----------------------------------------------------------


def test_dimension_estimate_serialization():
    est = minkowski_dimension(BlockSet(0, np.array([1.0, 2.0])), SCHED)
    payload = asdict(est)
    assert set(payload) == {"value", "method", "delta_range", "residual"}
