import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmax.multipliers import (
    FAMILIES,
    BandBump,
    Custom,
    LimitedDecay,
    Oscillatory,
    Scaled,
    SlowDecay,
    band_oscillation,
    decay_profile,
    embedding_check,
    evaluate,
    mtilde_multiplier,
    mtilde_values,
    phase_cycles,
    radial_derivative,
)
from fracmax.lp_frames import CUTOFF
from fracmax.multipliers import MTILDE_CHUNK, _amplitude, _gauss_nodes, _leggauss, _live_power


def brute_mtilde(m, alpha, rho, n=1_000_000):
    """Midpoint-rule oracle after the grading substitution 1 - r = w**p."""
    p = 3.0 / (1.0 - alpha)
    w = (np.arange(n) + 0.5) / n
    u = w**p
    vals = evaluate(m, rho * (1.0 - u))
    integrand = (evaluate(m, rho) - vals) * u ** (-1.0 - alpha) * p * w ** (p - 1.0)
    return complex(np.sum(integrand) / n)


# --- evaluation ---------------------------------------------------------------


def test_eval_limited_decay_at_four():
    # phase e^{2 pi i * 4} is trivial and 1 - phi = 1 there
    assert evaluate(LimitedDecay(1.0), 4.0) == pytest.approx(0.25)


def test_eval_oscillatory_integral_phase():
    # |xi|^0.5 = 2 at |xi| = 4, so the phase is again a full turn
    assert evaluate(Oscillatory(0.5, 1.0), 4.0) == pytest.approx(0.25)


def test_eval_vanishes_at_origin():
    for m in (LimitedDecay(1.0), SlowDecay(1.0, 0.5), Oscillatory(0.5, 1.0), BandBump()):
        assert evaluate(m, 0.0) == 0.0
        assert np.max(np.abs(evaluate(m, np.linspace(0, 0.5, 64)))) == 0.0


def test_eval_bounded_everywhere():
    xi = np.geomspace(1e-3, 1e4, 301)
    for m in (LimitedDecay(0.5), SlowDecay(1.0, 0.5), Oscillatory(0.5, 1.0), BandBump()):
        vals = np.abs(evaluate(m, xi))
        assert np.all(np.isfinite(vals))
        assert np.all(vals <= 1.0 + xi ** -0.5 + 1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        LimitedDecay(0.0)
    with pytest.raises(ValueError):
        SlowDecay(1.0, 1.0)
    with pytest.raises(ValueError):
        Oscillatory(1.0, 1.0)
    with pytest.raises(ValueError):
        Scaled(BandBump(), -1.0)


def two_pi_phase_ladder(rho, alpha, beta, order):
    """Radial derivatives of e^{2 pi i rho**alpha} * amplitude(beta), with 2 pi written into each coefficient."""
    phase = np.exp(2j * np.pi * np.where(rho > 0, rho, 0.0) ** alpha)
    a = _amplitude(rho, beta, order)
    if order == 0:
        return phase * a[0]
    theta1 = _live_power(rho, 2.0 * np.pi * alpha, alpha - 1.0)
    if order == 1:
        return phase * (1j * theta1 * a[0] + a[1])
    theta2 = _live_power(rho, 2.0 * np.pi * alpha * (alpha - 1.0), alpha - 2.0)
    return phase * (-(theta1**2) * a[0] + 2j * theta1 * a[1] + 1j * theta2 * a[0] + a[2])


def cosine_ladder(rho, beta, delta, order):
    """Radial derivatives of (1 - phi) rho**-beta cos(rho**w), w = 1 - delta, by the chain rule on cos and sin."""
    w = 1.0 - delta
    arg = np.where(rho > 0, rho, 0.0) ** w
    a = _amplitude(rho, beta, order)
    if order == 0:
        return a[0] * np.cos(arg)
    w1 = _live_power(rho, w, w - 1.0)
    if order == 1:
        return a[1] * np.cos(arg) - a[0] * w1 * np.sin(arg)
    w2 = _live_power(rho, w * (w - 1.0), w - 2.0)
    return a[2] * np.cos(arg) - 2.0 * a[1] * w1 * np.sin(arg) - a[0] * (w2 * np.sin(arg) + w1**2 * np.cos(arg))


def test_radial_derivative_matches_finite_difference():
    # radii through the cutoff's transitions at 1/2..2 and 1..2, where every closed-form term is live
    rho = np.linspace(0.55, 3.95, 69)
    families = (
        LimitedDecay(1.0), SlowDecay(1.0, 0.5), Oscillatory(0.5, 1.0), BandBump(),
        Scaled(LimitedDecay(1.0), 2.0), Scaled(BandBump(), 0.7),
        SlowDecay(0.3, 0.9), Scaled(SlowDecay(1.0, 0.5), 1.37), Oscillatory(0.3, 0.7),
    )
    for m in families:
        h = 1e-6
        fd1 = (evaluate(m, rho + h) - evaluate(m, rho - h)) / (2 * h)
        d1 = radial_derivative(m, rho, 1)
        assert np.max(np.abs(d1 - fd1)) <= 1e-8 * np.max(np.abs(d1)), m
        h = 1e-4
        fd2 = (evaluate(m, rho + h) - 2 * evaluate(m, rho) + evaluate(m, rho - h)) / h**2
        d2 = radial_derivative(m, rho, 2)
        assert np.max(np.abs(d2 - fd2)) <= 1e-5 * np.max(np.abs(d2)), m

    # the three oscillating families share one phase x amplitude ladder: LimitedDecay and
    # Oscillatory at phase rate 2 pi keep the bits of a ladder with 2 pi in every coefficient,
    # and SlowDecay is its real part at phase rate 1, a cosine ladder up to round-off
    def reference(m, rho, order):
        if isinstance(m, Scaled):
            return m.r**order * reference(m.base, m.r * rho, order)
        if isinstance(m, SlowDecay) and order == 0:
            return (1 - CUTOFF.phi(rho)) * rho**-m.beta * np.cos(rho ** (1.0 - m.delta))
        if isinstance(m, SlowDecay):
            return cosine_ladder(rho, m.beta, m.delta, order)
        if isinstance(m, LimitedDecay):
            return two_pi_phase_ladder(rho, 1.0, m.a, order)
        return two_pi_phase_ladder(rho, m.alpha, m.beta, order)

    wide = np.concatenate([rho, np.geomspace(4.0, 2.0**20, 400)])
    for m in families:
        base = m.base if isinstance(m, Scaled) else m
        if isinstance(base, BandBump):
            continue
        for order in range(3):
            got, ref = radial_derivative(m, wide, order), reference(m, wide, order)
            if isinstance(base, SlowDecay) and order > 0:
                assert got.dtype == np.float64, (m, order)
                assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(got)), (m, order)
            else:
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (m, order)


def test_scaled_has_value_equality_and_custom_has_identity():
    assert Scaled(LimitedDecay(1.0), 2.0) == Scaled(LimitedDecay(1.0), 2.0)
    assert hash(Scaled(LimitedDecay(1.0), 2.0)) == hash(Scaled(LimitedDecay(1.0), 2.0))
    assert Scaled(LimitedDecay(1.0), 2.0) != Scaled(LimitedDecay(1.0), 3.0)
    one = Custom(np.ones_like)
    assert one == one and Custom(np.ones_like) != Custom(np.ones_like)
    assert Scaled(Custom(np.ones_like), 2.0) != Scaled(Custom(np.ones_like), 2.0)


def test_scaled_multiplier_composition():
    # m(2 (3 rho)) is m(6 rho): scaling by 2 is exact, so the nested form keeps the bits at every order
    m = Scaled(Scaled(LimitedDecay(1.0), 2.0), 3.0)
    rho = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 301)])
    for order in range(3):
        got, ref = radial_derivative(m, rho, order), radial_derivative(Scaled(LimitedDecay(1.0), 6.0), rho, order)
        assert got.tobytes() == ref.tobytes(), order
    np.testing.assert_allclose(
        evaluate(m, np.array([2.0])), evaluate(LimitedDecay(1.0), np.array([12.0]))
    )


# --- decay profiles -------------------------------------------------------------


def test_decay_profile_limited_decay_all_orders():
    prof = decay_profile(LimitedDecay(1.0), (3, 10), 1)
    assert prof[0] == pytest.approx(-1.0, abs=0.1)
    assert prof[1] == pytest.approx(-1.0, abs=0.1)


def test_decay_profile_oscillatory_first_derivative():
    prof = decay_profile(Oscillatory(0.5, 1.0), (3, 10), 1)
    assert prof[1] == pytest.approx(-1.5, abs=0.1)


def test_decay_profile_slow_decay_second_derivative():
    # the slow phase needs wider bands before the envelope dominates
    prof = decay_profile(SlowDecay(1.0, 0.5), (5, 12), 2)
    assert prof[0] == pytest.approx(-1.0, abs=0.1)
    assert prof[1] == pytest.approx(-1.5, abs=0.1)
    assert prof[2] == pytest.approx(-2.0, abs=0.1)


# --- the fractional-difference transform ------------------------------------------


def test_mtilde_zero_multiplier():
    vals, flags = mtilde_values(Custom(lambda r: np.zeros_like(r)), 0.5, np.geomspace(0.1, 10, 11))
    assert np.all(vals == 0) and not np.any(flags)


def test_mtilde_against_brute_force_oracle():
    for (m, rho, alpha) in [
        (LimitedDecay(1.0), 8.0, 0.4),
        (BandBump(), 1.3, 0.3),
        (Oscillatory(0.5, 1.0), 5.0, 0.5),
    ]:
        oracle = brute_mtilde(m, alpha, rho)
        mine, _ = mtilde_values(m, alpha, np.array([rho]))
        assert abs(mine[0] - oracle) <= 1e-5


def test_verify_oracle_agreement_keeps_the_one_array_sum(verify_all_twice):
    # verify's oracle fills its 400k terms a chunk at a time and sums them once, so it reads the one-array sum's bits
    checks = {c["name"]: c for s in json.loads(verify_all_twice[0].report)["suites"] for c in s["checks"]}
    mine, _ = mtilde_values(LimitedDecay(1.0), 0.4, np.array([8.0]))
    one_array = abs(mine[0] - brute_mtilde(LimitedDecay(1.0), 0.4, 8.0, n=400_000))
    assert checks["mtilde_oracle_agreement"]["measured"] == one_array


def test_mtilde_plateau_ray_has_no_inner_contribution():
    # symbol constant on [rho/2, rho]: the r in [1/2, 1] piece vanishes, so
    # the transform equals the plain integral over [0, 1/2]
    rho = 4.0
    alpha = 0.4
    plateau = Custom(lambda r: np.where(r >= rho / 2.0, 1.0, 0.0).astype(complex))
    vals, _ = mtilde_values(plateau, alpha, np.array([rho]))
    r_nodes = np.linspace(0, 0.5, 200_001)[:-1] + 0.5 / 200_000
    direct = np.mean(
        (1.0 - np.where(r_nodes * rho >= rho / 2.0, 1.0, 0.0)) * (1 - r_nodes) ** (-1 - alpha)
    ) * 0.5
    assert vals[0].real == pytest.approx(direct, rel=1e-3)
    assert vals[0].imag == 0.0


def test_mtilde_linearity():
    c1 = Custom(lambda r: evaluate(LimitedDecay(1.0), r))
    c2 = Custom(lambda r: evaluate(BandBump(), r))
    both = Custom(lambda r: 2.0 * evaluate(LimitedDecay(1.0), r) + 3.0 * evaluate(BandBump(), r))
    rho = np.geomspace(0.6, 30.0, 17)
    v1, _ = mtilde_values(c1, 0.4, rho)
    v2, _ = mtilde_values(c2, 0.4, rho)
    vs, _ = mtilde_values(both, 0.4, rho)
    np.testing.assert_allclose(vs, 2 * v1 + 3 * v2, atol=1e-10)


def test_mtilde_bounded_for_all_builtins():
    rho = np.geomspace(1e-2, 2.0**14, 120)
    for m in (LimitedDecay(1.0), Oscillatory(0.5, 1.0), SlowDecay(1.0, 0.5), BandBump()):
        vals, _ = mtilde_values(m, 0.45, rho)
        assert np.all(np.isfinite(np.abs(vals)))
        assert np.max(np.abs(vals)) < 50.0


BUILTINS = [LimitedDecay(1.0), Oscillatory(0.5, 1.0), SlowDecay(1.0, 0.5), BandBump()]


@settings(max_examples=25, deadline=None)
@given(
    m=st.sampled_from(BUILTINS),
    alpha=st.floats(0.1, 0.9),
    xi=st.lists(st.floats(-5000.0, 5000.0), min_size=1, max_size=6),
)
@example(m=LimitedDecay(1.0), alpha=0.45, xi=[3.0, 4000.0])
@example(m=SlowDecay(1.0, 0.5), alpha=0.5, xi=[1e-200, 0.0])  # powers of tiny radii used to overflow into NaN
@example(m=LimitedDecay(1.0), alpha=0.45, xi=[2049.0, -2050.5, 2052.0, 3000.0, 4096.0])  # 2**15 nodes: 2 radii a chunk
def test_mtilde_is_pointwise(m, alpha, xi):
    # a value and its flag must not depend on which other points share the batch
    xi = np.array(xi)
    vals, flags = mtilde_values(m, alpha, xi)
    wrapped = evaluate(mtilde_multiplier(m, alpha), xi)
    for i in range(xi.size):
        alone, alone_flag = mtilde_values(m, alpha, xi[i : i + 1])
        assert vals[i] == alone[0] and flags[i] == alone_flag[0]
        assert wrapped[i] == evaluate(mtilde_multiplier(m, alpha), xi[i : i + 1])[0]


def test_mtilde_memory_is_bounded_by_the_chunk():
    # 64 radii of the top octave below 4096 take 2**15 nodes each; one batch of them held about 140 MB traced
    rho = np.linspace(2049.0, 4096.0, 64)
    tracemalloc.start()
    try:
        vals, _ = mtilde_values(LimitedDecay(1.0), 0.45, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak < 12 * 16 * MTILDE_CHUNK  # a few chunk-sized complex arrays, whatever the batch's size


def test_mtilde_multiplier_matches_values():
    wrapper = mtilde_multiplier(LimitedDecay(1.0), 0.4)
    rho = np.geomspace(0.5, 64.0, 33)
    direct, _ = mtilde_values(LimitedDecay(1.0), 0.4, rho)
    np.testing.assert_allclose(evaluate(wrapper, rho), direct, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n", [32, 64, 512])
def test_gauss_nodes_one_panel_is_the_plain_rule(n):
    lo, hi = 0.25, 1.5
    x, w = _leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes, weights = _gauss_nodes(n, lo, hi)
    assert nodes.tobytes() == (mid + half * x).tobytes()
    assert weights.tobytes() == (half * w).tobytes()
    assert np.sum(weights) == pytest.approx(hi - lo, rel=1e-13)


def test_gauss_nodes_split_into_512_node_panels():
    lo, hi = 0.25, 1.5
    nodes, weights = _gauss_nodes(1024, lo, hi)
    x, w = _leggauss(512)
    half = 0.25 * (hi - lo)
    for k, mid in enumerate((lo + half, hi - half)):
        np.testing.assert_allclose(nodes[512 * k : 512 * (k + 1)], mid + half * x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights[512 * k : 512 * (k + 1)], half * w, rtol=1e-14)
    assert np.all(np.diff(nodes) > 0)
    assert np.sum(weights) == pytest.approx(hi - lo, rel=1e-13)


def test_phase_cycles_and_band_oscillation():
    assert phase_cycles(LimitedDecay(1.0), 64.0) == 64.0
    assert phase_cycles(Oscillatory(0.5, 1.0), 64.0) == pytest.approx(8.0)
    assert band_oscillation(LimitedDecay(1.0), 5) == pytest.approx(32.0)
    assert band_oscillation(BandBump(), 5) == 0.0


# --- embedding check ---------------------------------------------------------------


def test_embedding_check_zero_multiplier_passes_as_zero():
    ratio = embedding_check(Custom(lambda r: np.zeros_like(r)), 0.3, 0.1, 2.0, 1.0, (-2, 3))
    assert ratio == 0.0


def test_embedding_check_band_bump():
    ratio = embedding_check(BandBump(), 0.3, 0.1, 2.0, 1.0, (-2, 5))
    assert 0 < ratio <= 32.0


def test_embedding_check_limited_decay():
    ratio = embedding_check(LimitedDecay(1.5), 0.4, 0.1, 2.0, 0.5, (-2, 5))
    assert ratio <= 32.0


# --- wire format ---------------------------------------------------------------------


def test_multiplier_json_roundtrip():
    for m in (LimitedDecay(1.0), SlowDecay(1.0, 0.5), Oscillatory(0.5, 1.0), BandBump()):
        assert FAMILIES.from_json(FAMILIES.to_json(m)) == m
    parsed = FAMILIES.from_json(json.loads('{"family": "oscillatory", "alpha": 0.5, "beta": 1.0}'))
    assert parsed == Oscillatory(0.5, 1.0)
    with pytest.raises(ValueError, match="unknown multiplier family"):
        FAMILIES.from_json({"family": "mystery"})
    # int-valued numbers are echoed as floats, extra keys ignored, missing fields KeyError
    parsed = FAMILIES.from_json({"family": "limited_decay", "a": 1, "note": "x"})
    assert json.dumps(FAMILIES.to_json(parsed)) == '{"family": "limited_decay", "a": 1.0}'
    # the tag comes first, then the fields in their declared order
    assert json.dumps(FAMILIES.to_json(SlowDecay(1.0, 0.5))) == '{"family": "slow_decay", "beta": 1.0, "delta": 0.5}'
    assert json.dumps(FAMILIES.to_json(BandBump())) == '{"family": "band_bump"}'
    with pytest.raises(KeyError):
        FAMILIES.from_json({"family": "slow_decay", "beta": 1.0})
    with pytest.raises(ValueError, match="family Custom has no wire format"):
        FAMILIES.to_json(Custom(np.abs))
