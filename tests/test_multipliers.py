import json

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
    scaled,
)


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


def test_radial_derivative_matches_finite_difference():
    rho = np.linspace(2.5, 40.0, 41)
    h = 1e-5
    for m in (LimitedDecay(1.0), SlowDecay(1.0, 0.5), Oscillatory(0.5, 1.0), BandBump()):
        fd = (evaluate(m, rho + h) - evaluate(m, rho - h)) / (2 * h)
        np.testing.assert_allclose(radial_derivative(m, rho, 1), fd, rtol=1e-4, atol=1e-6)


def test_scaled_multiplier_composition():
    m = scaled(scaled(LimitedDecay(1.0), 2.0), 3.0)
    assert isinstance(m, Scaled) and m.r == 6.0
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
def test_mtilde_is_pointwise(m, alpha, xi):
    # a value and its flag must not depend on which other points share the batch
    xi = np.array(xi)
    vals, flags = mtilde_values(m, alpha, xi)
    wrapped = evaluate(mtilde_multiplier(m, alpha), xi)
    for i in range(xi.size):
        alone, alone_flag = mtilde_values(m, alpha, xi[i : i + 1])
        assert vals[i] == alone[0] and flags[i] == alone_flag[0]
        assert wrapped[i] == evaluate(mtilde_multiplier(m, alpha), xi[i : i + 1])[0]


def test_mtilde_multiplier_matches_values():
    wrapper = mtilde_multiplier(LimitedDecay(1.0), 0.4)
    rho = np.geomspace(0.5, 64.0, 33)
    direct, _ = mtilde_values(LimitedDecay(1.0), 0.4, rho)
    np.testing.assert_allclose(evaluate(wrapper, rho), direct, rtol=1e-9, atol=1e-12)


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
    with pytest.raises(KeyError):
        FAMILIES.from_json({"family": "slow_decay", "beta": 1.0})
    with pytest.raises(ValueError, match="family Custom has no wire format"):
        FAMILIES.to_json(Custom(np.abs))
