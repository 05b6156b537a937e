import math

import numpy as np
import pytest

from fracmax.fractional_calculus import (
    SampledPath,
    estimate_hoelder,
    marchaud_derivative,
    marchaud_matrix,
    rescaled_derivative_check,
    rl_integral,
    roundtrip_residual,
    uniform_grid,
)


def marchaud_quadrature_oracle(f, t, alpha, n=200_000):
    """High-resolution singular quadrature of the Marchaud formula at one node.

    Substitutes t - s = v**p with p = 3/(1-alpha) so the integrand becomes C^2
    at the singular end, then applies the midpoint rule.
    """
    p = 3.0 / (1.0 - alpha)
    v_edge = t ** (1.0 / p)
    v = (np.arange(n) + 0.5) * (v_edge / n)
    u = v**p
    integrand = (f(t) - f(t - u)) * u ** (-1.0 - alpha) * p * v ** (p - 1.0)
    integral = float(np.sum(integrand)) * (v_edge / n)
    return (f(t) / t**alpha + alpha * integral) / math.gamma(1.0 - alpha)


# --- types --------------------------------------------------------------------


def test_fractional_order_bounds():
    path = SampledPath(uniform_grid(1.0, 9), uniform_grid(1.0, 9))
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match="order must lie in"):
            marchaud_derivative(path, alpha)
    assert np.all(np.isfinite(marchaud_derivative(path, 0.5).values))


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 1.0]), np.ones(2), hoelder_exponent=1.5)


# --- Riemann-Liouville integral -------------------------------------------------


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_rl_integral_constant(alpha):
    g = uniform_grid(2.0, 2049)
    out = rl_integral(SampledPath(g, np.ones_like(g)), alpha)
    np.testing.assert_allclose(out.values.real, g**alpha / math.gamma(alpha + 1), atol=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_rl_integral_linear(alpha):
    g = uniform_grid(2.0, 2049)
    out = rl_integral(SampledPath(g, g), alpha)
    np.testing.assert_allclose(
        out.values.real, g ** (1 + alpha) / math.gamma(2 + alpha), atol=1e-12
    )


def test_rl_integral_zero_path():
    g = uniform_grid(1.0, 65)
    out = rl_integral(SampledPath(g, np.zeros_like(g)), 0.5)
    assert np.all(out.values == 0)


def test_rl_integral_requires_origin():
    g = np.linspace(0.5, 1.5, 33)
    with pytest.raises(ValueError, match="start at 0"):
        rl_integral(SampledPath(g, np.ones_like(g)), 0.5)


def test_rl_integral_graded_grid_linear():
    g = 2.0 * (np.arange(1025.0) / 1024) ** 2  # nodes cluster toward the origin
    out = rl_integral(SampledPath(g, g), 0.5)
    np.testing.assert_allclose(out.values.real, g**1.5 / math.gamma(2.5), atol=1e-12)


# --- Marchaud derivative --------------------------------------------------------


def test_marchaud_constant_is_power_law():
    g = uniform_grid(2.0, 1025)
    d = marchaud_derivative(SampledPath(g, np.ones_like(g)), 0.5)
    np.testing.assert_allclose(d.values.real, d.grid**-0.5 / math.gamma(0.5), rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("beta", [1, 2, 3])
def test_marchaud_power_laws(alpha, beta):
    g = uniform_grid(2.0, 8193)
    d = marchaud_derivative(SampledPath(g, g ** float(beta)), alpha)
    exact = math.gamma(beta + 1) / math.gamma(beta + 1 - alpha) * d.grid ** (beta - alpha)
    sup_rel = np.max(np.abs(d.values - exact)) / np.max(np.abs(exact))
    assert sup_rel <= 1e-4


def test_marchaud_linear_cross_checked_by_quadrature_oracle():
    g = uniform_grid(2.0, 4097)
    d = marchaud_derivative(SampledPath(g, g), 0.5)
    t = float(d.grid[2048])
    oracle = marchaud_quadrature_oracle(lambda s: s, t, 0.5)
    assert d.values[2048].real == pytest.approx(oracle, rel=1e-6)
    assert oracle == pytest.approx(t**0.5 / math.gamma(1.5), rel=1e-6)


def test_marchaud_excludes_origin_node():
    g = uniform_grid(1.0, 129)
    d = marchaud_derivative(SampledPath(g, g), 0.5)
    assert d.grid[0] == g[1] and len(d) == len(g) - 1


def test_marchaud_hoelder_precondition():
    g = uniform_grid(1.0, 129)
    with pytest.raises(ValueError, match="insufficient"):
        marchaud_derivative(SampledPath(g, g, hoelder_exponent=0.3), 0.4)


def test_marchaud_linearity_fixed_grid():
    g = uniform_grid(2.0, 513)
    f1, f2 = np.sin(g), g**2 + 1j * g
    combined = marchaud_derivative(SampledPath(g, 2 * f1 + 3 * f2, hoelder_exponent=1.0), 0.4)
    parts = (
        2 * marchaud_derivative(SampledPath(g, f1, hoelder_exponent=1.0), 0.4).values
        + 3 * marchaud_derivative(SampledPath(g, f2, hoelder_exponent=1.0), 0.4).values
    )
    np.testing.assert_allclose(combined.values, parts, atol=1e-11)


def test_marchaud_order_zero_limit():
    # pointwise limit alpha -> 0; checked away from the origin where the
    # t**-alpha factor is already within a few percent of 1
    g = uniform_grid(2.0, 2049)
    f = np.sin(g) + 0.5 * np.cos(3 * g)
    d = marchaud_derivative(SampledPath(g, f, hoelder_exponent=1.0), 0.01)
    window = d.grid >= 0.25
    dev = np.max(
        np.abs(d.values[window] - f[1:][window]) / np.maximum(np.abs(f[1:][window]), 1e-2)
    )
    assert dev < 0.05


def test_marchaud_matrix_matches_uniform_path():
    g = uniform_grid(2.0, 257)
    vals = np.sin(2 * g) + 0.1 * g**2
    w = marchaud_matrix(g, 0.45, exponent=1.0)
    direct = marchaud_derivative(SampledPath(g, vals, hoelder_exponent=1.0), 0.45)
    np.testing.assert_allclose(w @ vals, direct.values, rtol=1e-9, atol=1e-11)


def test_estimate_hoelder_smooth_and_rough():
    g = uniform_grid(2.0, 1025)
    assert estimate_hoelder(SampledPath(g, np.sin(g))) == 1.0
    rng = np.random.default_rng(3)
    rough = np.cumsum(rng.standard_normal(g.size)) * np.sqrt(g[1])
    est = estimate_hoelder(SampledPath(g, rough))
    assert 0.2 <= est <= 0.9  # Brownian-type increments sit near 1/2


# --- roundtrip -------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_roundtrip_t_squared(alpha):
    g = uniform_grid(2.0, 4097)
    assert roundtrip_residual(SampledPath(g, g**2), alpha) <= 1e-3


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_roundtrip_sine_mode(alpha):
    g = uniform_grid(2.0, 8193)
    assert roundtrip_residual(SampledPath(g, np.sin(2 * np.pi * g)), alpha) <= 1e-3


def test_roundtrip_zero_path():
    g = uniform_grid(1.0, 65)
    assert roundtrip_residual(SampledPath(g, np.zeros_like(g)), 0.5) == 0.0


def test_roundtrip_halves_under_refinement():
    residuals = []
    for n in (513, 1025, 2049, 4097, 8193):
        g = uniform_grid(2.0, n)
        residuals.append(roundtrip_residual(SampledPath(g, g**2), 0.5))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= coarse / 2.0


# --- dilation identity -------------------------------------------------------------


def test_rescaled_check_linear():
    s = np.linspace(1.0, 2.0, 65)
    assert rescaled_derivative_check(lambda t: t, 1, 0.3, s) <= 1e-6


def test_rescaled_check_constant():
    s = np.linspace(1.0, 2.0, 65)
    assert rescaled_derivative_check(lambda t: np.full_like(t, 2.7), 3, 0.4, s) <= 1e-12


def test_rescaled_check_quadratic():
    s = np.linspace(1.0, 2.0, 65)
    assert rescaled_derivative_check(lambda t: t**2, 2, 0.5, s, n_grid=16384) <= 1e-5
