import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmax.fractional_calculus import (
    HOLDER_CAP,
    SampledPath,
    estimate_hoelder,
    marchaud_derivative,
    marchaud_matrix,
    rescaled_derivative_check,
    rl_integral,
    roundtrip_residual,
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
    path = SampledPath(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9))
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match="order must lie in"):
            marchaud_derivative(path, alpha)
    assert np.all(np.isfinite(marchaud_derivative(path, 0.5).values))


def test_sampled_path_takes_uniform_grids_only():
    with pytest.raises(ValueError, match="grid must be uniform"):
        SampledPath(2.0 * (np.arange(65.0) / 64) ** 2, np.zeros(65))
    g = np.linspace(0.0, 2.0, 3001)  # steps that differ in their last bits are uniform
    assert np.ptp(np.diff(g)) > 0 and np.array_equal(SampledPath(g, g).grid, g)
    g = np.linspace(0.0, 2.0, 8193)  # verify's grid
    assert np.array_equal(SampledPath(g, g).grid, g)
    h = g[1]  # a node moved by 1e-9 of a step, give or take the ulps of the end, is the edge of the rule
    for shift, uniform in ((0.5e-9 * h, True), (2e-9 * h, False)):
        moved = g.copy()
        moved[4096] += shift
        if uniform:
            SampledPath(moved, moved)
        else:
            with pytest.raises(ValueError, match="grid must be uniform"):
                SampledPath(moved, moved)


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        SampledPath(np.array([0.0, 1.0, np.inf]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 1.0]), np.ones(2), hoelder_exponent=1.5)


# --- Riemann-Liouville integral -------------------------------------------------


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_rl_integral_constant(alpha):
    g = np.linspace(0.0, 2.0, 2049)
    out = rl_integral(SampledPath(g, np.ones_like(g)), alpha)
    np.testing.assert_allclose(out.values.real, g**alpha / math.gamma(alpha + 1), atol=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_rl_integral_linear(alpha):
    g = np.linspace(0.0, 2.0, 2049)
    out = rl_integral(SampledPath(g, g), alpha)
    np.testing.assert_allclose(
        out.values.real, g ** (1 + alpha) / math.gamma(2 + alpha), atol=1e-12
    )


def test_rl_integral_zero_path():
    g = np.linspace(0.0, 1.0, 65)
    out = rl_integral(SampledPath(g, np.zeros_like(g)), 0.5)
    assert np.all(out.values == 0)


@pytest.mark.parametrize("operator", [rl_integral, marchaud_derivative], ids=["rl_integral", "marchaud_derivative"])
def test_rl_integral_requires_origin(operator):
    g = np.linspace(0.5, 1.5, 33)
    with pytest.raises(ValueError, match="start at 0"):
        operator(SampledPath(g, np.ones_like(g)), 0.5)


def rl_matrix(grid, alpha):
    """Dense weights W with (I^alpha F)(t_i) = (W @ F)[i] on any grid, cell by cell: the reference for rl_integral."""
    n = grid.size
    w = np.zeros((n, n))
    for i in range(1, n):
        t = grid[i]
        x2 = t - grid[:i]  # distance to cell left ends
        x1 = t - grid[1 : i + 1]  # distance to cell right ends
        p = (x2**alpha - x1**alpha) / alpha
        q = (x2 ** (alpha + 1) - x1 ** (alpha + 1)) / (alpha + 1)
        lin = x2 * p - q  # moment of (s - t_k) against the kernel
        slope_w = lin / np.diff(grid[: i + 1])
        w[i, :i] += p - slope_w
        w[i, 1 : i + 1] += slope_w
    return w / math.gamma(alpha)


def test_rl_integral_graded_grid_linear():
    g = 2.0 * (np.arange(1025.0) / 1024) ** 2  # nodes cluster toward the origin
    out = rl_matrix(g, 0.5) @ g
    np.testing.assert_allclose(out, g**1.5 / math.gamma(2.5), atol=1e-12)


@pytest.mark.parametrize("n, alpha", [(3, 0.5), (1025, 0.25), (1025, 0.5), (1025, 0.75), (4097, 0.5)])
def test_rl_integral_matches_the_dense_quadrature(n, alpha):
    g = np.linspace(0.0, 2.0, n)
    f = np.sin(3 * g) + 1j * g**2
    ref = rl_matrix(g, alpha) @ f
    out = rl_integral(SampledPath(g, f), alpha)
    assert np.max(np.abs(out.values - ref)) <= 1e-13 * np.max(np.abs(ref))


# --- Marchaud derivative --------------------------------------------------------


def test_marchaud_constant_is_power_law():
    g = np.linspace(0.0, 2.0, 1025)
    d = marchaud_derivative(SampledPath(g, np.ones_like(g)), 0.5)
    np.testing.assert_allclose(d.values.real, d.grid**-0.5 / math.gamma(0.5), rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("beta", [1, 2, 3])
def test_marchaud_power_laws(alpha, beta):
    g = np.linspace(0.0, 2.0, 8193)
    d = marchaud_derivative(SampledPath(g, g ** float(beta)), alpha)
    exact = math.gamma(beta + 1) / math.gamma(beta + 1 - alpha) * d.grid ** (beta - alpha)
    sup_rel = np.max(np.abs(d.values - exact)) / np.max(np.abs(exact))
    assert sup_rel <= 1e-4


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_marchaud_graded_grid_linear(alpha):
    g = 2.0 * (np.arange(65.0) / 64) ** 2  # not uniform: only marchaud_matrix takes it
    d = marchaud_matrix(g, alpha) @ g
    exact = math.gamma(2.0) / math.gamma(2.0 - alpha) * g[1:] ** (1.0 - alpha)
    assert np.max(np.abs(d - exact)) <= 1e-14  # the quadrature is exact for linear data


def test_marchaud_linear_cross_checked_by_quadrature_oracle():
    g = np.linspace(0.0, 2.0, 4097)
    d = marchaud_derivative(SampledPath(g, g), 0.5)
    t = float(d.grid[2048])
    oracle = marchaud_quadrature_oracle(lambda s: s, t, 0.5)
    assert d.values[2048].real == pytest.approx(oracle, rel=1e-6)
    assert oracle == pytest.approx(t**0.5 / math.gamma(1.5), rel=1e-6)


def test_marchaud_excludes_origin_node():
    g = np.linspace(0.0, 1.0, 129)
    d = marchaud_derivative(SampledPath(g, g), 0.5)
    assert d.grid[0] == g[1] and d.grid.size == g.size - 1


def test_marchaud_derivative_names_the_node_count_of_a_short_path():
    # the output drops t = 0, so the operator's own check speaks before the 1-node output's would
    with pytest.raises(ValueError, match="needs at least 3 nodes, got 2"):
        marchaud_derivative(SampledPath(np.linspace(0.0, 2.0, 2), [0.0, 1.0]), 0.5)


def test_marchaud_matrix_order_bounds():
    g = np.linspace(0.0, 1.0, 9)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match="order must lie in"):
            marchaud_matrix(g, alpha)


def test_marchaud_hoelder_precondition():
    g = np.linspace(0.0, 1.0, 129)
    with pytest.raises(ValueError, match="insufficient"):
        marchaud_derivative(SampledPath(g, g, hoelder_exponent=0.3), 0.4)


def test_marchaud_linearity_fixed_grid():
    g = np.linspace(0.0, 2.0, 513)
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
    g = np.linspace(0.0, 2.0, 2049)
    f = np.sin(g) + 0.5 * np.cos(3 * g)
    d = marchaud_derivative(SampledPath(g, f, hoelder_exponent=1.0), 0.01)
    window = d.grid >= 0.25
    dev = np.max(
        np.abs(d.values[window] - f[1:][window]) / np.maximum(np.abs(f[1:][window]), 1e-2)
    )
    assert dev < 0.05


@pytest.mark.parametrize("n", [3, 257, 4099])
def test_marchaud_matrix_matches_uniform_path(n):
    # a dozen rows keep the matrix small; a 3-node grid has only rows 0 and 1
    g = np.linspace(0.0, 2.0, n)
    vals = np.sin(2 * g) + 0.1 * g**2
    rows = np.unique(np.r_[0, 1, 2, np.linspace(0, n - 2, 9).astype(int)].clip(max=n - 2))
    w = marchaud_matrix(g, 0.45, rows=rows)
    direct = marchaud_derivative(SampledPath(g, vals, hoelder_exponent=1.0), 0.45)
    np.testing.assert_allclose(w @ vals, direct.values[rows], rtol=1e-9, atol=1e-11)


def loop_marchaud_matrix(grid, alpha, exponent):
    """The row loop marchaud_matrix had before it took `rows`, kept as the bitwise reference."""
    n = grid.size
    w = np.zeros((n - 1, n))
    ginv = 1.0 / math.gamma(1.0 - alpha)
    for i in range(1, n):
        t = grid[i]
        row = w[i - 1]
        row[i] += ginv * t**-alpha
        h_sing = t - grid[i - 1]
        c_sing = alpha * ginv * h_sing**-alpha / (exponent - alpha)
        row[i] += c_sing
        row[i - 1] -= c_sing
        if i >= 2:
            x2 = t - grid[: i - 1]
            x1 = t - grid[1:i]
            pneg = (x1**-alpha - x2**-alpha) / alpha
            r = (x2 ** (1 - alpha) - x1 ** (1 - alpha)) / (1 - alpha)
            lin = (r - x2 * pneg) / np.diff(grid[:i])
            row[i] += alpha * ginv * float(np.sum(pneg))
            row[: i - 1] += alpha * ginv * (-pneg - lin)
            row[1:i] += alpha * ginv * lin
    return w


@st.composite
def marchaud_cases(draw):
    """A grid from 0 with 2..40 nodes and random steps, an order and row indices."""
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=39))
    grid = np.concatenate([[0.0], np.cumsum(steps)])
    alpha = draw(st.floats(0.05, 0.95))
    rows = draw(st.lists(st.integers(0, grid.size - 2), max_size=2 * grid.size))  # duplicates, or no rows
    return grid, alpha, np.array(rows, dtype=int)


@settings(max_examples=150, deadline=None)
@given(marchaud_cases())
def test_marchaud_matrix_rows_are_the_full_matrix_rows_bit_for_bit(case):
    grid, alpha, rows = case
    full = marchaud_matrix(grid, alpha)
    assert np.array_equal(full, loop_marchaud_matrix(grid, alpha, 1.0))  # a Lipschitz singular cell
    part = marchaud_matrix(grid, alpha, rows)
    assert part.shape == (rows.size, grid.size)
    assert np.array_equal(part, full[rows])


def test_estimate_hoelder_smooth_and_rough():
    g = np.linspace(0.0, 2.0, 1025)
    assert estimate_hoelder(SampledPath(g, np.sin(g))) == 1.0
    rng = np.random.default_rng(3)
    rough = np.cumsum(rng.standard_normal(g.size)) * np.sqrt(g[1])
    est = estimate_hoelder(SampledPath(g, rough))
    assert 0.2 <= est <= 0.9  # Brownian-type increments sit near 1/2


@pytest.mark.parametrize("values", [[0.0, 1.0], [2.0, 2.0], [1.0j, -3.0]], ids=["rising", "flat", "complex"])
def test_estimate_hoelder_on_two_nodes_is_the_cap(values):
    # two nodes leave no two-scale increment to compare, so the estimate is the cap, the local order of a smooth path
    assert estimate_hoelder(SampledPath(np.array([0.0, 1.0]), np.array(values))) == HOLDER_CAP


# --- roundtrip -------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_roundtrip_t_squared(alpha):
    g = np.linspace(0.0, 2.0, 4097)
    assert roundtrip_residual(SampledPath(g, g**2), alpha) <= 1e-3


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_roundtrip_sine_mode(alpha):
    g = np.linspace(0.0, 2.0, 8193)
    assert roundtrip_residual(SampledPath(g, np.sin(2 * np.pi * g)), alpha) <= 1e-3


def test_roundtrip_zero_path():
    g = np.linspace(0.0, 1.0, 65)
    assert roundtrip_residual(SampledPath(g, np.zeros_like(g)), 0.5) == 0.0


def test_roundtrip_halves_under_refinement():
    residuals = []
    for n in (513, 1025, 2049, 4097, 8193):
        g = np.linspace(0.0, 2.0, n)
        residuals.append(roundtrip_residual(SampledPath(g, g**2), 0.5))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= coarse / 2.0


# --- dilation identity -------------------------------------------------------------


def test_rescaled_check_linear():
    assert rescaled_derivative_check(lambda t: t, 1, 0.3, 65) <= 1e-6


def test_rescaled_check_constant():
    assert rescaled_derivative_check(lambda t: np.full_like(t, 2.7), 3, 0.4, 65) <= 1e-12


def test_rescaled_check_needs_two_nodes():
    for nodes in (1, 0):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            rescaled_derivative_check(lambda t: t, 1, 0.3, nodes)
    assert rescaled_derivative_check(lambda t: t, 1, 0.3, 2) <= 1e-6  # s = 1 and s = 2 alone


def test_rescaled_check_quadratic():
    assert rescaled_derivative_check(lambda t: t**2, 2, 0.5, 65, n_grid=16384) <= 1e-5
