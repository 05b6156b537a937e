"""Riemann-Liouville fractional integral and Marchaud-form fractional derivative.

Both operators use product integration on the linear interpolant of the
sampled path, with every kernel moment evaluated in closed form, so the
quadrature is exact for piecewise-linear data.  The cell touching the
singularity of the derivative kernel is integrated against a local power
model (t - s)**b with the difference quotient of the path, where b is the
declared (or estimated) Hoelder exponent capped at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

HOLDER_CAP = 1.0
HOLDER_FLOOR = 0.05


def _cell_sums(values: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Entry i sums left[m] F_{i-m} + right[m] F_{i-m+1} over the cells m = 1..i of [0, t_i]; left[0] must be 0."""
    n = values.size
    shifted = np.append(right[1:], 0.0)  # shift: coefficient of F_{i-k} with k = m-1
    size = 1 << (2 * n - 1).bit_length()  # 2n - 1 points or more: the first n entries do not wrap
    sums = np.fft.ifft(np.fft.fft(values, size) * np.fft.fft(left + shifted, size))[:n]  # one combined kernel
    # the shifted kernel drags in an out-of-range cell (k = -1) at each node
    return sums - shifted * values[0]


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A complex-valued path sampled on a uniform grid in [0, T].

    The grid is uniform when every step equals the first to a relative 1e-9,
    plus 8 ulps of the grid's end; any other grid is rejected.
    """

    grid: np.ndarray
    values: np.ndarray
    hoelder_exponent: float | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two nodes")
        h = np.diff(grid)
        if grid[0] < 0 or np.any(h <= 0) or not np.isfinite(grid[-1]):  # an infinite end would widen the slack below
            raise ValueError("grid must be finite, nonnegative and strictly increasing")
        if not np.all(np.abs(h - h[0]) <= 1e-9 * h[0] + 8 * np.finfo(float).eps * abs(float(grid[-1]))):
            raise ValueError("grid must be uniform")
        if values.shape != grid.shape:
            raise ValueError("one value per grid node required")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("path values must be finite")
        if self.hoelder_exponent is not None and not 0 < self.hoelder_exponent <= 1:
            raise ValueError("declared Hoelder exponent must lie in (0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def _order(alpha, path: SampledPath) -> float:
    """alpha as a float, once it lies in (0, 1) and the path is sampled from t = 0."""
    if not 0 < alpha < 1:
        raise ValueError(f"order must lie in (0, 1), got {alpha}")
    if path.grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    return float(alpha)


def estimate_hoelder(path: SampledPath) -> float:
    """Median two-scale increment exponent, capped at 1.

    Compares |F(t+2h) - F(t)| against |F(t+h) - F(t)|; the exponent of a
    C^0,b path makes the ratio ~ 2**b.
    """
    v = path.values
    if v.size < 3:
        return HOLDER_CAP
    d1 = np.abs(v[1:-1] - v[:-2])
    d2 = np.abs(v[2:] - v[:-2])
    scale = np.max(np.abs(v)) + 1e-300
    mask = d1 > 1e-13 * scale
    if not np.any(mask):
        return HOLDER_CAP
    ratios = d2[mask] / d1[mask]
    est = float(np.median(np.log2(np.maximum(ratios, 1e-12))))
    if est > 0.95:  # estimator bias on smooth paths; the local order is 1
        return HOLDER_CAP
    return min(HOLDER_CAP, max(HOLDER_FLOOR, est))


# ---------------------------------------------------------------------------
# Riemann-Liouville integral


def _rl_uniform(values: np.ndarray, alpha: float, h: float) -> np.ndarray:
    n = values.shape[-1]
    m = np.arange(0, n, dtype=float)
    pm = (m**alpha - np.maximum(m - 1, 0) ** alpha) / alpha
    qm = (m ** (alpha + 1) - np.maximum(m - 1, 0) ** (alpha + 1)) / (alpha + 1)
    u = qm - (m - 1) * pm  # coefficient of F_{n-m}, m >= 1
    v = m * pm - qm  # coefficient of F_{n-m+1}, m >= 1
    u[0] = 0.0
    out = h**alpha / math.gamma(alpha) * _cell_sums(values, u, v)
    out[0] = 0.0
    return out


def rl_integral(path: SampledPath, alpha) -> SampledPath:
    """Riemann-Liouville integral I^alpha on the path's own (uniform, see SampledPath) grid.

    The path must be sampled from t = 0; the value at the first node is the
    integral's limit 0.
    """
    a = _order(alpha, path)
    return SampledPath(path.grid, _rl_uniform(path.values, a, float(path.grid[1] - path.grid[0])))


# ---------------------------------------------------------------------------
# Marchaud-form derivative


def _marchaud_uniform(values, alpha, h, grid, exponent):
    n = values.shape[-1]
    m = np.arange(0, n, dtype=float)
    pm = np.zeros(n)
    rm = np.zeros(n)
    if n > 2:
        mm = m[2:]
        pm[2:] = ((mm - 1) ** -alpha - mm**-alpha) / alpha
        rm[2:] = (mm ** (1 - alpha) - (mm - 1) ** (1 - alpha)) / (1 - alpha)
    am = (m - 1) * pm - rm  # coefficient of F_{i-m}, m >= 2
    bm = rm - m * pm  # coefficient of F_{i-m+1}, m >= 2; bm[1] is exactly 0
    i = np.arange(1, n, dtype=float)
    sum_p = (1.0 - i**-alpha) / alpha  # telescoped sum of P_m, m = 2..i
    integral = h**-alpha * (
        values[1:] * sum_p
        + _cell_sums(values, am, bm)[1:]
        + (values[1:] - values[:-1]) / (exponent - alpha)
    )
    point = values[1:] * grid[1:] ** -alpha
    return (point + alpha * integral) / math.gamma(1.0 - alpha)


def marchaud_matrix(grid: np.ndarray, alpha: float, rows=None) -> np.ndarray:
    """Dense weights W with (D^alpha F)(t_i) = (W @ F)[i-1] on any grid.

    Rows correspond to the interior nodes grid[1:]; given `rows`, only the
    rows at those indices are built.  The singular cell takes the path as
    Lipschitz, of local order HOLDER_CAP.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"order must lie in (0, 1), got {alpha}")
    n = grid.size
    rows = np.arange(n - 1) if rows is None else np.asarray(rows, dtype=int)
    w = np.zeros((rows.size, n))
    ginv = 1.0 / math.gamma(1.0 - alpha)
    step = np.diff(grid)
    for row, i in zip(w, rows + 1):
        t = grid[i]
        c_sing = alpha * ginv * step[i - 1] ** -alpha / (HOLDER_CAP - alpha)
        row[i] = ginv * t**-alpha + c_sing
        row[i - 1] -= c_sing
        if i >= 2:  # distances to the cells' left ends are d[:-1], to their right ends d[1:]: one pow each per node
            d = t - grid[:i]
            d_neg, d_pos = d**-alpha, d ** (1 - alpha)
            pneg = (d_neg[1:] - d_neg[:-1]) / alpha
            r = (d_pos[:-1] - d_pos[1:]) / (1 - alpha)
            lin = (r - d[:-1] * pneg) / step[: i - 1]
            row[i] += alpha * ginv * float(np.sum(pneg))
            row[: i - 1] += alpha * ginv * (-pneg - lin)
            row[1:i] += alpha * ginv * lin
    return w


def marchaud_derivative(path: SampledPath, alpha) -> SampledPath:
    """Marchaud-form fractional derivative on the interior nodes of the path's uniform grid (see SampledPath).

    Requires three nodes or more, and alpha below the path's declared (or
    estimated) Hoelder exponent; the node t = 0 is excluded from the output.
    """
    a = _order(alpha, path)
    if path.grid.size < 3:  # the output drops t = 0 and must keep two nodes
        raise ValueError(f"the Marchaud derivative needs at least 3 nodes, got {path.grid.size}")
    exponent = path.hoelder_exponent if path.hoelder_exponent is not None else estimate_hoelder(path)
    if a >= exponent:
        raise ValueError(
            f"Hoelder order insufficient: alpha={a} >= exponent {exponent:.3f}"
        )
    h = float(path.grid[1] - path.grid[0])
    return SampledPath(path.grid[1:], _marchaud_uniform(path.values, a, h, path.grid, exponent))


def roundtrip_residual(path: SampledPath, alpha) -> float:
    """Normalized sup distance between F and I^alpha D^alpha F on interior nodes."""
    deriv = marchaud_derivative(path, alpha)
    # the derivative is extended by its t -> 0 limit (0 for paths with F(0)=0)
    integrand = SampledPath(path.grid, np.concatenate([[0.0], deriv.values]))
    recon = rl_integral(integrand, alpha)
    err = np.max(np.abs(path.values[1:] - recon.values[1:]))
    return float(err / (1.0 + np.max(np.abs(path.values))))


def rescaled_derivative_check(
    f: Callable[[np.ndarray], np.ndarray],
    j: int,
    alpha,
    nodes: int,
    n_grid: int = 4096,
) -> float:
    """Max discrepancy between 2**(j*alpha) (D^alpha F)(2**j s) and D^alpha F_j(s) at s = 1 + i / (nodes - 1).

    The two sides are computed on grids of deliberately different resolution,
    so the discrepancy measures quadrature error, not a shared-grid identity.
    """
    if nodes < 2:
        raise ValueError(f"need at least 2 nodes in [1, 2], got {nodes}")

    def at_s(g, span, k):  # D^alpha g on 2 (nodes - 1) k cells of [0, span], at the nodes span * s / 2
        grid = np.linspace(0.0, span, 2 * (nodes - 1) * k + 1)
        values = marchaud_derivative(SampledPath(grid, g(grid)), alpha).values
        return values[(nodes - 1) * k + np.arange(nodes) * k - 1]  # positions in the interior grid

    p = max(1, round(n_grid / (2 * (nodes - 1))))
    lhs = 2.0 ** (j * alpha) * at_s(f, 2.0 ** (j + 1), p)  # F on [0, 2**(j+1)], nodes aligned with 2**j * s
    rhs = at_s(lambda sigma: f(2.0**j * sigma), 2.0, round(1.5 * p) + 1)  # the rescaled path F(2**j *) on [0, 2]
    return float(np.max(np.abs(lhs - rhs)))
