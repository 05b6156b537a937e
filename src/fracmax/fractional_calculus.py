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


def _convolve(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """First len(values) entries of the full convolution, FFT-backed when large."""
    n = values.size
    if n <= 4096:
        return np.convolve(values, kernel)[:n]
    size = 1 << (2 * n - 1).bit_length()
    out = np.fft.ifft(np.fft.fft(values, size) * np.fft.fft(kernel, size))[:n]
    if not (np.iscomplexobj(values) or np.iscomplexobj(kernel)):
        return out.real
    return out


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A complex-valued path sampled on a strictly increasing grid in [0, T]."""

    grid: np.ndarray
    values: np.ndarray
    hoelder_exponent: float | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two nodes")
        if grid[0] < 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be nonnegative and strictly increasing")
        if values.shape != grid.shape:
            raise ValueError("one value per grid node required")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("path values must be finite")
        if self.hoelder_exponent is not None and not 0 < self.hoelder_exponent <= 1:
            raise ValueError("declared Hoelder exponent must lie in (0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return int(self.grid.size)

    def is_uniform(self) -> bool:
        """Equal steps to a relative 1e-9, plus a few ulps of the grid's end."""
        h = np.diff(self.grid)
        slack = 1e-9 * h[0] + 8 * np.finfo(float).eps * abs(float(self.grid[-1]))
        return bool(np.all(np.abs(h - h[0]) <= slack))


def _order(alpha) -> float:
    if not 0 < alpha < 1:
        raise ValueError(f"order must lie in (0, 1), got {alpha}")
    return float(alpha)


def uniform_grid(T: float, n: int) -> np.ndarray:
    return np.linspace(0.0, T, n)


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
    kernel_v = np.zeros(n)
    kernel_v[: n - 1] = v[1:]  # shift: coefficient of F_{n-k} with k = m-1
    conv = _convolve(values, u) + _convolve(values, kernel_v)
    # the shifted kernel drags in an out-of-range cell (k = -1) at each node
    conv -= kernel_v * values[0]
    out = h**alpha / math.gamma(alpha) * conv
    out[0] = 0.0
    return out


def _rl_matrix(grid: np.ndarray, alpha: float) -> np.ndarray:
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


def rl_integral(path: SampledPath, alpha) -> SampledPath:
    """Riemann-Liouville integral I^alpha on the path's own grid.

    The path must be sampled from t = 0; the value at the first node is the
    integral's limit 0.
    """
    a = _order(alpha)
    if path.grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    if path.is_uniform():
        h = float(path.grid[1] - path.grid[0])
        out = _rl_uniform(path.values, a, h)
    else:
        out = _rl_matrix(path.grid, a) @ path.values
    return SampledPath(path.grid, out)


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
    bm = rm - m * pm  # coefficient of F_{i-m+1}, m >= 2
    kernel_b = np.zeros(n)
    kernel_b[1 : n - 1] = bm[2:]  # k = m-1 >= 1
    conv = _convolve(values, am) + _convolve(values, kernel_b)
    # the shifted kernel drags in an out-of-range cell (k = -1) at each node
    conv -= kernel_b * values[0]
    i = np.arange(1, n, dtype=float)
    sum_p = (1.0 - i**-alpha) / alpha  # telescoped sum of P_m, m = 2..i
    integral = h**-alpha * (
        values[1:] * sum_p
        + conv[1:]
        + (values[1:] - values[:-1]) / (exponent - alpha)
    )
    point = values[1:] * grid[1:] ** -alpha
    return (point + alpha * integral) / math.gamma(1.0 - alpha)


def marchaud_matrix(grid: np.ndarray, alpha: float, exponent: float = 1.0) -> np.ndarray:
    """Dense weights W with (D^alpha F)(t_i) = (W @ F)[i-1] on any grid.

    Rows correspond to the interior nodes grid[1:].  `exponent` is the local
    Hoelder order used on the singular cell; it must exceed alpha.
    """
    if exponent <= alpha:
        raise ValueError("Hoelder order insufficient")
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


def marchaud_derivative(path: SampledPath, alpha) -> SampledPath:
    """Marchaud-form fractional derivative on the interior nodes.

    Requires alpha below the path's declared (or estimated) Hoelder exponent;
    the node t = 0 is excluded from the output.
    """
    a = _order(alpha)
    if path.grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    exponent = path.hoelder_exponent if path.hoelder_exponent is not None else estimate_hoelder(path)
    if a >= exponent:
        raise ValueError(
            f"Hoelder order insufficient: alpha={a} >= exponent {exponent:.3f}"
        )
    if path.is_uniform():
        h = float(path.grid[1] - path.grid[0])
        out = _marchaud_uniform(path.values, a, h, path.grid, exponent)
    else:
        out = marchaud_matrix(path.grid, a, exponent) @ path.values
    return SampledPath(path.grid[1:], out)


def roundtrip_residual(path: SampledPath, alpha) -> float:
    """Normalized sup distance between F and I^alpha D^alpha F on interior nodes."""
    a = _order(alpha)
    deriv = marchaud_derivative(path, a)
    # the derivative is extended by its t -> 0 limit (0 for paths with F(0)=0)
    integrand = SampledPath(path.grid, np.concatenate([[0.0], deriv.values]))
    recon = rl_integral(integrand, a)
    err = np.max(np.abs(path.values[1:] - recon.values[1:]))
    return float(err / (1.0 + np.max(np.abs(path.values))))


def rescaled_derivative_check(
    f: Callable[[np.ndarray], np.ndarray],
    j: int,
    alpha,
    s_grid: np.ndarray,
    n_grid: int = 4096,
) -> float:
    """Max discrepancy between 2**(j*alpha) (D^alpha F)(2**j s) and D^alpha F_j(s).

    The two sides are computed on grids of deliberately different resolution,
    so the discrepancy measures quadrature error, not a shared-grid identity.
    """
    a = _order(alpha)
    s = np.asarray(s_grid, dtype=float)
    m = s.size
    if m < 2 or abs(s[0] - 1.0) > 1e-12 or abs(s[-1] - 2.0) > 1e-12:
        raise ValueError("s_grid must span [1, 2]")
    step = np.diff(s)
    if np.any(np.abs(step - step[0]) > 1e-9 * step[0]):
        raise ValueError("s_grid must be uniform")

    # side 1: derivative of F on [0, 2**(j+1)], nodes aligned with 2**j * s
    p = max(1, round(n_grid / (2 * (m - 1))))
    n_t = 2 * (m - 1) * p
    t_grid = np.linspace(0.0, 2.0 ** (j + 1), n_t + 1)
    path_t = SampledPath(t_grid, f(t_grid))
    d_t = marchaud_derivative(path_t, a)
    idx_t = (m - 1) * p + np.arange(m) * p - 1  # positions in the interior grid
    lhs = 2.0 ** (j * a) * d_t.values[idx_t]

    # side 2: derivative of the rescaled path F(2**j *) on [0, 2]
    q = round(1.5 * p) + 1
    n_s = 2 * (m - 1) * q
    sigma_grid = np.linspace(0.0, 2.0, n_s + 1)
    path_s = SampledPath(sigma_grid, f(2.0**j * sigma_grid))
    d_s = marchaud_derivative(path_s, a)
    idx_s = (m - 1) * q + np.arange(m) * q - 1
    rhs = d_s.values[idx_s]

    return float(np.max(np.abs(lhs - rhs)))
