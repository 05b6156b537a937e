"""Smooth dyadic frequency cutoffs and the norm machinery built on them.

The low-pass profile equals 1 on the unit ball and vanishes outside the ball
of radius 2; the annular bump is the telescoping difference, so the dyadic
family sums to 1 away from the origin exactly.  Grid functions carry a
periodic FFT representation with the e^{2*pi*i*x*xi} convention, and Besov,
Hoelder, and square-summed band norms are Riemann sums over those grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np


# ---------------------------------------------------------------------------
# smooth cutoffs


def _glue(x: np.ndarray, order: int = 0) -> np.ndarray:
    """The order-th derivative (0..2) of exp(-1/x), the standard smooth partition glue, at x > 0."""
    e = np.exp(-1.0 / x)
    if order == 0:
        return e
    if order == 1:
        return e / x**2
    return e * (1.0 / x**4 - 2.0 / x**3)


@dataclass(frozen=True)
class SmoothCutoff:
    """Radial low-pass profile: 1 on |xi| <= 1, 0 on |xi| >= 2, monotone between."""

    def phi(self, xi) -> np.ndarray:
        """Low-pass profile evaluated at |xi| (any real array; radial)."""
        rho = np.abs(np.asarray(xi, dtype=float))
        out = np.where(rho <= 1.0, 1.0, 0.0)
        mid = (rho > 1.0) & (rho < 2.0)
        x = 2.0 - rho[mid]  # transition coordinate: 1 at rho=1, 0 at rho=2
        u = _glue(x)
        v = _glue(1.0 - x)
        out[mid] = u / (u + v)
        return out

    def psi(self, xi) -> np.ndarray:
        """Annular bump phi(xi) - phi(2 xi); supported on 1/2 <= |xi| <= 2."""
        xi = np.asarray(xi, dtype=float)
        return self.phi(xi) - self.phi(2.0 * xi)

    def psi_band(self, xi, j: int) -> np.ndarray:
        """The band-j bump psi(xi / 2**j), supported on 2**(j-1) <= |xi| <= 2**(j+1)."""
        return self.psi(np.asarray(xi, dtype=float) / 2.0**j)

    def phi_d1(self, rho) -> np.ndarray:
        """Radial derivative of the low-pass profile; exactly 0 off the 1 < rho < 2 shell."""
        return self._phi_derivative(rho, 1)

    def phi_d2(self, rho) -> np.ndarray:
        """Second radial derivative of the low-pass profile; exactly 0 off the shell."""
        return self._phi_derivative(rho, 2)

    @staticmethod
    def _phi_derivative(rho, order: int) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        mid = (rho > 1.0) & (rho < 2.0)
        x = 2.0 - rho[mid]
        u, v = _glue(x), _glue(1.0 - x)
        du, dv = _glue(x, 1), -_glue(1.0 - x, 1)
        w = u + v
        num = du * v - u * dv
        if order == 1:
            # d/drho = -d/dx of u/(u+v)
            out[mid] = -num / w**2
        else:
            out[mid] = (_glue(x, 2) * v - u * _glue(1.0 - x, 2)) / w**2 - 2.0 * num * (du + dv) / w**3
        return out


# the one Littlewood-Paley partition every norm is measured against
CUTOFF = SmoothCutoff()


def partition_defect(xi: np.ndarray) -> float:
    """Max deviation of the telescoping band sum over |j| <= 40 from 1 on the sample points."""
    xi = np.asarray(xi, dtype=float)
    total = np.zeros_like(xi)
    for j in range(-40, 41):
        total += CUTOFF.psi_band(xi, j)
    return float(np.max(np.abs(total - 1.0)))


# ---------------------------------------------------------------------------
# periodic grid functions


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a uniform periodic grid over [-L, L).

    `side` records whether `samples` live in space or frequency; the spectral
    representation uses the continuous transform with kernel
    e^{-2*pi*i*x*xi} sampled at xi_k = k / (2L) in FFT order.
    """

    extent: float
    samples: np.ndarray
    side: str = "space"

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        n = samples.shape[0] if samples.ndim == 1 else 0
        if not n or n & (n - 1):
            raise ValueError("samples must be a 1-d array of power-of-two length")
        if self.side not in ("space", "frequency"):
            raise ValueError("side must be 'space' or 'frequency'")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return int(self.samples.shape[0])

    @property
    def dx(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def dxi(self) -> float:
        return 1.0 / (2.0 * self.extent)

    @property
    def nyquist(self) -> float:
        return self.n / (4.0 * self.extent)

    def x_axis(self) -> np.ndarray:
        return -self.extent + self.dx * np.arange(self.n)

    def freq_axis(self) -> np.ndarray:
        return np.fft.fftfreq(self.n, d=self.dx)

    def freq_radius(self) -> np.ndarray:
        """|xi| on the frequency grid (matches the samples' layout)."""
        return np.abs(self.freq_axis())

    def _phase(self) -> np.ndarray:
        return np.where(np.arange(self.n) & 1, -1.0, 1.0)

    def to_frequency(self) -> "GridFunction":
        if self.side == "frequency":
            return self
        spec = self.dx * self._phase() * np.fft.fft(self.samples)
        return replace(self, samples=spec, side="frequency")

    def to_space(self) -> "GridFunction":
        if self.side == "space":
            return self
        vals = self.dxi * self.n * np.fft.ifft(self._phase() * self.samples)
        return replace(self, samples=vals, side="space")

    def lp_norm(self, p: float) -> float:
        """Riemann-sum L^p norm on the function's own side (grid max for p=inf)."""
        mags = np.abs(self.samples)
        if math.isinf(p):
            return float(mags.max())
        cell = self.dx if self.side == "space" else self.dxi
        return float((np.sum(mags**p) * cell) ** (1.0 / p))

    def l2_norm(self) -> float:
        return self.lp_norm(2.0)


def grid_from_profile(
    profile: Callable[[np.ndarray], np.ndarray],
    extent: float,
    n: int,
    side: str = "space",
) -> GridFunction:
    """Sample a callable on the 1-d grid (space profile of x, or frequency of xi)."""
    stub = GridFunction(extent, np.zeros(n, dtype=complex))
    axis = stub.x_axis() if side == "space" else stub.freq_axis()
    return GridFunction(extent, np.asarray(profile(axis), dtype=complex), side=side)


# ---------------------------------------------------------------------------
# Littlewood-Paley pieces and Besov norms


@dataclass(frozen=True)
class BesovParams:
    p: float
    s: float
    j_max: int = 12

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("integrability index must exceed 1")


def _weighted_to_space(spec: GridFunction, weight: np.ndarray) -> GridFunction:
    return replace(spec, samples=spec.samples * weight, side="frequency").to_space()


def lp_piece(f: GridFunction, j: int) -> GridFunction:
    """Spectral multiplication by the band-j bump, returned on the space side."""
    if 2.0 ** (j + 1) > f.nyquist + 1e-12:
        raise ValueError(f"band out of range: 2^{j + 1} exceeds Nyquist {f.nyquist}")
    spec = f.to_frequency()
    return _weighted_to_space(spec, CUTOFF.psi_band(spec.freq_radius(), j))


def besov_norm(g: GridFunction, params: BesovParams) -> float:
    """Truncated inhomogeneous Besov norm with equal inner and outer index.

    Low-pass piece plus bands j = 1..j_max weighted by 2**(s j); for p = inf
    the band sum is replaced by the sup.  The low-pass piece multiplies the
    spectrum by phi and the bands are those of lp_piece, with each low-pass
    profile phi(|xi| / 2**k) computed once: band j's bump is the difference
    of profiles j and j - 1.
    """
    if 2.0 ** (params.j_max + 1) > g.nyquist + 1e-12:
        raise ValueError("band out of range: j_max exceeds the grid Nyquist range")
    spec = g.to_frequency()
    rho = spec.freq_radius()
    low = CUTOFF.phi(rho)
    base = _weighted_to_space(spec, low).lp_norm(params.p)
    bands = []
    for j in range(1, params.j_max + 1):
        below, low = low, CUTOFF.phi(rho / 2.0**j)
        bands.append(2.0 ** (params.s * j) * _weighted_to_space(spec, low - below).lp_norm(params.p))
    if math.isinf(params.p):
        return max([base] + bands)
    p = params.p
    return float((base**p + sum(b**p for b in bands)) ** (1.0 / p))


def hoelder_norm(g: GridFunction, n_deriv: int, s_prime: float) -> float:
    """Finite-difference C^{n, s'} norm on the periodic grid.

    Derivatives are iterated central differences; the Hoelder seminorm takes
    pairs (x, x + h) with h running over grid-step multiples 2**k, k < 11.
    """
    if not 0 < s_prime < 1:
        raise ValueError("fractional exponent must lie in (0, 1)")
    if n_deriv < 0:
        raise ValueError("derivative order must be nonnegative")
    vals = g.to_space().samples
    h = g.dx
    total = 0.0
    current = vals
    for order in range(n_deriv + 1):
        total += float(np.max(np.abs(current)))
        if order < n_deriv:
            current = (np.roll(current, -1) - np.roll(current, 1)) / (2.0 * h)
    seminorm = 0.0
    for k in range(11):
        step = 1 << k
        if step >= g.n // 2:
            break
        gap = step * h
        diff = np.max(np.abs(np.roll(current, -step) - current))
        seminorm = max(seminorm, float(diff) / gap**s_prime)
    return total + seminorm


def hoelder_besov_ratio(g: GridFunction, n_deriv: int, s_prime: float) -> float:
    """Hoelder norm against the sup-Besov norm at the matching order.

    The Besov ladder weights dyadic bands of the cycle-frequency axis while
    the Hoelder norm differentiates in x, so the comparison carries the
    conversion factor (2*pi)**(n + s'); the ratio returned here is the
    convention-matched one, order 1 for equivalent norms.
    """
    h = hoelder_norm(g, n_deriv, s_prime)
    b = besov_norm(g, BesovParams(math.inf, n_deriv + s_prime, j_max=6))
    return h / (b * (2.0 * math.pi) ** (n_deriv + s_prime))


# ---------------------------------------------------------------------------
# square-summed band norms of multipliers


@dataclass(frozen=True)
class Sigma2Result:
    total: float
    bands: tuple[tuple[int, float], ...]
    stale: bool


def _band_grid(band_eval: Callable[[np.ndarray], np.ndarray], oscillation: float):
    """Frequency-annulus grid for one band: domain [-4, 4), at least 1024
    points, resolution adapted to the band's oscillation so the modulated
    content stays below Nyquist."""
    extent = 4.0
    needed = max(1024, int(16 * extent * max(oscillation, 1.0)))
    n = 1 << (needed - 1).bit_length()
    return grid_from_profile(band_eval, extent, n)


def sigma2_norm(m, params: BesovParams, j_range: tuple[int, int]) -> Sigma2Result:
    """Square-summed Besov norms of the dyadic band restrictions of m.

    Each band m(2**j .) * psi is sampled on its own annulus grid (resolution
    adapted to the band's oscillation) and measured in the requested Besov
    norm; m is evaluated only where psi is nonzero, 1/2 < |xi| < 2.  The
    result is the l^2 total with the per-band breakdown.  The stale
    flag reports a truncation-dominated sum: the last two bands contribute
    more than 1% of the total.
    """
    from .multipliers import band_oscillation, evaluate  # local import; no cycle at runtime

    js = list(range(j_range[0], j_range[1] + 1))
    bands = []
    for j in js:
        def band_eval(xi, j=j):
            weight = CUTOFF.psi(xi)
            on = weight != 0
            out = np.zeros(xi.shape, dtype=complex)
            out[on] = evaluate(m, 2.0**j * xi[on]) * weight[on]
            return out

        g = _band_grid(band_eval, band_oscillation(m, j))
        inner = BesovParams(params.p, params.s, min(params.j_max, int(math.log2(g.nyquist)) - 1))
        bands.append((j, besov_norm(g, inner)))
    total = math.sqrt(sum(v**2 for _, v in bands))
    stale = False
    if len(bands) >= 2 and total > 0:
        tail = math.sqrt(bands[-1][1] ** 2 + bands[-2][1] ** 2)
        stale = tail > 0.01 * total
    return Sigma2Result(total, tuple(bands), stale)


def sigma2_weighted_sobolev(m, level: int, j_range: tuple[int, int]) -> float:
    """Weighted-derivative integral equivalent to the band_2^l square sum.

    Sums integrals of |d^k m|^2 |xi|^{2k-d} over the annulus covering the
    dyadic range, for k = 0..level, in one dimension, with 512 points per octave.  Derivatives are
    normalized by (2*pi)^k to match the cycle-frequency convention of the
    Besov ladder, so the equivalence constant is convention-free.
    """
    from .multipliers import radial_derivative

    if level < 0 or level > 2:
        raise ValueError("weighted-Sobolev check supports derivative orders 0..2")
    total = 0.0
    # the union of the band annuli, covered octave by octave without overlap
    for j in range(j_range[0] - 1, j_range[1] + 1):
        rho = np.linspace(2.0**j, 2.0 ** (j + 1), 512)
        for k in range(level + 1):
            deriv = radial_derivative(m, rho, k) / (2.0 * np.pi) ** k
            vals = np.abs(deriv) ** 2 * rho ** (2 * k - 1)
            # both signs of the 1-d frequency axis
            total += 2.0 * float(np.trapezoid(vals, rho))
    return math.sqrt(total)


def dilation_invariance_check(
    m,
    r_list: Iterable[float],
    params: BesovParams,
    j_range: tuple[int, int],
) -> float:
    """Max ratio of the square norm under rescaling m(r .) against m itself."""
    from .multipliers import scaled

    base = sigma2_norm(m, params, j_range).total
    worst = 0.0
    for r in r_list:
        value = sigma2_norm(scaled(m, r), params, j_range).total
        worst = max(worst, value / base if base > 0 else math.inf)
    return worst
