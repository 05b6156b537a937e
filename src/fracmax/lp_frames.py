"""Smooth dyadic frequency cutoffs and the norm machinery built on them.

The low-pass profile equals 1 on the unit ball and vanishes outside the ball
of radius 2; the annular bump is the telescoping difference, so the dyadic
family sums to 1 away from the origin exactly.  Grid functions carry a
periodic FFT representation with the e^{2*pi*i*x*xi} convention, and Besov
and Hoelder norms are Riemann sums over those grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# smooth cutoffs


@dataclass(frozen=True)
class SmoothCutoff:
    """Radial low-pass profile: 1 on |xi| <= 1, 0 on |xi| >= 2, monotone between."""

    def phi(self, xi, order: int = 0) -> np.ndarray:
        """Low-pass profile at |xi| (any real array; radial), or its radial derivative of order 1 or 2,
        which is exactly 0 off the 1 < |xi| < 2 shell.  On the shell it is u / (u + v), glued from the
        standard smooth partition pieces u = exp(-1/x) and v = exp(-1/(1 - x)) with x = 2 - |xi|."""
        rho = np.abs(np.asarray(xi, dtype=float))
        out = np.where(rho <= 1.0, float(order == 0), 0.0)
        mid = (rho > 1.0) & (rho < 2.0)
        x = 2.0 - rho[mid]  # transition coordinate: 1 at rho=1, 0 at rho=2
        y = 1.0 - x
        u, v = np.exp(-1.0 / x), np.exp(-1.0 / y)
        w = u + v
        if order == 0:
            out[mid] = u / w
            return out
        du, dv = u / x**2, -(v / y**2)  # d/dx of u and v
        num = du * v - u * dv  # d/drho = -d/dx of u/(u+v)
        if order == 1:
            out[mid] = -num / w**2
        else:
            d2u, d2v = u * (1.0 / x**4 - 2.0 / x**3), v * (1.0 / y**4 - 2.0 / y**3)  # d^2/dx^2 of u and v
            out[mid] = (d2u * v - u * d2v) / w**2 - 2.0 * num * (du + dv) / w**3
        return out

    def psi(self, xi, order: int = 0) -> np.ndarray:
        """Annular bump phi(xi) - phi(2 xi), or its radial derivative; supported on 1/2 <= |xi| <= 2."""
        xi = np.asarray(xi, dtype=float)
        return self.phi(xi, order) - 2.0**order * self.phi(2.0 * xi, order)


# the one Littlewood-Paley partition every norm is measured against
CUTOFF = SmoothCutoff()


def partition_defect(xi: np.ndarray) -> float:
    """Max deviation of the telescoping band sum over |j| <= 40 from 1 on the sample points."""
    xi = np.asarray(xi, dtype=float)
    total = np.zeros_like(xi)
    for j in range(-40, 41):
        total += CUTOFF.psi(xi / 2.0**j)
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
        spec = np.fft.fft(self.samples)
        return replace(self, samples=np.multiply(self.dx * self._phase(), spec, out=spec), side="frequency")

    def to_space(self) -> "GridFunction":
        if self.side == "space":
            return self
        return replace(self, samples=self.filtered(), side="space")

    def filtered(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Space-side values of the spectrum times `weights`, from one inverse FFT.

        `weights` has n on its last axis, one row per filter; None leaves the
        spectrum as it is.  The transform and its scale work in place on one buffer;
        complex `weights` are that buffer, overwritten and returned.
        """
        spec = self.to_frequency()
        out = spec._phase() * spec.samples  # the +-1 phase on the 1-d spectrum, once
        out = out if weights is None else np.multiply(weights, out, out=np.asarray(weights, dtype=complex))
        return np.multiply(np.fft.ifft(out, axis=-1, out=out), spec.dxi * spec.n, out=out)

    def lp_norm(self, p: float) -> float:
        """Riemann-sum L^p norm on the function's own side (grid max for p=inf)."""
        mags = np.abs(self.samples)
        if math.isinf(p):
            return float(mags.max())
        cell = self.dx if self.side == "space" else self.dxi
        return float((np.sum(mags**p) * cell) ** (1.0 / p))


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


def lp_piece(f: GridFunction, j: int) -> GridFunction:
    """Spectral multiplication by the band-j bump, returned on the space side."""
    if 2.0 ** (j + 1) > f.nyquist + 1e-12:
        raise ValueError(f"band out of range: 2^{j + 1} exceeds Nyquist {f.nyquist}")
    return GridFunction(f.extent, f.filtered(CUTOFF.psi(f.freq_radius() / 2.0**j)))


def besov_norm(g: GridFunction, params: BesovParams) -> float:
    """Truncated inhomogeneous Besov norm with equal inner and outer index.

    Low-pass piece plus bands j = 1..j_max weighted by 2**(s j), at p = 2 each read off
    its spectral window (see _band_norms); for p = inf the band sum is replaced by the sup.
    """
    if 2.0 ** (params.j_max + 1) > g.nyquist + 1e-12:
        raise ValueError("band out of range: j_max exceeds the grid Nyquist range")
    return _besov_sum(_band_norms(g, params.p, params.j_max), params)


def _band_norms(g: GridFunction, p: float, j_max: int) -> list[float]:
    """Unweighted L^p norms of the pieces j = 0..j_max of g; piece 0 is the low-pass one.

    Piece j weights the signed spectrum by phi(|xi| / 2**j) - phi(|xi| / 2**(j-1)) (0 for j = 0), lp_piece's band j
    for j >= 1, on its window 2**(j-1) < |xi| < 2**(j+1) (|xi| < 2 for j = 0) only: the weight vanishes elsewhere.
    At p = 2 its norm is the window's frequency-side Riemann sum (Plancherel); any other p transforms the piece.
    """
    spec = g.to_frequency().samples  # signed in place, unless these are g's own samples (g frequency-side)
    rho, signed = g.freq_radius(), np.multiply(g._phase(), spec, out=None if spec is g.samples else spec)
    below, norms = np.zeros(g.n), []  # phi(|xi| / 2**(j-1)) on the windows still to come
    for j in range(j_max + 1):
        window = (rho < 2.0 ** (j + 1)) & (rho > (2.0 ** (j - 1) if j else -1.0))
        low = CUTOFF.phi(rho[window] / 2.0**j)
        band, below[window] = (low - below[window]) * signed[window], low
        if p == 2:  # summed on the window alone: zeros would regroup the pairwise sum
            norms.append(float((np.sum(np.abs(band) ** 2) * g.dxi) ** 0.5))
            continue
        piece = np.zeros(g.n, dtype=complex)
        piece[window] = band  # zeros off the window change only the sign of a zero output
        piece = np.multiply(np.fft.ifft(piece, out=piece), g.dxi * g.n, out=piece)
        norms.append(GridFunction(g.extent, piece).lp_norm(p))
    return norms


def _besov_sum(norms: list[float], params: BesovParams) -> float:
    """The Besov norm from the pieces' unweighted norms: piece j weighted by 2**(s j)."""
    bands = [2.0 ** (params.s * j) * v for j, v in enumerate(norms)]
    if math.isinf(params.p):
        return max(bands)
    p = params.p
    return float((bands[0] ** p + sum(b**p for b in bands[1:])) ** (1.0 / p))


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
