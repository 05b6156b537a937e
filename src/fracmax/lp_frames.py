"""Smooth dyadic frequency cutoffs and the norm machinery built on them.

The low-pass profile equals 1 on the unit ball and vanishes outside the ball
of radius 2; the annular bump is the telescoping difference, so the dyadic
family sums to 1 away from the origin exactly.  Grid functions carry a
periodic FFT representation with the e^{2*pi*i*x*xi} convention, and Besov,
Hoelder, and square-summed band norms are Riemann sums over those grids.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

PARTITION_TOL = 1e-12


# ---------------------------------------------------------------------------
# smooth cutoffs


def _glue(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) for x > 0, 0 otherwise; the standard smooth partition glue."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _glue_d1(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
    return out


def _glue_d2(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    out[pos] = np.exp(-1.0 / xp) * (1.0 / xp**4 - 2.0 / xp**3)
    return out


@dataclass(frozen=True)
class SmoothCutoff:
    """Radial low-pass profile: 1 on |xi| <= 1, 0 on |xi| >= 2, monotone between."""

    def phi(self, xi) -> np.ndarray:
        """Low-pass profile evaluated at |xi| (any real array; radial)."""
        rho = np.abs(np.asarray(xi, dtype=float))
        x = 2.0 - rho  # transition coordinate: 1 at rho=1, 0 at rho=2
        u = _glue(x)
        v = _glue(1.0 - x)
        out = np.where(rho <= 1.0, 1.0, 0.0)
        mid = (rho > 1.0) & (rho < 2.0)
        out[mid] = (u / (u + v))[mid]
        return out

    def psi(self, xi) -> np.ndarray:
        """Annular bump phi(xi) - phi(2 xi); supported on 1/2 <= |xi| <= 2."""
        xi = np.asarray(xi, dtype=float)
        return self.phi(xi) - self.phi(2.0 * xi)

    def psi_band(self, xi, j: int) -> np.ndarray:
        """The band-j bump psi(xi / 2**j), supported on 2**(j-1) <= |xi| <= 2**(j+1)."""
        return self.psi(np.asarray(xi, dtype=float) / 2.0**j)

    def phi_d1(self, rho) -> np.ndarray:
        """Radial derivative of the low-pass profile."""
        rho = np.asarray(rho, dtype=float)
        x = 2.0 - rho
        u, v = _glue(x), _glue(1.0 - x)
        du, dv = _glue_d1(x), -_glue_d1(1.0 - x)
        w = u + v
        out = np.zeros_like(rho)
        mid = (rho > 1.0) & (rho < 2.0)
        # d/drho = -d/dx of u/(u+v)
        out[mid] = (-(du * v - u * dv) / w**2)[mid]
        return out

    def phi_d2(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        x = 2.0 - rho
        u, v = _glue(x), _glue(1.0 - x)
        du, dv = _glue_d1(x), -_glue_d1(1.0 - x)
        d2u, d2v = _glue_d2(x), _glue_d2(1.0 - x)
        w = u + v
        out = np.zeros_like(rho)
        mid = (rho > 1.0) & (rho < 2.0)
        num1 = d2u * v - u * d2v
        num2 = du * v - u * dv
        out[mid] = ((num1 / w**2) - 2.0 * num2 * (du + dv) / w**3)[mid]
        return out


def build_cutoffs() -> SmoothCutoff:
    return SmoothCutoff()


def partition_defect(cut: SmoothCutoff, xi: np.ndarray, j_window: int = 40) -> float:
    """Max deviation of the telescoping band sum from 1 on the sample points."""
    xi = np.asarray(xi, dtype=float)
    total = np.zeros_like(xi)
    for j in range(-j_window, j_window + 1):
        total += cut.psi_band(xi, j)
    return float(np.max(np.abs(total - 1.0)))


# ---------------------------------------------------------------------------
# periodic grid functions


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a uniform periodic grid over [-L, L)^dim.

    `side` records whether `samples` live in space or frequency; the spectral
    representation uses the continuous transform with kernel
    e^{-2*pi*i*x*xi} sampled at xi_k = k / (2L) in FFT order.
    """

    extent: float
    samples: np.ndarray
    side: str = "space"
    dim: int = 1

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if samples.ndim != self.dim:
            raise ValueError("sample array rank must equal dim")
        n = samples.shape[0]
        if samples.shape != (n,) * self.dim or n & (n - 1):
            raise ValueError("samples must be square with a power-of-two side")
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
        axis = self.freq_axis()
        if self.dim == 1:
            return np.abs(axis)
        return np.hypot(*np.meshgrid(axis, axis, indexing="ij"))

    def _phase(self) -> np.ndarray:
        sign = (-1.0) ** np.arange(self.n)
        if self.dim == 1:
            return sign
        return np.outer(sign, sign)

    def to_frequency(self) -> "GridFunction":
        if self.side == "frequency":
            return self
        spec = self.dx**self.dim * self._phase() * np.fft.fftn(self.samples)
        return replace(self, samples=spec, side="frequency")

    def to_space(self) -> "GridFunction":
        if self.side == "space":
            return self
        vals = self.dxi**self.dim * self.n**self.dim * np.fft.ifftn(self._phase() * self.samples)
        return replace(self, samples=vals, side="space")

    def lp_norm(self, p: float) -> float:
        """Riemann-sum L^p norm on the function's own side (grid max for p=inf)."""
        mags = np.abs(self.samples)
        if math.isinf(p):
            return float(mags.max())
        cell = self.dx if self.side == "space" else self.dxi
        return float((np.sum(mags**p) * cell**self.dim) ** (1.0 / p))

    def l2_norm(self) -> float:
        return self.lp_norm(2.0)

    def to_binary(self) -> bytes:
        header = struct.pack("<iidi", self.dim, self.n, self.extent, 0 if self.side == "space" else 1)
        data = np.empty(self.samples.size * 2)
        flat = self.samples.ravel()
        data[0::2], data[1::2] = flat.real, flat.imag
        return header + data.astype("<f8").tobytes()

    @staticmethod
    def from_binary(blob: bytes) -> "GridFunction":
        dim, n, extent, side_code = struct.unpack_from("<iidi", blob)
        offset = struct.calcsize("<iidi")
        raw = np.frombuffer(blob, dtype="<f8", offset=offset)
        flat = raw[0::2] + 1j * raw[1::2]
        return GridFunction(
            extent=extent,
            samples=flat.reshape((n,) * dim),
            side="space" if side_code == 0 else "frequency",
            dim=dim,
        )


def grid_from_profile(
    profile: Callable[[np.ndarray], np.ndarray],
    extent: float,
    n: int,
    dim: int = 1,
    side: str = "space",
) -> GridFunction:
    """Sample a callable on the grid (space profile of x, or frequency of xi)."""
    stub = GridFunction(extent, np.zeros((n,) * dim, dtype=complex), side="space", dim=dim)
    if side == "space":
        axis = stub.x_axis()
    else:
        axis = stub.freq_axis()
    if dim == 1:
        vals = profile(axis)
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        vals = profile(np.sqrt(xx**2 + yy**2)) if side == "frequency" else profile(xx, yy)
    return GridFunction(extent, np.asarray(vals, dtype=complex), side=side, dim=dim)


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


def lp_piece(f: GridFunction, j: int, cut: SmoothCutoff) -> GridFunction:
    """Spectral multiplication by the band-j bump, returned on the space side."""
    if 2.0 ** (j + 1) > f.nyquist + 1e-12:
        raise ValueError(f"band out of range: 2^{j + 1} exceeds Nyquist {f.nyquist}")
    spec = f.to_frequency()
    masked = spec.samples * cut.psi_band(spec.freq_radius(), j)
    return replace(spec, samples=masked, side="frequency").to_space()


def low_pass_piece(f: GridFunction, cut: SmoothCutoff) -> GridFunction:
    spec = f.to_frequency()
    masked = spec.samples * cut.phi(spec.freq_radius())
    return replace(spec, samples=masked, side="frequency").to_space()


def besov_norm(g: GridFunction, params: BesovParams, cut: SmoothCutoff) -> float:
    """Truncated inhomogeneous Besov norm with equal inner and outer index.

    Low-pass piece plus bands j = 1..j_max weighted by 2**(s j); for p = inf
    the band sum is replaced by the sup.
    """
    if 2.0 ** (params.j_max + 1) > g.nyquist + 1e-12:
        raise ValueError("band out of range: j_max exceeds the grid Nyquist range")
    base = low_pass_piece(g, cut).lp_norm(params.p)
    bands = [
        2.0 ** (params.s * j) * lp_piece(g, j, cut).lp_norm(params.p)
        for j in range(1, params.j_max + 1)
    ]
    if math.isinf(params.p):
        return max([base] + bands)
    p = params.p
    return float((base**p + sum(b**p for b in bands)) ** (1.0 / p))


def hoelder_norm(g: GridFunction, n_deriv: int, s_prime: float, k_scales: int = 11) -> float:
    """Finite-difference C^{n, s'} norm on the periodic grid.

    Derivatives are iterated central differences; the Hoelder seminorm takes
    pairs (x, x + h) with h running over grid-step multiples 2**k.
    """
    if not 0 < s_prime < 1:
        raise ValueError("fractional exponent must lie in (0, 1)")
    if n_deriv < 0:
        raise ValueError("derivative order must be nonnegative")
    if g.dim != 1:
        raise ValueError("Hoelder norm implemented for 1-d grids")
    vals = g.to_space().samples
    h = g.dx
    total = 0.0
    current = vals
    for order in range(n_deriv + 1):
        total += float(np.max(np.abs(current)))
        if order < n_deriv:
            current = (np.roll(current, -1) - np.roll(current, 1)) / (2.0 * h)
    seminorm = 0.0
    for k in range(k_scales):
        step = 1 << k
        if step >= g.n // 2:
            break
        gap = step * h
        diff = np.max(np.abs(np.roll(current, -step) - current))
        seminorm = max(seminorm, float(diff) / gap**s_prime)
    return total + seminorm


def hoelder_besov_ratio(
    g: GridFunction, n_deriv: int, s_prime: float, cut: SmoothCutoff, j_max: int = 6
) -> float:
    """Hoelder norm against the sup-Besov norm at matching smoothness.

    The Besov ladder weights dyadic bands of the cycle-frequency axis while
    the Hoelder norm differentiates in x, so the comparison carries the
    conversion factor (2*pi)**(n + s'); the ratio returned here is the
    convention-matched one, order 1 for equivalent norms.
    """
    h = hoelder_norm(g, n_deriv, s_prime)
    b = besov_norm(g, BesovParams(math.inf, n_deriv + s_prime, j_max=j_max), cut)
    return h / (b * (2.0 * math.pi) ** (n_deriv + s_prime))


# ---------------------------------------------------------------------------
# square-summed band norms of multipliers


@dataclass(frozen=True)
class Sigma2Result:
    total: float
    bands: tuple[tuple[int, float], ...]
    stale: bool

    def to_csv(self) -> str:
        rows = ["j,band_norm"] + [f"{j},{repr(v)}" for j, v in self.bands]
        return "\n".join(rows) + "\n"


def _band_grid(band_eval: Callable[[np.ndarray], np.ndarray], oscillation: float, n_min: int = 1024):
    """Frequency-annulus grid for one band: domain [-4, 4), resolution
    adapted to the band's oscillation so the modulated content stays below
    Nyquist."""
    extent = 4.0
    needed = max(n_min, int(16 * extent * max(oscillation, 1.0)))
    n = 1 << (needed - 1).bit_length()
    return grid_from_profile(band_eval, extent, n)


def sigma2_norm(
    m,
    params: BesovParams,
    j_range: tuple[int, int],
    cut: SmoothCutoff,
    band_resolution: int = 1024,
) -> Sigma2Result:
    """Square-summed Besov norms of the dyadic band restrictions of m.

    Each band m(2**j .) * psi is sampled on its own annulus grid (resolution
    adapted to the band's oscillation) and measured in the requested Besov
    norm; the result is the l^2 total with the per-band breakdown.  The stale
    flag reports a truncation-dominated sum: the last two bands contribute
    more than 1% of the total.
    """
    from .multipliers import band_oscillation, evaluate  # local import; no cycle at runtime

    js = list(range(j_range[0], j_range[1] + 1))
    bands = []
    for j in js:
        def band_eval(xi, j=j):
            return evaluate(m, 2.0**j * xi) * cut.psi(xi)

        g = _band_grid(band_eval, band_oscillation(m, j), band_resolution)
        inner = BesovParams(params.p, params.s, min(params.j_max, int(math.log2(g.nyquist)) - 1))
        bands.append((j, besov_norm(g, inner, cut)))
    total = math.sqrt(sum(v**2 for _, v in bands))
    stale = False
    if len(bands) >= 2 and total > 0:
        tail = math.sqrt(bands[-1][1] ** 2 + bands[-2][1] ** 2)
        stale = tail > 0.01 * total
    return Sigma2Result(total, tuple(bands), stale)


def sigma2_weighted_sobolev(
    m,
    level: int,
    j_range: tuple[int, int],
    points_per_band: int = 512,
) -> float:
    """Weighted-derivative integral equivalent to the band_2^l square sum.

    Sums integrals of |d^k m|^2 |xi|^{2k-d} over the annulus covering the
    dyadic range, for k = 0..level, in one dimension.  Derivatives are
    normalized by (2*pi)^k to match the cycle-frequency convention of the
    Besov ladder, so the equivalence constant is convention-free.
    """
    from .multipliers import radial_derivative

    if level < 0 or level > 2:
        raise ValueError("weighted-Sobolev check supports derivative orders 0..2")
    total = 0.0
    # the union of the band annuli, covered octave by octave without overlap
    for j in range(j_range[0] - 1, j_range[1] + 1):
        rho = np.linspace(2.0**j, 2.0 ** (j + 1), points_per_band)
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
    cut: SmoothCutoff,
    constant: float = 8.0,
) -> tuple[float, bool]:
    """Max ratio of the square norm under rescaling m(r .) against m itself."""
    from .multipliers import scaled

    base = sigma2_norm(m, params, j_range, cut).total
    worst = 0.0
    for r in r_list:
        value = sigma2_norm(scaled(m, r), params, j_range, cut).total
        worst = max(worst, value / base if base > 0 else math.inf)
    return worst, worst <= constant
