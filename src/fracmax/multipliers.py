"""Multiplier families, their decay diagnostics, and the fractional-difference transform.

All built-in families are radial-phase times radial-amplitude and vanish on
the ball of radius 1/2 (the amplitude carries the complementary low-pass
factor), so every dyadic band restriction is exactly zero for j <= -1.
Evaluation is radial: pass |xi| (or any real array; the absolute value is
taken).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .lp_frames import CUTOFF, BesovParams, sigma2_norm
from .wire import Registry, number

# finite-difference step for families without closed-form derivatives,
# relative to the evaluation radius
_FD_REL_STEP = 2.0**-14

# wire format of the built-in families (Custom and Scaled have none)
FAMILIES = Registry("family", "multiplier family")


@FAMILIES.register("limited_decay", a=number)
@dataclass(frozen=True)
class LimitedDecay:
    """Oscillating limited-decay symbol: every derivative decays like |xi|^-a.

    e^{2*pi*i*|xi|} (1 - phi(|xi|)) |xi|^-a -- the unit-speed phase keeps all
    derivative orders at the same decay rate, the defining property of the
    limited-decay class.
    """

    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("decay rate must be positive")


@FAMILIES.register("slow_decay", beta=number, delta=number)
@dataclass(frozen=True)
class SlowDecay:
    """(1 - phi)|xi|^-beta cos(|xi|^(1-delta)): derivative order k decays -beta - k*delta."""

    beta: float
    delta: float

    def __post_init__(self):
        if self.beta <= 0 or not 0 < self.delta < 1:
            raise ValueError("need beta > 0 and delta in (0, 1)")


@FAMILIES.register("oscillatory", alpha=number, beta=number)
@dataclass(frozen=True)
class Oscillatory:
    """e^{2*pi*i*|xi|^alpha} (1 - phi)|xi|^-beta: derivative order k decays -beta - k(1-alpha)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0 < self.alpha < 1 or self.beta <= 0:
            raise ValueError("need alpha in (0, 1) and beta > 0")


@FAMILIES.register("band_bump")
@dataclass(frozen=True)
class BandBump:
    """The annular bump itself."""


@dataclass(frozen=True, eq=False)
class Custom:
    evaluator: Callable[[np.ndarray], np.ndarray]
    oscillation: float = 0.0  # local phase frequency hint, cycles per unit radius


@dataclass(frozen=True, eq=False)
class Scaled:
    """m(r .) as a derived multiplier."""

    base: "Multiplier"
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("scale must be positive")


Multiplier = LimitedDecay | SlowDecay | Oscillatory | BandBump | Custom | Scaled


def scaled(m: Multiplier, r: float) -> Multiplier:
    if isinstance(m, Scaled):
        return Scaled(m.base, m.r * r)
    return Scaled(m, r)


def _amplitude(rho: np.ndarray, beta: float, order: int) -> np.ndarray:
    """Radial derivatives of (1 - phi(rho)) rho**-beta up to order 2.

    1 - phi and its derivatives vanish exactly on rho <= 1, so the powers of
    rho, which overflow near 0, are taken only beyond it.
    """
    one_minus = 1.0 - CUTOFF.phi(rho)
    live = rho > 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p0 = np.where(live, rho ** (-beta), 0.0)
        if order == 0:
            return one_minus * p0
        p1 = np.where(live, -beta * rho ** (-beta - 1.0), 0.0)
        d1 = -CUTOFF.phi_d1(rho)
        if order == 1:
            return d1 * p0 + one_minus * p1
        p2 = np.where(live, beta * (beta + 1.0) * rho ** (-beta - 2.0), 0.0)
    d2 = -CUTOFF.phi_d2(rho)
    return d2 * p0 + 2.0 * d1 * p1 + one_minus * p2


def _phase_exp(rho: np.ndarray, alpha: float, beta: float, order: int) -> np.ndarray:
    """Radial derivatives of e^{2 pi i rho**alpha} * amplitude(beta).

    The phase derivatives only multiply amplitude terms, which vanish on rho <= 1.
    """
    phase = np.exp(2j * np.pi * np.where(rho > 0, rho, 0.0) ** alpha)
    a0 = _amplitude(rho, beta, 0)
    if order == 0:
        return phase * a0
    live = rho > 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta1 = np.where(live, 2.0 * np.pi * alpha * rho ** (alpha - 1.0), 0.0)
    a1 = _amplitude(rho, beta, 1)
    if order == 1:
        return phase * (1j * theta1 * a0 + a1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta2 = np.where(live, 2.0 * np.pi * alpha * (alpha - 1.0) * rho ** (alpha - 2.0), 0.0)
    a2 = _amplitude(rho, beta, 2)
    return phase * (-(theta1**2) * a0 + 2j * theta1 * a1 + 1j * theta2 * a0 + a2)


def radial_derivative(m: Multiplier, rho, order: int = 0) -> np.ndarray:
    """d^k/drho^k of the radial profile, closed form where the family has one."""
    rho = np.asarray(rho, dtype=float)
    if order < 0 or order > 2:
        raise ValueError("derivative orders 0..2 supported")
    if isinstance(m, LimitedDecay):
        return _phase_exp(rho, 1.0, m.a, order)
    if isinstance(m, Oscillatory):
        return _phase_exp(rho, m.alpha, m.beta, order)
    if isinstance(m, SlowDecay):
        w = 1.0 - m.delta
        arg = np.where(rho > 0, rho, 0.0) ** w
        a0 = _amplitude(rho, m.beta, 0)
        if order == 0:
            return a0 * np.cos(arg)
        live = rho > 1.0  # as in _phase_exp
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w1 = np.where(live, w * rho ** (w - 1.0), 0.0)
        a1 = _amplitude(rho, m.beta, 1)
        if order == 1:
            return a1 * np.cos(arg) - a0 * w1 * np.sin(arg)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w2 = np.where(live, w * (w - 1.0) * rho ** (w - 2.0), 0.0)
        a2 = _amplitude(rho, m.beta, 2)
        return (
            a2 * np.cos(arg)
            - 2.0 * a1 * w1 * np.sin(arg)
            - a0 * (w2 * np.sin(arg) + w1**2 * np.cos(arg))
        )
    if isinstance(m, BandBump):
        if order == 0:
            return CUTOFF.psi(rho).astype(complex)
        if order == 1:
            return (CUTOFF.phi_d1(rho) - 2.0 * CUTOFF.phi_d1(2.0 * rho)).astype(complex)
        return (CUTOFF.phi_d2(rho) - 4.0 * CUTOFF.phi_d2(2.0 * rho)).astype(complex)
    if isinstance(m, Scaled):
        return m.r**order * radial_derivative(m.base, m.r * rho, order)
    if isinstance(m, Custom):
        if order == 0:
            return np.asarray(m.evaluator(rho), dtype=complex)
        h = np.maximum(_FD_REL_STEP * np.maximum(rho, 1e-3), 1e-9)
        if order == 1:
            return (evaluate(m, rho + h) - evaluate(m, rho - h)) / (2.0 * h)
        return (evaluate(m, rho + h) - 2.0 * evaluate(m, rho) + evaluate(m, rho - h)) / h**2
    raise TypeError(f"unknown multiplier {type(m).__name__}")


def evaluate(m: Multiplier, xi) -> np.ndarray:
    """Pointwise values; radial for the built-in families."""
    rho = np.abs(np.asarray(xi, dtype=float))
    return radial_derivative(m, rho, 0)


def _turns(m: Multiplier) -> tuple[float, float, float]:
    """The family's phase as (r rho)**w / c turns at radius rho, as (c, w, r); r = 0 means no phase."""
    if isinstance(m, Scaled):
        c, w, r = _turns(m.base)
        return c, w, m.r * r
    if isinstance(m, LimitedDecay):
        return 1.0, 1.0, 1.0
    if isinstance(m, Oscillatory):
        return 1.0, m.alpha, 1.0
    if isinstance(m, SlowDecay):
        return 2.0 * np.pi, 1.0 - m.delta, 1.0
    if isinstance(m, Custom):
        return 1.0, 1.0, m.oscillation
    return 1.0, 1.0, 0.0


def phase_frequency(m: Multiplier, rho: np.ndarray) -> np.ndarray:
    """Local oscillation rate (cycles per unit radius) of the family's phase."""
    c, w, r = _turns(m)
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(rho > 0, r * (w * (r * rho) ** (w - 1.0) / c), 0.0)


def band_oscillation(m: Multiplier, j: int) -> float:
    """Max local frequency of m(2**j .) on the annulus 1/2 <= |xi| <= 2."""
    rho = 2.0**j * np.geomspace(0.5, 2.0, 9)
    return float(2.0**j * np.max(phase_frequency(m, rho)))


def phase_cycles(m: Multiplier, rho: float) -> float:
    """Total phase turns of the family's oscillation from radius 0 to rho."""
    c, w, r = _turns(m)
    return (r * rho) ** w / c if rho > 0 else 0.0


# ---------------------------------------------------------------------------
# decay diagnostics


def decay_profile(m: Multiplier, j_range: tuple[int, int], order: int) -> tuple[float, ...]:
    """Fitted log2 decay slope of sup |d^k m| over the band annuli (256 samples each), per order k = 0..order."""
    js = np.arange(j_range[0], j_range[1] + 1)
    slopes = []
    for k in range(order + 1):
        sups = []
        for j in js:
            rho = np.linspace(2.0 ** (j - 1.0), 2.0 ** (j + 1.0), 256)
            sups.append(float(np.max(np.abs(radial_derivative(m, rho, k)))))
        sups = np.array(sups)
        if np.any(sups <= 0):
            slopes.append(-math.inf)
        else:
            slopes.append(float(np.polyfit(js, np.log2(sups), 1)[0]))
    return tuple(slopes)


# ---------------------------------------------------------------------------
# the fractional-difference transform


_PANEL_SIZE = 512


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gauss_nodes(n: int, lo: float, hi: float):
    """Composite Gauss-Legendre rule with ~n nodes total on [lo, hi].

    Splits into panels of at most _PANEL_SIZE so the node tables stay cheap
    to build and cache while the count scales with the integrand's
    oscillation.
    """
    if n <= _PANEL_SIZE:
        x, w = _leggauss(max(n, 4))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return mid + half * x, half * w
    panels = math.ceil(n / _PANEL_SIZE)
    edges = np.linspace(lo, hi, panels + 1)
    x, w = _leggauss(_PANEL_SIZE)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    return nodes, weights


def _adaptive_nodes(m: Multiplier, rho_max: float) -> int:
    """Node count resolving the family's oscillation over the ray (>= 5/cycle, 64 to 2**16)."""
    cycles = phase_cycles(m, rho_max)
    return int(min(1 << 16, max(64, 1 << math.ceil(math.log2(max(5.0 * cycles, 1.0))))))


def _mtilde_quadrature(m: Multiplier, alpha: float, rho: np.ndarray, n_nodes: int):
    """Two-piece evaluation of the fractional difference at radii rho.

    [0, 1/2]: plain Gauss-Legendre.  [1/2, 1]: substitute u = 1 - r = v**2 and
    cancel the first-order ray derivative so the integrand is integrable with
    vanishing boundary term.
    """
    m_rho = radial_derivative(m, rho, 0)
    # piece 1: r in [0, 1/2]
    r1, w1 = _gauss_nodes(n_nodes, 0.0, 0.5)
    vals1 = radial_derivative(m, rho[:, None] * r1[None, :], 0)
    part1 = ((m_rho[:, None] - vals1) * ((1.0 - r1) ** (-1.0 - alpha) * w1)[None, :]).sum(axis=1)
    # piece 2: u in (0, 1/2], Taylor-cancelled
    ray_slope = rho * radial_derivative(m, rho, 1)  # d/du m((1-u) rho) at u=0 is -rho m'(rho)
    v_edge = math.sqrt(0.5)
    v, wv = _gauss_nodes(n_nodes, 0.0, v_edge)
    u = v**2
    vals2 = radial_derivative(m, rho[:, None] * (1.0 - u)[None, :], 0)
    remainder = (m_rho[:, None] - vals2) - u[None, :] * ray_slope[:, None]
    part2 = (remainder * (2.0 * v ** (-1.0 - 2.0 * alpha) * wv)[None, :]).sum(axis=1)
    part2 += ray_slope * 0.5 ** (1.0 - alpha) / (1.0 - alpha)
    return part1 + part2


def _mtilde_pointwise(m: Multiplier, alpha: float, rho: np.ndarray, coarsen: int = 1):
    """The quadrature at each distinct radius of rho, with a node count set by the radius alone.

    Each radius gets _adaptive_nodes at the top of its octave, 2**ceil(log2 rho),
    divided by `coarsen`; the quadrature runs once per distinct count.
    """
    radii, inverse = np.unique(rho, return_inverse=True)
    mant, expo = np.frexp(radii)
    tops = np.where(radii > 0, np.ldexp(1.0, expo - (mant == 0.5)), 0.0)
    counts = np.array([_adaptive_nodes(m, float(t)) // coarsen for t in tops], dtype=int)
    out = np.empty(radii.shape, dtype=complex)
    for n in np.unique(counts):
        sel = counts == n
        out[sel] = _mtilde_quadrature(m, alpha, radii[sel], int(n))
    return out[inverse]


def _ray_scale(m: Multiplier, rho: np.ndarray) -> np.ndarray:
    """sup |m| over the ray [0, rho], sampled at 65 evenly spaced points."""
    r = np.linspace(0.0, 1.0, 65)
    return np.max(np.abs(radial_derivative(m, rho[:, None] * r[None, :], 0)), axis=1)


def mtilde_values(m: Multiplier, alpha: float, xi):
    """Fractional-difference transform values with per-point convergence flags.

    The node count adapts to the family's total phase variation over the ray
    up to the top of each radius's octave (at least 64 nodes, capped at 2**16
    nodes), so oscillatory integrands stay resolved.  A point is flagged when
    the half-node pass differs by more than 1e-6 relative to the larger of
    its value and 1% of sup |m| on its ray.  Values and flags are pointwise:
    neither depends on which other points share the batch.
    """
    if not 0 < alpha < 1:
        raise ValueError("order must lie in (0, 1)")
    rho = np.abs(np.asarray(xi, dtype=float)).ravel()
    fine = _mtilde_pointwise(m, alpha, rho)
    coarse = _mtilde_pointwise(m, alpha, rho, coarsen=2)
    floor = 0.01 * _ray_scale(m, rho)
    flags = np.abs(fine - coarse) > 1e-6 * np.maximum(np.abs(fine), floor)
    shape = np.asarray(xi).shape
    return fine.reshape(shape), flags.reshape(shape)


def mtilde_multiplier(m: Multiplier, alpha: float) -> Custom:
    """The transform as a multiplier, for square-norm machinery.

    Skips the fine/coarse convergence comparison of mtilde_values; the
    adaptive node count alone keeps the quadrature resolved.  The evaluator
    is pointwise like mtilde_values and computes each distinct radius once.
    """
    osc = float(np.max(phase_frequency(m, np.geomspace(0.25, 4096.0, 25))))

    def evaluator(xi):
        rho = np.abs(np.asarray(xi, dtype=float))
        return _mtilde_pointwise(m, alpha, rho.ravel()).reshape(rho.shape)

    return Custom(evaluator, oscillation=osc)


def embedding_check(
    m: Multiplier,
    alpha: float,
    eps: float,
    p: float,
    s: float,
    j_range: tuple[int, int],
) -> float:
    """Ratio of the transform's square norm at Besov index s against the
    base multiplier's at index s + alpha + eps."""
    num = sigma2_norm(mtilde_multiplier(m, alpha), BesovParams(p, s), j_range).total
    den = sigma2_norm(m, BesovParams(p, s + alpha + eps), j_range).total
    if num == 0.0 and den == 0.0:
        return 0.0
    return num / den if den > 0 else math.inf
