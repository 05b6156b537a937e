"""Multiplier families, their dyadic band norms, their decay diagnostics, and the fractional-difference transform.

All built-in families are radial-phase times radial-amplitude and vanish on
the ball of radius 1/2 (the amplitude carries the complementary low-pass
factor), so every dyadic band restriction is exactly zero for j <= -1.
Evaluation is radial: pass |xi| (or any real array; the absolute value is
taken).  Each family's class owns its closed form, `radial(rho, order)`, the
radial derivative of order 0..2 at radii rho >= 0, and its phase, `turns =
(c, w, r)`: (r rho)**w / c turns at radius rho, where r = 0 means no phase.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .lp_frames import CUTOFF, BesovParams, GridFunction, _band_norms, _besov_sum
from .wire import Registry, number, wire

# finite-difference step for families without closed-form derivatives,
# relative to the evaluation radius
_FD_REL_STEP = 2.0**-14

# wire format of the built-in families (Custom and Scaled have none)
FAMILIES = Registry("family", "multiplier family")


@FAMILIES.register("limited_decay")
@dataclass(frozen=True)
class LimitedDecay:
    """Oscillating limited-decay symbol: every derivative decays like |xi|^-a.

    e^{2*pi*i*|xi|} (1 - phi(|xi|)) |xi|^-a -- the unit-speed phase keeps all
    derivative orders at the same decay rate, the defining property of the
    limited-decay class.
    """

    a: float = wire(number)
    turns = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("decay rate must be positive")

    def radial(self, rho, order):
        return _phase_exp(rho, 2.0 * np.pi, 1.0, self.a, order)


@FAMILIES.register("slow_decay")
@dataclass(frozen=True)
class SlowDecay:
    """(1 - phi)|xi|^-beta cos(|xi|^(1-delta)): derivative order k decays -beta - k*delta."""

    beta: float = wire(number)
    delta: float = wire(number)
    turns = property(lambda self: (2.0 * np.pi, 1.0 - self.delta, 1.0))

    def __post_init__(self):
        if self.beta <= 0 or not 0 < self.delta < 1:
            raise ValueError("need beta > 0 and delta in (0, 1)")

    def radial(self, rho, order):
        # the real part of the shared ladder at phase rate 1; the cosine is that real part, at half the cost
        if order == 0:
            return _amplitude(rho, self.beta, 0)[0] * np.cos(np.where(rho > 0, rho, 0.0) ** (1.0 - self.delta))
        return _phase_exp(rho, 1.0, 1.0 - self.delta, self.beta, order).real


@FAMILIES.register("oscillatory")
@dataclass(frozen=True)
class Oscillatory:
    """e^{2*pi*i*|xi|^alpha} (1 - phi)|xi|^-beta: derivative order k decays -beta - k(1-alpha)."""

    alpha: float = wire(number)
    beta: float = wire(number)
    turns = property(lambda self: (1.0, self.alpha, 1.0))

    def __post_init__(self):
        if not 0 < self.alpha < 1 or self.beta <= 0:
            raise ValueError("need alpha in (0, 1) and beta > 0")

    def radial(self, rho, order):
        return _phase_exp(rho, 2.0 * np.pi, self.alpha, self.beta, order)


@FAMILIES.register("band_bump")
@dataclass(frozen=True)
class BandBump:
    """The annular bump itself."""

    turns = (1.0, 1.0, 0.0)

    def radial(self, rho, order):
        return CUTOFF.psi(rho, order).astype(complex)


@dataclass(frozen=True, eq=False)
class Custom:
    evaluator: Callable[[np.ndarray], np.ndarray]
    oscillation: float = 0.0  # local phase frequency hint, cycles per unit radius
    turns = property(lambda self: (1.0, 1.0, self.oscillation))

    def radial(self, rho, order):
        if order == 0:
            return np.asarray(self.evaluator(rho), dtype=complex)
        h = np.maximum(_FD_REL_STEP * np.maximum(rho, 1e-3), 1e-9)
        if order == 1:
            return (evaluate(self, rho + h) - evaluate(self, rho - h)) / (2.0 * h)
        return (evaluate(self, rho + h) - 2.0 * evaluate(self, rho) + evaluate(self, rho - h)) / h**2


@dataclass(frozen=True)
class Scaled:
    """m(r .) as a derived multiplier."""

    base: "Multiplier"
    r: float
    turns = property(lambda self: (*self.base.turns[:2], self.r * self.base.turns[2]))

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("scale must be positive")

    def radial(self, rho, order):
        return self.r**order * radial_derivative(self.base, self.r * rho, order)


Multiplier = LimitedDecay | SlowDecay | Oscillatory | BandBump | Custom | Scaled


def _live_power(rho: np.ndarray, c: float, e: float) -> np.ndarray:
    """c * rho**e beyond rho = 1 and 0 elsewhere, where the power may overflow but is never read."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(rho > 1.0, c * rho**e, 0.0)


def _amplitude(rho: np.ndarray, beta: float, order: int) -> list[np.ndarray]:
    """Radial derivatives of orders 0..order (at most 2) of (1 - phi(rho)) rho**-beta.

    1 - phi and its derivatives vanish exactly on rho <= 1, so the powers of rho are live powers.
    """
    one_minus, p0 = 1.0 - CUTOFF.phi(rho), _live_power(rho, 1.0, -beta)
    amps = [one_minus * p0]
    if order >= 1:
        d1, p1 = -CUTOFF.phi(rho, 1), _live_power(rho, -beta, -beta - 1.0)
        amps.append(d1 * p0 + one_minus * p1)
    if order == 2:
        p2 = _live_power(rho, beta * (beta + 1.0), -beta - 2.0)
        amps.append(-CUTOFF.phi(rho, 2) * p0 + 2.0 * d1 * p1 + one_minus * p2)
    return amps


def _phase_exp(rho: np.ndarray, k: float, alpha: float, beta: float, order: int) -> np.ndarray:
    """Radial derivatives of e^{i k rho**alpha} * amplitude(beta).

    The phase derivatives only multiply amplitude terms, which vanish on rho <= 1.
    """
    phase = np.exp(1j * k * np.where(rho > 0, rho, 0.0) ** alpha)
    a = _amplitude(rho, beta, order)
    if order == 0:
        return phase * a[0]
    theta1 = _live_power(rho, k * alpha, alpha - 1.0)
    if order == 1:
        return phase * (1j * theta1 * a[0] + a[1])
    theta2 = _live_power(rho, k * alpha * (alpha - 1.0), alpha - 2.0)
    return phase * (-(theta1**2) * a[0] + 2j * theta1 * a[1] + 1j * theta2 * a[0] + a[2])


def radial_derivative(m: Multiplier, rho, order: int = 0) -> np.ndarray:
    """d^k/drho^k of the radial profile by the family's own `radial`; every multiplier value passes here."""
    rho = np.asarray(rho, dtype=float)
    if order < 0 or order > 2:
        raise ValueError("derivative orders 0..2 supported")
    return m.radial(rho, order)


def evaluate(m: Multiplier, xi) -> np.ndarray:
    """Pointwise values; radial for the built-in families."""
    rho = np.abs(np.asarray(xi, dtype=float))
    return radial_derivative(m, rho, 0)


def phase_frequency(m: Multiplier, rho: np.ndarray) -> np.ndarray:
    """Local oscillation rate (cycles per unit radius) of the family's phase."""
    c, w, r = m.turns
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(rho > 0, r * (w * (r * rho) ** (w - 1.0) / c), 0.0)


def band_oscillation(m: Multiplier, j: int) -> float:
    """Max local frequency of m(2**j .) on the annulus 1/2 <= |xi| <= 2."""
    rho = 2.0**j * np.geomspace(0.5, 2.0, 9)
    return float(2.0**j * np.max(phase_frequency(m, rho)))


def phase_cycles(m: Multiplier, rho: float) -> float:
    """Total phase turns of the family's oscillation from radius 0 to rho."""
    c, w, r = m.turns
    return (r * rho) ** w / c if rho > 0 else 0.0


# ---------------------------------------------------------------------------
# dyadic band norms


_BAND_MEMO: ContextVar[dict | None] = ContextVar("band_memo", default=None)


@contextmanager
def band_memo():
    """Scope in which sigma2_norm keeps each band's unweighted norms, keyed by (m, j, float(p),
    inner j_max) and by the band's sample bytes, for later calls and Besov indices; a nested
    scope shares the outer memo."""
    memo = _BAND_MEMO.get()
    token = _BAND_MEMO.set({} if memo is None else memo)
    try:
        yield
    finally:
        _BAND_MEMO.reset(token)


@dataclass(frozen=True)
class Sigma2Result:
    total: float
    bands: tuple[tuple[int, float], ...]
    stale: bool


def sigma2_norm(m: Multiplier, params: BesovParams, j_range: tuple[int, int]) -> Sigma2Result:
    """Square-summed Besov norms of the dyadic band restrictions of m.

    Each band m(2**j .) * psi is sampled on its own annulus grid (resolution
    adapted to the band's oscillation) and measured in the requested Besov
    norm; m is evaluated only where psi is nonzero, 1/2 < |xi| < 2.  The
    result is the l^2 total with the per-band breakdown.  The stale
    flag reports a truncation-dominated sum: the last two bands contribute
    more than 1% of the total, or a band oscillates beyond the top 2**inner
    of its Besov ladder.  Inside a band_memo scope a band's unweighted
    norms are computed once and only re-weighted for each index s.
    """
    memo = {} if _BAND_MEMO.get() is None else _BAND_MEMO.get()  # call-local outside a scope
    bands, truncated = [], False
    for j in range(j_range[0], j_range[1] + 1):
        # the band's grid over [-4, 4): at least 1024 points, fine enough that
        # the band's oscillation stays below Nyquist
        osc = band_oscillation(m, j)
        n = 1 << (max(1024, int(64 * max(osc, 1.0))) - 1).bit_length()
        inner = min(params.j_max, int(math.log2(n / 16.0)) - 1)  # n / 16: Nyquist on [-4, 4)
        # the band's content sits near |x| ~ osc, beyond a ladder that stops at 2**inner
        truncated = truncated or osc > 2.0**inner
        key = (m, j, float(params.p), inner)
        if key not in memo:
            xi = -4.0 + (8.0 / n) * np.arange(n)
            weight = CUTOFF.psi(xi)
            on = weight != 0
            samples = np.zeros(n, dtype=complex)
            samples[on] = evaluate(m, 2.0**j * xi[on]) * weight[on]
            del xi, weight, on  # the grid's arrays go before the band's transform
            same = (hashlib.sha256(samples).digest(), float(params.p), inner)  # equal samples, equal norms
            if same not in memo:  # an all-zero band has zero norms and needs no transform
                zero = not samples.any()
                memo[same] = [0.0] * (inner + 1) if zero else _band_norms(GridFunction(4.0, samples), params.p, inner)
            memo[key] = memo[same]
        bands.append((j, _besov_sum(memo[key], params)))
    total = math.sqrt(sum(v**2 for _, v in bands))
    tail = math.sqrt(bands[-1][1] ** 2 + bands[-2][1] ** 2) if len(bands) >= 2 else 0.0
    return Sigma2Result(total, tuple(bands), truncated or (total > 0 and tail > 0.01 * total))


def band_sup_norm(m: Multiplier, j: int) -> float:
    """Grid sup of the band-j restriction |m(2**j .) psi| on its annulus."""
    osc = band_oscillation(m, j)
    n = 1 << max(10, int(4 * max(osc, 1.0)).bit_length())
    rho = np.linspace(0.0, 4.0, min(n, 1 << 16), endpoint=False)
    return float(np.max(np.abs(evaluate(m, 2.0**j * rho) * CUTOFF.psi(rho))))


def sigma2_weighted_sobolev(m: Multiplier, level: int, j_range: tuple[int, int]) -> float:
    """Weighted-derivative integral equivalent to the band_2^l square sum.

    Sums integrals of |d^k m|^2 |xi|^{2k-d} over the annulus covering the
    dyadic range, for k = 0..level, in one dimension, with 512 points per octave.  Derivatives are
    normalized by (2*pi)^k to match the cycle-frequency convention of the
    Besov ladder, so the equivalence constant is convention-free.
    """
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
    m: Multiplier,
    r_list: Iterable[float],
    params: BesovParams,
    j_range: tuple[int, int],
) -> float:
    """Max ratio of the square norm under rescaling m(r .) against m itself."""
    base = sigma2_norm(m, params, j_range).total
    worst = 0.0
    for r in r_list:
        value = sigma2_norm(Scaled(m, r), params, j_range).total
        worst = max(worst, value / base if base > 0 else math.inf)
    return worst


# ---------------------------------------------------------------------------
# decay diagnostics


def decay_profile(m: Multiplier, j_range: tuple[int, int], order: int) -> tuple[float, ...]:
    """Fitted log2 decay slope of sup |d^k m| over the band annuli (256 samples each), per order k = 0..order."""
    js = np.arange(j_range[0], j_range[1] + 1)
    slopes = []
    for k in range(order + 1):
        rhos = (np.linspace(2.0 ** (j - 1.0), 2.0 ** (j + 1.0), 256) for j in js)
        sups = np.array([float(np.max(np.abs(radial_derivative(m, rho, k)))) for rho in rhos])
        slopes.append(-math.inf if np.any(sups <= 0) else float(np.polyfit(js, np.log2(sups), 1)[0]))
    return tuple(slopes)


# ---------------------------------------------------------------------------
# the fractional-difference transform


_PANEL_SIZE = 512
MTILDE_CHUNK = 1 << 16  # (radius x node) values one quadrature chunk holds


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gauss_nodes(n: int, lo: float, hi: float):
    """Composite Gauss-Legendre rule with ~n nodes total on [lo, hi].

    Splits into panels of at most _PANEL_SIZE so the node tables stay cheap
    to build and cache while the count scales with the integrand's
    oscillation.
    """
    panels = math.ceil(n / _PANEL_SIZE)
    edges = np.linspace(lo, hi, panels + 1)
    x, w = _leggauss(min(max(n, 4), _PANEL_SIZE))
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
    divided by `coarsen`.  The radii of one count run through the quadrature in
    chunks of at most MTILDE_CHUNK (radius x node) values; each row is its own
    sum, so the chunking moves no bit.
    """
    radii, inverse = np.unique(rho, return_inverse=True)
    mant, expo = np.frexp(radii)
    tops = np.where(radii > 0, np.ldexp(1.0, expo - (mant == 0.5)), 0.0)
    counts = np.array([_adaptive_nodes(m, float(t)) // coarsen for t in tops], dtype=int)
    out = np.empty(radii.shape, dtype=complex)
    for n in np.unique(counts):
        sel, step = np.flatnonzero(counts == n), max(MTILDE_CHUNK // int(n), 1)
        for lo in range(0, sel.size, step):
            rows = sel[lo : lo + step]
            out[rows] = _mtilde_quadrature(m, alpha, radii[rows], int(n))
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
