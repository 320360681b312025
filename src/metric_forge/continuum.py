"""Desk-scale continuum-limit checks for the middle-bond matching.

On the grid x_k = -1 + k h with h = 2/(n+1), the chain member is the
standard three-point kinetic discretization away from the origin, and the
two coupled rows across the middle bond act as a first-order matching
condition between one-sided boundary data (psi_L(0), psi_L'(0)) and
(psi_R(0), psi_R'(0)).  As h shrinks the matching degenerates into an
opaque wall, psi_L(0) = psi_R(0) = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .analysis import PositivityReport, positivity, symmetric_similarity
from .errors import DimensionError, DomainError
from .hamiltonian import HamiltonianSpec, _check_size

__all__ = [
    "LatticeGrid",
    "MatchingData",
    "WallReport",
    "FreeMetricParams",
    "matching_data",
    "matching_residual",
    "fit_loglog_slope",
    "check_sweep",
    "opaque_wall_check",
    "free_lattice_metric",
]

# Smallest lattice with the four central components the boundary stencil
# of `matching_data` reads.
MIN_STENCIL_SIZE = 8

# Largest lattice of a sweep.  A solve is up to about 75 Sturm passes of
# n steps each in Python, 0.12 s at n = 10000 (2 cores), and a sweep at a
# state other than 1 solves twice per size: the subprocess
# `continuum --lambda 0.5 --sizes 626,1250,2500,5000,10000 --state 2`
# takes 0.75 s and peaks at 34 MB of RSS.
MAX_CONTINUUM_SIZE = 10_000

# Solves of inverse iteration; with the eigenvalue at full precision the
# first one converges, the others take out what is left of the start.
_INVERSE_STEPS = 3
# The fractional part of the golden ratio, the step of the start vector.
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class LatticeGrid:
    """Equidistant grid with n interior points and Dirichlet endpoints at
    -1 and +1 exactly."""

    n: int

    def __post_init__(self) -> None:
        _check_size(self.n)

    @property
    def h(self) -> float:
        return 2.0 / (self.n + 1)

    @property
    def points(self) -> tuple[float, ...]:
        return tuple(-1.0 + 2.0 * k / (self.n + 1) for k in range(self.n + 2))


def _sturm_count(diag: list[float], off2: list[float], x: float, pivmin: float) -> int:
    """How many eigenvalues of S lie at or below x: the non-positive
    pivots of the LDL^T factorization of S - x.  `off2` holds the squared
    off-diagonal behind a leading 0; a pivot closer to zero than `pivmin`
    becomes -pivmin, as in LAPACK's dstebz, so a pivot counts if it is
    below `pivmin`."""
    count = 0
    pivot = 1.0
    for a, b2 in zip(diag, off2):
        pivot = a - b2 / pivot - x
        if pivot < pivmin:
            count += 1
            if pivot > -pivmin:
                pivot = -pivmin
    return count


def _bisect_eigenvalue(diag: list[float], off: list[float], state: int) -> float:
    """The state-th smallest eigenvalue of S (1-based), by bisection on the
    Sturm count inside the Gershgorin interval until the midpoint equals
    an end, that is, to full float precision (Barth, Martin and
    Wilkinson 1967)."""
    n = len(diag)
    off2 = [0.0] + [b * b for b in off]
    radius = [abs(left) + abs(right) for left, right in zip([0.0] + off, off + [0.0])]
    lo = min(a - r for a, r in zip(diag, radius))
    hi = max(a + r for a, r in zip(diag, radius))
    pivmin = sys.float_info.min * max(off2 + [1.0])
    # widened as in dstebz, so that the Gershgorin ends count 0 and n
    slack = 2.1 * (max(abs(lo), abs(hi)) * n * sys.float_info.epsilon + 2.0 * pivmin)
    lo, hi = lo - slack, hi + slack
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _sturm_count(diag, off2, mid, pivmin) >= state:
            hi = mid
        else:
            lo = mid
    return mid


def _inverse_iteration(diag: list[float], off: list[float], value: float) -> list[float]:
    """Eigenvector of S at its eigenvalue `value`, max-normalized.

    S - value is factored once by LU with partial pivoting (LAPACK's
    dgttrf; every off-diagonal entry of S is nonzero), each pivot of U at
    least eps * ||S|| in size; then `_INVERSE_STEPS` solves, each
    solution max-normalized into the next right-hand side.  S is
    persymmetric, so its eigenvectors are reflection symmetric or
    antisymmetric: the start vector is neither, or it would miss half of
    them.
    """
    n = len(diag)
    tiny = sys.float_info.epsilon * max(abs(a) + 2.0 * abs(b) for a, b in zip(diag, off + [0.0]))
    # U has the diagonal u0 and two superdiagonals u1, u2; `low` becomes
    # the multipliers of L, `swap[i]` whether rows i and i + 1 were swapped
    u0 = [a - value for a in diag]
    u1 = off + [0.0]
    u2 = [0.0] * n
    low = list(off)
    swap = [False] * n
    for i in range(n - 1):
        if abs(u0[i]) >= abs(low[i]):
            low[i] /= u0[i]
            u0[i + 1] -= low[i] * u1[i]
        else:
            swap[i] = True
            fact = u0[i] / low[i]
            u0[i], low[i] = low[i], fact
            u1[i], u0[i + 1] = u0[i + 1], u1[i] - fact * u0[i + 1]
            u2[i] = u1[i + 1]
            u1[i + 1] *= -fact
    u0 = [p if abs(p) >= tiny else math.copysign(tiny, p) for p in u0]
    # a Weyl sequence in [-1/2, 1/2): no reflection symmetry
    x = [(k * _GOLDEN) % 1.0 - 0.5 for k in range(1, n + 1)]
    for _ in range(_INVERSE_STEPS):
        for i in range(n - 1):
            if swap[i]:
                x[i], x[i + 1] = x[i + 1], x[i]
            x[i + 1] -= low[i] * x[i]
        x += [0.0, 0.0]
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
        del x[n:]
        top = max(map(abs, x))
        x = [v / top for v in x]
    return x


def _real_eigenpair(n: int, lam: float, state: int) -> tuple[float, np.ndarray]:
    """Selected eigenvalue (ascending, 1-based) and its max-normalized
    right eigenvector, from the symmetric similarity; only that one pair
    is computed."""
    if not 1 <= state <= n:
        raise DomainError(f"state index must lie in 1..{n}")
    diag, off, scale = symmetric_similarity(n, lam)
    diag, off = diag.tolist(), off.tolist()
    value = _bisect_eigenvalue(diag, off, state)
    vector = scale * np.array(_inverse_iteration(diag, off, value))
    vector = vector / np.max(np.abs(vector))
    return value, vector


@dataclass(frozen=True, eq=False)
class MatchingData:
    """One real eigenpair with its one-sided boundary estimates.

    The estimates invert the two-term Taylor expansions through the four
    central components, which sit at offsets -3h/2, -h/2, +h/2, +3h/2
    from the origin:

        psi_L(0)  = (3 psi_K - psi_{K-1}) / 2     psi_L'(0) = (psi_K - psi_{K-1}) / h
        psi_R(0)  = (3 psi_{K+1} - psi_{K+2}) / 2 psi_R'(0) = (psi_{K+2} - psi_{K+1}) / h

    Substituting them back reproduces the two coupled rows of the
    eigenproblem identically, so this data satisfies the matching
    condition by construction; matching_residual measures the condition
    on half-chain wave data instead.
    """

    n: int
    lam: float
    state: int
    energy: float  # continuum-scaled eigenvalue, f / h^2
    f: float  # dimensionless lattice eigenvalue h^2 * energy
    psi: tuple[float, ...]
    psi_l0: float
    dpsi_l0: float
    psi_r0: float
    dpsi_r0: float


def matching_data(spec: HamiltonianSpec, state: int = 1) -> MatchingData:
    """Eigenpair plus stencil-reconstructed boundary data at the origin."""
    n = spec.n
    if n < MIN_STENCIL_SIZE:
        raise DimensionError(f"boundary reconstruction needs n >= {MIN_STENCIL_SIZE}")
    lam = float(spec.lam)
    if not -1.0 < lam < 1.0:
        raise DomainError("matching analysis requires |lam| < 1")
    return _stencil_data(n, lam, state, *_real_eigenpair(n, lam, state))


def _stencil_data(n: int, lam: float, state: int, f: float, psi: np.ndarray) -> MatchingData:
    half = n // 2
    grid = LatticeGrid(n)
    p_km1, p_k, p_k1, p_k2 = psi[half - 2], psi[half - 1], psi[half], psi[half + 1]
    return MatchingData(
        n=n,
        lam=lam,
        state=state,
        energy=f / grid.h**2,
        f=f,
        psi=tuple(float(v) for v in psi),
        psi_l0=(3.0 * p_k - p_km1) / 2.0,
        dpsi_l0=(p_k - p_km1) / grid.h,
        psi_r0=(3.0 * p_k1 - p_k2) / 2.0,
        dpsi_r0=(p_k2 - p_k1) / grid.h,
    )


def _matching_sides(
    lam: float, f: float, h: float, v_r: float, v_l: float, d_r: float, d_l: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Left and right sides of the two matching relations between the
    right (r) and left (l) boundary values v and one-sided derivatives d.
    On the stencil data of a psi that satisfies both coupled rows the two
    sides agree identically; with exact inputs they are exactly equal."""
    lhs = (
        (h / 2) * (-(1 + lam) * d_r + (f + 1) * d_l),
        (h / 2) * (-(f + 1) * d_r + (1 - lam) * d_l),
    )
    rhs = (
        (1 + lam) * v_r + (f - 1) * v_l,
        (f - 1) * v_r + (1 - lam) * v_l,
    )
    return lhs, rhs


def matching_residual(spec: HamiltonianSpec, state: int = 1) -> float:
    """Relative defect of the matching condition on half-chain wave data.

    Away from the middle bond the eigenvector is an exact sinusoid on
    each half, so the eigenpair fixes a wavenumber kappa = eps / h with
    2 cos(eps) = 2 - f and one amplitude per side.  Feeding the exact
    boundary values and one-sided derivatives of those half waves into
    the matching condition leaves a gap that measures its accuracy as a
    continuum statement; the rowwise relative gap decays at second order
    in h for smooth low-lying states.
    """
    return _wave_residual(matching_data(spec, state))


def _wave_residual(data: MatchingData) -> float:
    n, lam, f = data.n, data.lam, data.f
    half = n // 2
    h = LatticeGrid(n).h
    eps = math.acos(min(1.0, max(-1.0, 1.0 - f / 2.0)))
    kappa = eps / h
    mid_sine = math.sin(half * eps)
    amp_left = data.psi[half - 1] / mid_sine
    amp_right = data.psi[half] / mid_sine
    v_r = amp_right * math.sin(kappa)
    v_l = amp_left * math.sin(kappa)
    d_r = -amp_right * kappa * math.cos(kappa)
    d_l = amp_left * kappa * math.cos(kappa)
    lhs, rhs = _matching_sides(lam, f, h, v_r, v_l, d_r, d_l)
    gaps = []
    for a, b in zip(lhs, rhs):
        scale = abs(a) + abs(b)
        gaps.append(abs(a - b) / scale if scale > 0.0 else 0.0)
    return max(gaps)


def fit_loglog_slope(sizes: Sequence[int], residuals: Sequence[float]) -> float:
    """Least-squares slope of log(residual) against log(h)."""
    if len(sizes) != len(residuals) or len(sizes) < 2:
        raise DimensionError("need matching size/residual lists of length >= 2")
    hs = np.log([LatticeGrid(n).h for n in sizes])
    rs = np.log(np.asarray(residuals, dtype=float))
    return float(np.polyfit(hs, rs, 1)[0])


@dataclass(frozen=True)
class WallReport:
    """Normalized central amplitude of the ground state per size."""

    lam: float
    sizes: tuple[int, ...]
    amplitudes: tuple[float, ...]
    decreasing: bool


def check_sweep(lam: float, sizes: Iterable[int]) -> tuple[int, ...]:
    """The sizes of a sweep at a nonzero coupling inside (-1, 1), checked
    whole before any solve: at least two, strictly increasing, each a chain
    size from `MIN_STENCIL_SIZE` to `MAX_CONTINUUM_SIZE`."""
    if lam == 0:
        raise DomainError("the opaque-wall limit needs a nonzero coupling")
    if not -1 < lam < 1:
        raise DomainError("wall check requires |lam| < 1")
    size_list = tuple(int(s) for s in sizes)
    if len(size_list) < 2 or list(size_list) != sorted(set(size_list)):
        raise DomainError("need a strictly increasing list of at least two sizes")
    for n in size_list:
        _check_size(n)
        if n < MIN_STENCIL_SIZE:
            raise DimensionError(f"sizes must be at least {MIN_STENCIL_SIZE}")
        if n > MAX_CONTINUUM_SIZE:
            raise DimensionError(f"sizes must be at most {MAX_CONTINUUM_SIZE}")
    return size_list


def opaque_wall_check(lam: float, sizes: Iterable[int]) -> WallReport:
    """Track (|psi_K| + |psi_{K+1}|) / max|psi| for the ground state.

    The sequence must decrease toward zero as the lattice refines,
    monotonically up to a 10% rise between neighbouring sizes.  The free
    chain (lam = 0) is rejected: there is no wall to become opaque.
    """
    return _sweep(float(lam), sizes, 1)[1]


def _sweep(lam: float, sizes: Iterable[int], state: int) -> tuple[list[float], WallReport]:
    """`matching_residual` at `state` for each size, and `opaque_wall_check`,
    over one sweep checked whole first.  Each pair is solved once: at
    state 1 the wall reads the matching solves."""
    size_list = check_sweep(lam, sizes)
    residuals, amplitudes = [], []
    for n in size_list:
        data = _stencil_data(n, lam, state, *_real_eigenpair(n, lam, state))
        residuals.append(_wave_residual(data))
        ground = data.psi if state == 1 else _real_eigenpair(n, lam, 1)[1]
        amplitudes.append(float(abs(ground[n // 2 - 1]) + abs(ground[n // 2])))
    decreasing = amplitudes[-1] < amplitudes[0] and all(
        later <= earlier * 1.1
        for earlier, later in zip(amplitudes, amplitudes[1:])
    )
    return residuals, WallReport(
        lam=lam,
        sizes=size_list,
        amplitudes=tuple(amplitudes),
        decreasing=decreasing,
    )


@dataclass(frozen=True)
class FreeMetricParams:
    """Parameters of the free-chain metric family
    exp(-f) (cosh(k) I - sinh(k) J), with J the lattice parity."""

    f: float = 0.0
    k: float = 0.0


def free_lattice_metric(
    n: int, params: FreeMetricParams
) -> tuple[np.ndarray, PositivityReport]:
    """Two-parameter metric of the uncoupled chain.

    Only the identity-like and parity-like basis matrices survive the
    continuum limit at zero coupling; their hyperbolic combination has
    eigenvalues exp(-f -/+ k), each of multiplicity n/2, hence is positive
    for every parameter choice and commutes with the free chain exactly.
    """
    _check_size(n)
    a = math.exp(-params.f) * math.cosh(params.k)
    b = -math.exp(-params.f) * math.sinh(params.k)
    theta = a * np.eye(n) + b * np.fliplr(np.eye(n))
    return theta, positivity(theta)
