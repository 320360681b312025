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


def _real_eigenpair(n: int, lam: float, state: int) -> tuple[float, np.ndarray]:
    """Selected eigenvalue (ascending, 1-based) and its max-normalized
    right eigenvector, from the symmetric similarity; only that one pair
    is computed."""
    # scipy is imported here, not at module level, so that CLI start-up
    # does not pay for it
    from scipy.linalg import eigh_tridiagonal

    if not 1 <= state <= n:
        raise DomainError(f"state index must lie in 1..{n}")
    diag, off, scale = symmetric_similarity(n, lam)
    values, vectors = eigh_tridiagonal(
        diag, off, select="i", select_range=(state - 1, state - 1)
    )
    vector = scale * vectors[:, 0]
    vector = vector / np.max(np.abs(vector))
    return float(values[0]), vector


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
    half = n // 2
    grid = LatticeGrid(n)
    f, psi = _real_eigenpair(n, lam, state)
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
    data = matching_data(spec, state)
    n, lam, f = spec.n, data.lam, data.f
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
    size of at least `MIN_STENCIL_SIZE`."""
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
    return size_list


def opaque_wall_check(lam: float, sizes: Iterable[int]) -> WallReport:
    """Track (|psi_K| + |psi_{K+1}|) / max|psi| for the ground state.

    The sequence must decrease toward zero as the lattice refines,
    monotonically up to a 10% rise between neighbouring sizes.  The free
    chain (lam = 0) is rejected: there is no wall to become opaque.
    """
    lam = float(lam)
    size_list = check_sweep(lam, sizes)
    amplitudes = []
    for n in size_list:
        _, psi = _real_eigenpair(n, lam, 1)
        half = n // 2
        amplitudes.append(float(abs(psi[half - 1]) + abs(psi[half])))
    decreasing = amplitudes[-1] < amplitudes[0] and all(
        later <= earlier * 1.1
        for earlier, later in zip(amplitudes, amplitudes[1:])
    )
    return WallReport(
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
