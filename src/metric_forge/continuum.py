"""Desk-scale continuum-limit checks for the middle-bond matching.

On the grid x_k = -1 + k h with h = 2/(n+1), the chain member is the
standard three-point kinetic discretization away from the origin, and the
two coupled rows across the middle bond act as a first-order matching
condition between one-sided boundary data (psi_L(0), psi_L'(0)) and
(psi_R(0), psi_R'(0)).  As h shrinks the matching degenerates into an
opaque wall, psi_L(0) = psi_R(0) = 0.  Each eigenpair comes from one
root of the chain's secular equation, in plain Python floats: this
module imports only the standard library.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionError, DomainError
from .hamiltonian import HamiltonianSpec, _check_size, _float_coupling, _secular_root

__all__ = [
    "LatticeGrid",
    "MatchingData",
    "WallReport",
    "matching_data",
    "matching_residual",
    "fit_loglog_slope",
    "check_sweep",
    "opaque_wall_check",
    "sweep",
]

# Smallest lattice with the four central components the boundary stencil
# of `matching_data` reads.
MIN_STENCIL_SIZE = 8

# Largest lattice of a sweep.  A solve is one secular root, about 60
# bisection steps of two sines each (23 us), and n/2 sines for the
# eigenvector: 1.8 ms at n = 10000 (2 cores).  A sweep at a state other
# than 1 solves twice per size: the subprocess
# `continuum --lambda 0.5 --sizes 626,1250,2500,5000,10000 --state 2`
# takes 0.10 s and peaks at 18 MB of RSS, as `hamiltonian --n 2` does.
MAX_CONTINUUM_SIZE = 10_000

# Most sizes in one sweep, so that the largest sweep has a bounded cost:
# the 200 largest sizes at state 2 (9602, 9604, ..., 10000) take 0.84 s
# as a subprocess and peak at 23 MB of RSS (0.53 s at state 1).
MAX_SWEEP_SIZES = 200


class _Grid(NamedTuple):
    n: int


class LatticeGrid(_Grid):
    """Equidistant grid with n interior points and Dirichlet endpoints at
    -1 and +1 exactly."""

    __slots__ = ()

    def __new__(cls, n: int) -> LatticeGrid:
        _check_size(n)
        return super().__new__(cls, n)

    @property
    def h(self) -> float:
        return 2.0 / (self.n + 1)

    @property
    def points(self) -> tuple[float, ...]:
        return tuple(-1.0 + 2.0 * k / (self.n + 1) for k in range(self.n + 2))


def _real_eigenpair(n: int, lam: float, state: int) -> tuple[float, tuple[float, ...]]:
    """Selected eigenvalue (ascending, 1-based) and its max-normalized
    right eigenvector, from the state's secular root eps: the eigenvalue
    is 4 sin^2(eps/2), and the eigenvector psi_k = sin(k eps) for k <= K
    and psi_{n+1-k} = +/- r sin(k eps), r = sqrt((1 - lam)/(1 + lam)),
    with the + sign for odd states (`hamiltonian._secular_root`)."""
    if not 1 <= state <= n:
        raise DomainError(f"state index must lie in 1..{n}")
    if not -1.0 < lam < 1.0:
        raise DomainError("the secular root requires |lam| < 1")
    eps = _secular_root(n, lam, state)
    left = [math.sin(k * eps) for k in range(1, n // 2 + 1)]
    ratio = (-1.0) ** (state + 1) * math.sqrt((1.0 - lam) / (1.0 + lam))
    psi = left + [ratio * v for v in reversed(left)]
    top = max(map(abs, psi))
    return 4.0 * math.sin(0.5 * eps) ** 2, tuple(v / top for v in psi)


class MatchingData(NamedTuple):
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
    lam = _float_coupling(spec.lam)
    if not -1.0 < lam < 1.0:
        raise DomainError("matching analysis requires |lam| < 1")
    return _stencil_data(n, lam, state, *_real_eigenpair(n, lam, state))


def _stencil_data(n: int, lam: float, state: int, f: float, psi: tuple) -> MatchingData:
    half = n // 2
    grid = LatticeGrid(n)
    p_km1, p_k, p_k1, p_k2 = psi[half - 2], psi[half - 1], psi[half], psi[half + 1]
    return MatchingData(
        n=n,
        lam=lam,
        state=state,
        energy=f / grid.h**2,
        f=f,
        psi=psi,
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
    # the inverse of f = 4 sin^2(eps/2), without the cancellation of
    # acos(1 - f/2) at small eps
    eps = 2.0 * math.asin(0.5 * math.sqrt(f))
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
    """Least-squares slope of log(residual) against log(h).

    A residual that is zero or not finite has no logarithm.  One of
    exactly 1 carries no information: a relative gap |a - b| / (|a| + |b|)
    (`matching_residual`) reads 1 when the two sides have opposite signs,
    so the state is not resolved on that lattice.  Each raises DomainError
    naming the size."""
    if len(sizes) != len(residuals) or len(set(sizes)) < 2:
        raise DimensionError("need matching size/residual lists with two distinct sizes")
    for n, r in zip(sizes, residuals):
        if not 0.0 < r < math.inf:
            raise DomainError(f"a residual of {r} at size {n}: it has no log-log slope")
        if r == 1.0:
            raise DomainError(
                f"a residual of 1 at size {n}: the two sides of a matching relation "
                "have opposite signs, so the state is not resolved there"
            )
    xs = [math.log(LatticeGrid(n).h) for n in sizes]
    ys = [math.log(r) for r in residuals]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - x_mean) ** 2 for x in xs)
    return sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / spread


class WallReport(NamedTuple):
    """Normalized central amplitude of the ground state per size."""

    lam: float
    sizes: tuple[int, ...]
    amplitudes: tuple[float, ...]
    decreasing: bool


def check_sweep(lam: float, sizes: Iterable[int]) -> tuple[int, ...]:
    """The sizes of a sweep at a nonzero coupling inside (-1, 1), checked
    whole before any solve: from two to `MAX_SWEEP_SIZES` of them, strictly
    increasing, each a chain size from `MIN_STENCIL_SIZE` to
    `MAX_CONTINUUM_SIZE`."""
    if lam == 0:
        raise DomainError("the opaque-wall limit needs a nonzero coupling")
    if not -1 < lam < 1:
        raise DomainError("wall check requires |lam| < 1")
    size_list = tuple(int(s) for s in sizes)
    if len(size_list) < 2 or list(size_list) != sorted(set(size_list)):
        raise DomainError("need a strictly increasing list of at least two sizes")
    if len(size_list) > MAX_SWEEP_SIZES:
        raise DimensionError(f"a sweep takes at most {MAX_SWEEP_SIZES} sizes")
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
    return sweep(float(lam), sizes, 1)[1]


def sweep(lam: float, sizes: Iterable[int], state: int) -> tuple[list[float], WallReport]:
    """`matching_residual` at `state` for each size, and `opaque_wall_check`,
    over one sweep checked whole first.  Each pair is solved once: at
    state 1 the wall reads the matching solves."""
    size_list = check_sweep(lam, sizes)
    residuals, amplitudes = [], []
    for n in size_list:
        data = _stencil_data(n, lam, state, *_real_eigenpair(n, lam, state))
        residuals.append(_wave_residual(data))
        ground = data.psi if state == 1 else _real_eigenpair(n, lam, 1)[1]
        amplitudes.append(abs(ground[n // 2 - 1]) + abs(ground[n // 2]))
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
