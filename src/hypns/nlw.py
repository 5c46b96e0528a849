"""Damped nonlinear wave relaxation of Navier-Stokes.

Solves eps u_tt + u_t - Lap u = -P nabla:(u (x) u) as a first-order system
per Fourier mode.  The linear part is advanced by the exact 2x2 matrix
exponential built from the characteristic roots of eps z^2 + z + |k|^2 = 0,
so small eps costs no extra steps; the nonlinearity is handled by a
two-stage exponential midpoint rule (second order in dt).  A solve fails
one way: a sample whose wave energy exceeds a ceiling or is NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ns import SolverFailure, march
from .spectral import (
    Grid,
    SpectralField,
    _adopt,
    _box_forcing,
    base_sigma,
    box_add,
    box_gather,
    mode_mag2,
    require_divergence_free,
    weighted_sum,
)

# below this size of (disc * (dt / 2 eps)^2) the propagator entries are
# evaluated by series to dodge the cancellation at the double-root locus
_SERIES_Z2 = 1e-4

# a sample whose wave energy exceeds this many times the initial energy
# ends the solve as a blow-up
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True, eq=False)
class WaveState:
    u: SpectralField
    ut: SpectralField
    eps: float
    t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")

    @cached_property
    def shared_density(self) -> np.ndarray:
        """Per-mode eps^2/2 |u_t|^2 + eps |k|^2 |u|^2: the part of the energy
        density that the modulated energy has too."""
        eps = self.eps
        return 0.5 * eps * eps * mode_mag2(self.ut.coeffs) + eps * self.u.grid.k2 * mode_mag2(self.u.coeffs)

    def modulated_density(self, m: np.ndarray) -> np.ndarray:
        """Per-mode 1/2 |m + eps u_t|^2 plus ``shared_density``: the energy
        density for the coefficients m of u (``energy_density``), the
        modulated one for those of u - v.

        The sum m + eps u_t is formed in the caller's buffer m, one
        component at a time, so m holds the sum afterwards."""
        for mi, uti in zip(m, self.ut.coeffs):
            mi += self.eps * uti
        return 0.5 * mode_mag2(m) + self.shared_density

    @cached_property
    def energy_density(self) -> np.ndarray:
        """``modulated_density`` of a copy of u's coefficients, kept on the state."""
        return self.modulated_density(self.u.coeffs.copy())


def energy(state: WaveState, sigma: float) -> float:
    """Wave energy at regularity sigma:
    int 1/2 |L^s (u + eps u_t)|^2 + eps^2/2 |L^s u_t|^2 + eps |L^(s+1) u|^2."""
    return weighted_sum(state.u.grid, sigma, state.energy_density)


def _propagator_entries(eps: float, k2: np.ndarray, dt: float):
    """Entries of exp(dt * A) per mode, A = [[0, 1], [-k2/eps, -1/eps]].

    Written as exp(m dt) * (C -+ m S, S; -(k2/eps) S, C +- m S) with
    m = -1/(2 eps), C = cosh(h dt), S = sinh(h dt)/h and h the half
    root gap.  C and S come by series near the double root, else by cos/sin;
    one assembly follows, and the growing modes are rewritten in their
    stable roots, so every entry stays finite and cancellation-free.
    """
    k2 = np.asarray(k2, dtype=np.float64)
    disc = 1.0 - 4.0 * eps * k2
    m = -1.0 / (2.0 * eps)
    z2 = disc * (dt / (2.0 * eps)) ** 2  # (h dt)^2, sign carries the branch

    c = np.zeros_like(k2)
    s = np.zeros_like(k2)
    series = np.abs(z2) <= _SERIES_Z2
    z2s = z2[series]
    c[series] = 1.0 + z2s / 2.0 * (1.0 + z2s / 12.0 * (1.0 + z2s / 30.0 * (1.0 + z2s / 56.0)))
    s[series] = dt * (1.0 + z2s / 6.0 * (1.0 + z2s / 20.0 * (1.0 + z2s / 42.0 * (1.0 + z2s / 72.0))))
    osc = (~series) & (z2 < 0)
    om = np.sqrt(-disc[osc]) / (2.0 * eps)
    c[osc] = np.cos(om * dt)
    s[osc] = np.sin(om * dt) / om

    pref = np.exp(m * dt)
    p11 = pref * (c - m * s)
    p22 = np.multiply(pref, c + m * s, out=c)  # P22 and P12 reuse C and S (peak memory)
    p12 = np.multiply(pref, s, out=s)
    # growing modes, in the stable roots: lam_minus has no cancellation,
    # lam_plus is recovered from the product k2/eps; both are <= 0 so nothing overflows
    grow = (~series) & (z2 > 0)
    sq = np.sqrt(disc[grow])
    lam_m = -(1.0 + sq) / (2.0 * eps)
    lam_p = -2.0 * k2[grow] / (1.0 + sq)
    span = lam_p - lam_m
    ep = np.exp(lam_p * dt)
    em = np.exp(lam_m * dt)
    p11[grow] = (lam_p * em - lam_m * ep) / span
    p12[grow] = (ep - em) / span
    p22[grow] = (lam_p * ep - lam_m * em) / span

    p21 = -(k2 / eps) * p12
    return p11, p12, p21, p22


def _duhamel_weights(p11: np.ndarray, p12: np.ndarray, k2: np.ndarray, eps: float):
    """Integral of exp(A s) ds on the forcing slot (0, N/eps), on the wavenumbers ``k2``:
    u gets cu = (1 - P11)/k2 * N (0 on the zero mode), u_t gets cw = P12/eps * N."""
    cu = (1.0 - p11) / np.where(k2 > 0, k2, 1.0)
    cu[k2 == 0] = 0.0
    return cu, p12 / eps


class _WaveTables:
    """Cached propagator entries for fixed (eps, dt) on the wavenumbers ``k2``."""

    def __init__(self, k2: np.ndarray, eps: float, dt: float):
        self.p11, self.p12, self.p21, self.p22 = _propagator_entries(eps, k2, dt)

    def apply(self, u: np.ndarray, w: np.ndarray):
        """New arrays P11 u + P12 w and P21 u + P22 w, through a temporary
        of one component."""
        uo = self.p11 * u
        wo = self.p21 * u
        tmp = np.empty(u.shape[1:], dtype=uo.dtype)
        for i in range(len(u)):
            uo[i] += np.multiply(self.p12, w[i], out=tmp)
            wo[i] += np.multiply(self.p22, w[i], out=tmp)
        return uo, wo


def _check_dt(dt: float):
    if not (np.isfinite(dt) and dt >= 0):
        raise ValueError(f"dt must be finite and >= 0, got {dt}")


def propagate_mode(eps: float, k2: float, dt: float, u0: complex, u1: complex):
    """Exact linear evolution of a single mode; scalar convenience."""
    _check_dt(dt)
    p11, p12, p21, p22 = _propagator_entries(eps, np.asarray([k2]), dt)
    return p11[0] * u0 + p12[0] * u1, p21[0] * u0 + p22[0] * u1


def linear_propagate(state: WaveState, dt: float) -> WaveState:
    """Exact solution of the linear damped wave over dt, all modes at once."""
    _check_dt(dt)
    if dt == 0.0:
        return state
    tables = _WaveTables(state.u.grid.k2, state.eps, dt)
    uc, wc = tables.apply(state.u.coeffs, state.ut.coeffs)
    g = state.u.grid
    return WaveState(_adopt(g, uc), _adopt(g, wc), state.eps, state.t + dt)


class _NlwStepper:
    """Exponential midpoint rule with cached tables for dt and dt/2.

    The nonlinearity vanishes outside the 2/3-rule box, so the midpoint
    value and the forcing live on the compact box (``box_gather``); only
    the end propagation touches the whole half spectrum."""

    def __init__(self, grid: Grid, eps: float, dt: float):
        self.grid = grid
        self.to_end = _WaveTables(grid.k2, eps, dt)
        k2 = box_gather(grid, grid.k2)
        self.mid_p11, self.mid_p12, _, _ = _propagator_entries(eps, k2, dt / 2.0)
        self.mid_cu, _ = _duhamel_weights(self.mid_p11, self.mid_p12, k2, eps)
        self.end_cu, self.end_cw = _duhamel_weights(
            box_gather(grid, self.to_end.p11), box_gather(grid, self.to_end.p12), k2, eps
        )

    def step(self, uw):
        """Advance the pair (u, u_t) of coefficient arrays by one step."""
        grid = self.grid
        u, w = uw
        ub, wb = box_gather(grid, u), box_gather(grid, w)
        n0 = _box_forcing(grid, ub)
        u_mid = self.mid_p11 * ub + self.mid_p12 * wb + self.mid_cu * n0
        del ub, wb, n0
        n_mid = _box_forcing(grid, u_mid)
        del u_mid
        u_end, w_end = self.to_end.apply(u, w)
        return box_add(grid, u_end, n_mid, self.end_cu), box_add(grid, w_end, n_mid, self.end_cw)


def nlw_solve(
    u0: SpectralField,
    u1: SpectralField,
    eps: float,
    T: float,
    dt: float,
    observer=None,
    stride: int = 1,
) -> WaveState:
    """Integrate the damped wave system to time T and return the final state.

    ``observer(state)`` fires at exact sample times.  Unless the wave
    energy ``energy(state, base_sigma(dim))`` (the report's ``e_base``) of
    a sample is at most ``BLOWUP_FACTOR`` times its initial value, the solve
    raises SolverFailure("energy blow-up", t) unobserved; the energy reads
    u and u_t, so a NaN or overflow in either fails it too.  Non-finite or
    divergent initial data and a bad eps are rejected with ValueError.

    Only the t = 0 sample and the first step read ``u0`` and ``u1``, and
    the solve drops its own references to them after that step.  A caller
    that wants their memory back over the later steps keeps no reference:
    it hands them over as arguments with no name of its own (not through
    a ``*`` call, whose argument tuple lives as long as the call).
    """
    grid = u0.grid
    require_divergence_free("nlw_solve", [u0, u1])

    sigma0 = base_sigma(grid.dim)
    state = WaveState(u0, u1, eps, 0.0)
    ceiling = BLOWUP_FACTOR * max(energy(state, sigma0), 1e-300)
    samples = march(lambda h: _NlwStepper(grid, eps, h).step, (u0.coeffs, u1.coeffs), T, dt, stride)
    del u0, u1  # the t = 0 state and march hold them until the first step
    for t, (uc, wc) in samples:
        if t > 0.0:
            state = WaveState(_adopt(grid, uc), _adopt(grid, wc), eps, t)
            with np.errstate(over="ignore", invalid="ignore"):  # reported as the failure
                if not energy(state, sigma0) <= ceiling:
                    raise SolverFailure("energy blow-up", t)
        if observer is not None:
            observer(state)
        if t < T:  # the steps to the next sample need not hold this one
            del state, uc, wc
    return state
