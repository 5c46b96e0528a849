"""Reference incompressible Navier-Stokes solver on the torus.

The pressure-free projected equation dv/dt = Lap v - P nabla:(v (x) v) is
integrated with an integrating-factor RK4: the heat semigroup is applied
exactly per mode, classical RK4 handles the transformed nonlinearity.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    _adopt,
    _box_forcing,
    box_add,
    box_gather,
    linf_norm,
    mode_mag2,
    require_divergence_free,
)


class SolverFailure(RuntimeError):
    """Raised when a sample fails its solver's one test (``ns_solve``, ``nlw_solve``)."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6g}")
        self.t = t


@dataclass(frozen=True, eq=False)
class NsState:
    v: SpectralField
    t: float = 0.0


def default_dt(v0: SpectralField) -> float:
    """Advective CFL with safety 0.5 on the grid of ``v0``; the linear part
    is exact."""
    vmax = linf_norm(v0)
    if vmax == 0.0:
        return 1e-3
    return min(1e-3, 0.5 / (v0.grid.n * vmax))


def _check_finite(c: np.ndarray, t: float):
    """Reject non-finite coefficients, and finite ones whose sum of squared
    moduli overflows.  Summed elementwise, not by a BLAS dot (see
    ``spectral.weighted_sum``)."""
    with np.errstate(over="ignore"):  # an overflow is reported as the failure
        finite = np.isfinite(np.sum(mode_mag2(c)))
    if not finite:
        raise SolverFailure("non-finite coefficients", t)


class _NsStepper:
    """Integrating-factor RK4 with cached per-mode exponentials.

    The nonlinearity vanishes outside the 2/3-rule box, so the stage
    arguments and the stage sum live on the compact box (``box_gather``);
    outside it a step is the heat factor alone."""

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        self.e_full = np.exp(-grid.k2 * dt)
        self.e_box = box_gather(grid, self.e_full)
        self.e2_box = box_gather(grid, np.exp(-grid.k2 * (dt / 2.0)))

    def step(self, c: np.ndarray) -> np.ndarray:
        grid, dt, e, e2 = self.grid, self.dt, self.e_box, self.e2_box
        cb = box_gather(grid, c)
        a = _box_forcing(grid, cb)
        b = _box_forcing(grid, e2 * (cb + (dt / 2.0) * a))
        d = _box_forcing(grid, e2 * cb + (dt / 2.0) * b)
        g = _box_forcing(grid, e * cb + dt * (e2 * d))
        return box_add(grid, self.e_full * c, (dt / 6.0) * (e * a + 2.0 * e2 * (b + d) + g))


def plan_steps(T: float, dt: float):
    """Uniform step count covering [0, T] exactly (last step shortened by
    construction: dt_eff = T / n_steps <= dt).  Rejects a T that is not
    finite and >= 0 and a dt that is not finite and > 0."""
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and >= 0, got {T}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if T == 0.0:
        return 0, 0.0
    n_steps = max(1, math.ceil(T / dt - 1e-12))
    return n_steps, T / n_steps


# mallopt(3) parameters and the ceilings glibc's dynamic rule can raise
# them to on 64-bit: 4 MiB * sizeof(long) and twice that
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20
_TRIM_THRESHOLD_MAX = 64 << 20
_heap_kept = False


def _keep_heap():
    """Keep the memory a step frees in the process, so the next step reuses
    it instead of faulting in fresh zero-filled pages.

    A step frees a few MiB of temporaries at the top of the glibc heap.
    glibc hands the top back to the kernel (trims it) once it exceeds the
    dynamic trim threshold, twice the largest freed mmapped chunk: about
    0.53 MiB at 2D n=128 and 1.7 MiB at 3D n=32.  So every step trimmed the
    heap and the next one faulted it in again.  A warm second NS + wave
    solve pair (20 steps each, stride 10) took 13,610 minor faults at 2D
    n=128 and 47,241 at 3D n=32; with this policy it takes 0 or 1.  A
    fresh-process ``converge_2d`` or ``converge_3d`` benchmark run took
    about 45k faults and spent a seventh of its time in the kernel; now it
    takes 2-5k.

    Sets the mmap and trim thresholds to the ceilings glibc's dynamic rule
    can reach (mallopt(3)); both must be set, because setting either one
    switches the dynamic rule off.  Called by ``march`` and effective on
    the first call only; forked pool workers inherit the setting.  A
    silent no-op where the C library has no ``mallopt``."""
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_MAX)


def march(make_stepper, coeffs, T: float, dt: float, stride: int):
    """Step ``coeffs`` with the map ``make_stepper(dt_eff)`` of ``plan_steps``
    and yield ``(t, coeffs)`` at t=0, every ``stride``-th step and t=T.

    It only steps: each solver judges its own samples.  Steppers never
    write their inputs, so a caller may keep a sample's arrays as is."""
    _keep_heap()
    n_steps, dt_eff = plan_steps(T, dt)
    yield 0.0, coeffs
    if n_steps == 0:
        return
    step = make_stepper(dt_eff)
    for i in range(1, n_steps + 1):
        coeffs = step(coeffs)
        if i % max(stride, 1) == 0 or i == n_steps:
            yield (T if i == n_steps else i * dt_eff), coeffs


def ns_solve(
    v0: SpectralField,
    T: float,
    dt: float,
    observer=None,
    stride: int = 1,
) -> NsState:
    """Integrate to time T, invoking ``observer(state)`` at exact sample
    times (every ``stride``-th step plus t=0 and t=T); a non-finite sample
    raises SolverFailure unobserved.  Rejects non-finite or divergent
    initial data with ValueError."""
    grid = v0.grid
    require_divergence_free("ns_solve", [v0])

    state = NsState(v0, 0.0)
    for t, c in march(lambda h: _NsStepper(grid, h).step, v0.coeffs, T, dt, stride):
        if t > 0.0:
            _check_finite(c, t)
            state = NsState(_adopt(grid, c), t)
        if observer is not None:
            observer(state)
        if t < T:  # the steps to the next sample need not hold this one
            del state, c
    return state


def dt_v(v: SpectralField) -> SpectralField:
    """Time derivative Lap v - P nabla:(v (x) v) of the field v, evaluated
    spectrally; the forcing is added on its 2/3-rule box only."""
    g = v.grid
    b = _box_forcing(g, box_gather(g, v.coeffs))
    return _adopt(g, box_add(g, -g.k2 * v.coeffs, b))
