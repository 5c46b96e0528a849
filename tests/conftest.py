import functools
import importlib
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hypns import make_grid, nlw
from hypns.initial_data import SLOPE_MARGIN, random_divergence_free_field
from hypns.nlw import WaveState
from hypns.spectral import (
    TWO_PI,
    SpectralField,
    _box_forcing,
    _leray_full,
    box_gather,
    sobolev_norm,
    transform,
    weighted_sum,
    zero_field,
)

mp.mp.dps = 50


def oracle_mode(eps, k2, dt, u0, u1):
    """Closed-form damped-oscillator solution at 50 digits; independent of
    the solver's stable-branch evaluation path."""
    disc = mp.mpf(1) - 4 * mp.mpf(eps) * mp.mpf(k2)
    if disc == 0:
        lam = -1 / (2 * mp.mpf(eps))
        a = u1 - lam * u0
        u = mp.e ** (lam * dt) * (u0 + a * dt)
        ut = mp.e ** (lam * dt) * (lam * u0 + a + lam * a * dt)
        return complex(u), complex(ut)
    sq = mp.sqrt(disc)
    lp = (-1 + sq) / (2 * mp.mpf(eps))
    lm = (-1 - sq) / (2 * mp.mpf(eps))
    a = (u1 - lm * u0) / (lp - lm)
    b = (lp * u0 - u1) / (lp - lm)
    u = a * mp.e ** (lp * dt) + b * mp.e ** (lm * dt)
    ut = a * lp * mp.e ** (lp * dt) + b * lm * mp.e ** (lm * dt)
    return complex(u), complex(ut)


def taylor_green_cross_term(eps, T):
    """Closed form of the cross term eps int_0^T <u_t, dv/dt> dt for Taylor-Green
    data, at 50 digits.

    v is the heat-decaying vortex (k2 = 2, ||v||^2 = 2 pi^2 at t = 0), and
    the wave solution with u(0) = v(0), u_t(0) = 0 is v(0) times the damped
    oscillator amplitude of its mode."""
    e, k2 = mp.mpf(eps), mp.mpf(2)
    sq = mp.sqrt(1 - 4 * e * k2)
    lp, lm = (-1 + sq) / (2 * e), (-1 - sq) / (2 * e)
    a, b = -lm / (lp - lm), lp / (lp - lm)
    phip = lambda t: a * lp * mp.e ** (lp * t) + b * lm * mp.e ** (lm * t)
    return float(e * mp.quad(lambda t: phip(t) * (-2 * mp.e ** (-2 * t)) * 2 * mp.pi**2, [0, T]))


def beltrami_field(n, k2, seed, amplitude):
    """Seeded 3D field of L^2 norm ``amplitude`` on the one shell |k|^2 =
    ``k2``: a Beltrami field, curl u = K u with K = sqrt(k2).  Then
    u . grad u = grad |u|^2 / 2, so P nabla . (u (x) u) = 0 although no
    product u_i u_j vanishes; v(t) = exp(-K^2 t) v0 solves Navier-Stokes,
    and from rest the damped wave is u(t) = a(t) u0, with a(t) the shell
    mode's amplitude.

    Seeded real noise is transformed over the full spectrum, cut to the
    shell and Leray-projected, then put through the helical projection
    (I + i k x / K) / 2, which keeps c(-k) = conj c(k).  The field is the
    transform of the real values of the result, so its half spectrum is a
    real field's (``require_real``)."""
    g = make_grid(3, n)
    k1 = np.fft.fftfreq(n, 1.0 / n)
    k = np.stack(np.meshgrid(k1, k1, k1, indexing="ij"))
    noise = np.random.default_rng(seed).standard_normal((3,) + g.shape)
    c = np.fft.fftn(noise, axes=(1, 2, 3)) * (np.sum(k * k, axis=0) == k2)
    c -= k * (np.sum(k * c, axis=0) / k2)
    c = 0.5 * (c + 1j * np.cross(k, c, axis=0) / math.sqrt(k2))
    f = transform(g, np.fft.ifftn(c, axes=(1, 2, 3)).real)
    return f * (amplitude / sobolev_norm(f, 0.0))


# 2D with every even n in [8, 64], 3D with n in {8, 16}
grid_shapes = st.one_of(
    st.tuples(st.just(2), st.integers(4, 32).map(lambda m: 2 * m)),
    st.tuples(st.just(3), st.sampled_from([8, 16])),
)
property_settings = settings(max_examples=30, deadline=None, database=None, derandomize=True)


def random_real_field(dim, n, seed):
    """Transform of seeded real values with content on every mode,
    the Nyquist planes included."""
    g = make_grid(dim, n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((dim,) + g.shape) * rng.uniform(0.1, 10.0)
    f = transform(g, vals)
    return g, f, vals


# Full tables of a grid that only tests read; the program reads the box.


def dealias_mask(grid):
    """The 2/3-rule box |k_i| <= ``dealias_cutoff`` as a boolean table."""
    mask = np.ones(grid.spec_shape, dtype=bool)
    for k in grid.k:
        mask &= np.abs(k) <= grid.dealias_cutoff
    return mask


def box_scatter(grid, b):
    """The compact box ``b`` written into the box of a new zero
    half-spectrum array: the inverse of ``box_gather`` on the box."""
    out = np.zeros(b.shape[: b.ndim - grid.dim] + grid.spec_shape, dtype=b.dtype)
    for full, box in grid.box_blocks:
        out[full] = b[box]
    return out


def unguarded_convection(grid, c):
    """``convection_term``'s coefficients for the half-spectrum array ``c``
    without its finiteness and divergence guard, for arbitrary test data."""
    return -box_scatter(grid, _box_forcing(grid, box_gather(grid, c)))


def triad_convection(f):
    """P nabla . (u (x) u) on the half spectrum as the direct triad sum,
    with no transform: on the 2/3-rule box

        (P nabla . (u (x) u))_i(k) = P_k i k_j (2 pi)^(-dim/2) sum_{p+q=k} u_i(p) u_j(q),

    p, q and k in the box, and zero outside it.  The full box is read from
    the half spectrum through c(-k) = conj c(k).  The sum runs as one loop
    over k, each term an array operation over every p of the box; q = k - p
    is read from the box padded by its own width, where it is zero outside."""
    g = f.grid
    dim, n, c = g.dim, g.n, g.dealias_cutoff
    width = 2 * c + 1
    ks = np.meshgrid(*[np.arange(-c, c + 1)] * dim, indexing="ij")
    stored = ks[-1] >= 0
    flip = np.where(stored, 1, -1)
    full = f.coeffs[(slice(None),) + tuple((flip * k) % n for k in ks)]
    full = np.where(stored, full, np.conj(full))
    padded = np.zeros((dim,) + (2 * width - 1,) * dim, dtype=complex)
    padded[(slice(None),) + (slice(c, c + width),) * dim] = full
    spatial = tuple(range(2, dim + 2))
    reverse = (slice(None),) + (slice(None, None, -1),) * dim
    prod = np.empty((dim, dim) + (width,) * dim, dtype=complex)
    for k in itertools.product(range(width), repeat=dim):
        # index k of the box is wavenumber k - c; q = (k - c) - p sits at
        # k + c - p of the padded box, which runs down from k + 2c to k
        q = padded[(slice(None),) + tuple(slice(kk, kk + width) for kk in k)][reverse]
        prod[(slice(None), slice(None)) + k] = np.sum(full[:, None] * q[None, :], axis=spatial)
    prod *= TWO_PI ** (-dim / 2)
    div = sum(1j * ks[j] * prod[:, j] for j in range(dim))
    k2 = sum(kj * kj for kj in ks)
    kdiv = sum(kj * dj for kj, dj in zip(ks, div)) / np.where(k2 > 0, k2, 1.0)
    proj = div - np.stack(ks) * kdiv
    out = np.zeros((dim,) + g.spec_shape, dtype=complex)
    out[(slice(None),) + tuple(k[stored] % n for k in ks)] = proj[:, stored]
    return out


def grid_ik(grid):
    """Derivative symbols i keff, one full table per axis."""
    return tuple(1j * kd for kd in grid.keff)


def cell_volume(grid):
    """Volume of one collocation cell, the quadrature weight of a point."""
    return (TWO_PI / grid.n) ** grid.dim


@pytest.fixture(scope="session")
def grid2():
    return make_grid(2, 16)


@pytest.fixture(scope="session")
def grid3():
    return make_grid(3, 8)


def random_field(grid, seed, band=None, scale=1.0, slope=0.0):
    return random_divergence_free_field(grid, seed, band=band, slope=slope) * scale


def single_mode_field(grid, k, component_dir, amp=1.0):
    """Divergence-free real field supported on modes +-k.

    ``component_dir`` must be orthogonal to k for exact divergence-freeness.
    Of the pair +-k only the modes on the stored half spectrum (last
    wavenumber in 0..n/2) are written; the other is implied by conjugate
    symmetry.
    """
    c = np.zeros((grid.dim,) + grid.spec_shape, dtype=np.complex128)
    for sign in (1, -1):
        idx = tuple((sign * ki) % grid.n for ki in k)
        if idx[-1] <= grid.n // 2:
            for comp, d in enumerate(component_dir):
                c[comp][idx] = 0.5 * amp * d
    return SpectralField(grid, c)


def with_nan(f, inside_box):
    """Copy of ``f`` with one coefficient set to NaN, inside the 2/3-rule
    box or outside it."""
    c = f.coeffs.copy()
    k = 1 if inside_box else f.grid.dealias_cutoff + 1
    c[(0, k) + (1,) * (f.grid.dim - 1)] = np.nan
    return SpectralField(f.grid, c)


def count_field_copies(monkeypatch):
    """Record every ``SpectralField`` the constructor builds (each one a
    copy of the array it is given) in the returned list."""
    built = []
    post_init = SpectralField.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SpectralField, "__post_init__", counted)
    return built


def assert_samples_own_arrays(samples):
    """``samples`` holds a (field, copy of its coefficients) pair per field
    a solve's observer saw, the copy taken when it saw it.  Each field's
    array must be read-only, unchanged since then and held by no other."""
    arrays = [f.coeffs for f, _ in samples]
    assert all(not c.flags.writeable for c in arrays)
    assert all(np.array_equal(f.coeffs, kept) for f, kept in samples)
    assert len({id(c) for c in arrays}) == len(arrays)


def poison_from_step(monkeypatch, module, calls_per_step, k):
    """Make the forcing ``_box_forcing`` that the solver module ``module``
    calls return NaN from solver step ``k`` (1-based) on.

    The forcing is called ``calls_per_step`` times per step, so the call
    count tells the step."""
    fn = module._box_forcing
    calls = [0]

    def poisoned(*args):
        step = calls[0] // calls_per_step + 1
        calls[0] += 1
        out = fn(*args)
        return out * np.nan if step >= k else out

    monkeypatch.setattr(module, "_box_forcing", poisoned)


def site_peak_units(run, sites, unit):
    """Traced allocation peak of one call ``run()`` and of each named site
    inside it, in units of ``unit`` bytes above what was held before the
    call, highest first; the call's own peak is under ``"run"``.

    A site is a callable named as "module.attr" or "module.Class.attr" of
    the ``hypns`` package, as its caller looks it up: the wave step's
    forcing is ``nlw._box_forcing``, the NS step's ``ns._box_forcing``.
    Each is wrapped for the one traced call, and its peak is the highest
    traced memory while any call of it runs; a site never called is left
    out.  ``run`` is called once untraced first, so that what it builds
    on first use is not counted.  Whatever ``run`` reads, a stepper or its
    arguments, is built before the call, so that the peak is the call's
    own."""
    wrapped = []
    for name in sites:
        module, *path = name.split(".")
        owner = importlib.import_module(f"hypns.{module}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        wrapped.append((name, owner, path[-1], getattr(owner, path[-1])))
    peaks = {}
    held = [0]  # the peak so far of each open call, the run's first

    def traced(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            held[-1] = max(held[-1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            held.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(held.pop(), tracemalloc.get_traced_memory()[1])
                peaks[name] = max(peaks.get(name, 0), peak)
                held[-1] = max(held[-1], peak)

        return call

    run()
    for name, owner, attr, fn in wrapped:
        setattr(owner, attr, traced(name, fn))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        peaks["run"] = max(held[0], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        for name, owner, attr, fn in wrapped:
            setattr(owner, attr, fn)
    ranked = sorted(peaks.items(), key=lambda item: -item[1])
    return {name: (peak - base) / unit for name, peak in ranked}


# ten steps of 0.01 over T=0.1, sampled every third step, NaN from step 5 on:
# the samples at steps 0 and 3 are clean and step 6 is the first non-finite one
POISON = SimpleNamespace(
    T=0.1, dt=0.01, stride=3, step=5, clean_times=[0.0, 3 * (0.1 / 10)], fail_t=6 * (0.1 / 10)
)


def nan_ut_on_step(monkeypatch, k):
    """Make the wave step return a NaN u_t beside a finite u on step ``k``
    (1-based) only; the steps after it carry the NaN into u."""
    step = nlw._NlwStepper.step
    calls = [0]

    def poisoned(self, uw):
        calls[0] += 1
        u, w = step(self, uw)
        return (u, w * np.nan) if calls[0] == k else (u, w)

    monkeypatch.setattr(nlw._NlwStepper, "step", poisoned)


def rescale(state: WaveState, direction: str, eps: float | None = None) -> WaveState:
    """Change of variables between the eps-problem and its unit-parameter
    normal form: u_eps(tau, y) corresponds to eps^(-1/2) u(tau/eps, y/sqrt(eps)).

    Only eps = 1/m^2 with integer m maps the integer mode lattice to
    itself.  ``to_unit`` requires the state's mode support to sit on the
    m-divisible sublattice; ``from_unit`` requires the dilated modes to
    stay within the grid's wavenumber range.
    """
    if direction not in ("to_unit", "from_unit"):
        raise ValueError("direction must be 'to_unit' or 'from_unit'")
    grid = state.u.grid
    half = grid.n // 2

    if direction == "to_unit":
        m = _lattice_factor(state.eps)
        if m == 1:
            return state
        # Nyquist content is rejected: the sign of k = n/2 is undefined, so
        # it has no well-defined image
        uc, wc = _remap_modes(
            state, lambda k: (k % m == 0) & (np.abs(k) < half), lambda k: k // m,
            "state has mode content off the m-divisible sublattice or at the Nyquist wavenumber; "
            "cannot rescale to_unit",
        )
        root = math.sqrt(state.eps)
        return WaveState(
            SpectralField(grid, uc * root),
            SpectralField(grid, wc * root * state.eps),
            1.0,
            state.t / state.eps,
        )

    if abs(state.eps - 1.0) > 1e-12:
        raise ValueError("from_unit expects a state with eps = 1")
    if eps is None:
        raise ValueError("from_unit needs the target eps")
    m = _lattice_factor(eps)
    if m == 1:
        return state
    uc, wc = _remap_modes(
        state, lambda k: np.abs(k * m) <= half - 1, lambda k: k * m,
        "dilated wavenumbers exceed the grid range; cannot rescale from_unit",
    )
    return WaveState(
        SpectralField(grid, uc * m),
        SpectralField(grid, wc * m**3),
        eps,
        state.t * eps,
    )


def _lattice_factor(eps: float) -> int:
    m = round(eps**-0.5)
    if m < 1 or abs(m * m * eps - 1.0) > 1e-9:
        raise ValueError(
            f"eps={eps!r} is lattice-incompatible: the scaling dilates modes by "
            "1/sqrt(eps), which must be a positive integer (eps = 1/m^2)"
        )
    return m


def _remap_modes(state: WaveState, keep, image, error: str):
    """The coefficients of u and u_t, each moved from mode k to mode
    ``image(k)`` on the modes where ``keep`` holds on every axis.

    ``keep`` and ``image`` act on one axis's integer wavenumbers.  Content
    outside the kept modes raises ValueError with the message ``error``."""
    grid = state.u.grid
    n = grid.n
    # integer wavenumbers; taken modulo n they index the coefficient array,
    # the last axis (0..n/2) included
    kidx = [k.astype(np.int64) for k in grid.k]
    kept = np.logical_and.reduce([keep(k) for k in kidx])
    src = tuple(k[kept] % n for k in kidx)
    dst = tuple(image(k[kept]) % n for k in kidx)
    out = []
    for c in (state.u.coeffs, state.ut.coeffs):
        if np.max(np.abs(c[:, ~kept])) > 1e-13 * max(np.max(np.abs(c)), 1e-300):
            raise ValueError(error)
        moved = np.zeros_like(c)
        moved[(slice(None),) + dst] = c[(slice(None),) + src]
        out.append(moved)
    return out


# The seeded-data builders as they were before they built in one array:
# each stage a new array, a constructor copy and a scaled copy.  The
# in-place builders must reproduce them bit for bit.


def l2_norm(f: SpectralField) -> float:
    """The L^2 norm of a mean-free field: ``sobolev_norm`` at sigma = 0."""
    return sobolev_norm(f, 0.0)


def hs_composite_norm(f: SpectralField, sigma: float) -> float:
    """Composite Sobolev size: sqrt(L2^2 + homogeneous-sigma^2)."""
    return float(np.hypot(l2_norm(f), sobolev_norm(f, sigma)))


def synth_hs_field_copying(grid, seed, s, amplitude):
    if amplitude == 0.0:
        return zero_field(grid)

    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.standard_normal((grid.dim,) + grid.shape)
    axes = tuple(range(1, grid.dim + 1))
    ph = np.fft.rfftn(noise, axes=axes)
    mag = np.abs(ph)
    unit = ph / np.where(mag > 0, mag, 1.0)

    regularity = s + (grid.dim - 2) / 2.0
    slope = regularity + grid.dim / 2.0 + SLOPE_MARGIN
    profile = grid.k2_power(-slope / 2.0)
    # drop the unpaired Nyquist rows so derivative symbols stay clean
    for k in grid.k:
        profile[np.abs(k) == grid.n // 2] = 0.0

    c = _leray_full(grid, unit * profile)
    f = SpectralField(grid, c)
    size = hs_composite_norm(f, regularity)
    if size == 0.0:
        return zero_field(grid)
    return f * (amplitude / size)


def random_divergence_free_field_copying(grid, seed, band=None, slope=0.0):
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.standard_normal((grid.dim,) + grid.shape)
    axes = tuple(range(1, grid.dim + 1))
    c = np.fft.rfftn(noise, axes=axes)
    if slope != 0.0:
        c = c * grid.k2_power(-slope / 2.0)
    kvec = grid.k
    if band is not None:
        keep = np.ones(grid.spec_shape, dtype=bool)
        for k in kvec:
            keep &= np.abs(k) <= band
        c = c * keep
    for k in kvec:
        c[:, np.abs(k) == grid.n // 2] = 0.0
    f = SpectralField(grid, _leray_full(grid, c))
    size = l2_norm(f)
    if size == 0.0:
        return zero_field(grid)
    return f * (1.0 / size)


# The diagnostics' primitives as one expression each, as they were before
# they worked in place on one scratch array.  The in-place primitives must
# reproduce them bit for bit.


def whole_irfftn(f: SpectralField) -> np.ndarray:
    """``inverse_transform`` as one ``np.fft.irfftn`` of the unscaled
    coefficients."""
    g = f.grid
    return np.fft.irfftn(f.coeffs / g.fwd_scale, s=g.shape, axes=tuple(range(1, g.dim + 1)))


def linf_norm_expr(f: SpectralField) -> float:
    v = whole_irfftn(f)
    return float(np.sqrt(np.max(np.sum(v * v, axis=0))))


def mode_mag2_expr(c: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(c) ** 2, axis=0)


def hs_inner_expr(f: SpectralField, g: SpectralField, sigma: float) -> float:
    return weighted_sum(f.grid, sigma, (np.conj(f.coeffs) * g.coeffs).real)


def modulated_density_expr(state: WaveState, w: np.ndarray) -> np.ndarray:
    return 0.5 * mode_mag2_expr(w + state.eps * state.ut.coeffs) + state.shared_density
