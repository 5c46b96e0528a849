from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hypns import make_grid
from hypns.initial_data import random_divergence_free_field
from hypns.spectral import transform

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
    f, _ = transform(g, vals)
    return g, f, vals


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
    from hypns.spectral import SpectralField

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
    from hypns.spectral import SpectralField

    c = f.coeffs.copy()
    k = 1 if inside_box else f.grid.dealias_cutoff + 1
    c[(0, k) + (1,) * (f.grid.dim - 1)] = np.nan
    return SpectralField(f.grid, c)


def count_field_copies(monkeypatch):
    """Record every ``SpectralField`` the constructor builds (each one a
    copy of the array it is given) in the returned list."""
    from hypns.spectral import SpectralField

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


def poison_from_step(monkeypatch, cls, name, calls_per_step, k):
    """Make ``cls.name`` return NaN from solver step ``k`` (1-based) on.

    The method is called ``calls_per_step`` times per step, so the call
    count tells the step."""
    fn = getattr(cls, name)
    calls = [0]

    def poisoned(self, *args):
        step = calls[0] // calls_per_step + 1
        calls[0] += 1
        out = fn(self, *args)
        return out * np.nan if step >= k else out

    monkeypatch.setattr(cls, name, poisoned)


# ten steps of 0.01 over T=0.1, sampled every third step, NaN from step 5 on:
# the samples at steps 0 and 3 are clean and step 6 is the first non-finite one
POISON = SimpleNamespace(
    T=0.1, dt=0.01, stride=3, step=5, clean_times=[0.0, 3 * (0.1 / 10)], fail_t=6 * (0.1 / 10)
)
