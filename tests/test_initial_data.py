import tracemalloc

import numpy as np
import pytest

from hypns.initial_data import (
    DataRecipe,
    check_bernstein,
    check_hypotheses,
    check_jackson,
    random_divergence_free_field,
    synth_hs_field,
    taylor_green,
    truncate_initial_data,
)
from hypns.spectral import (
    SpectralField,
    convection_term,
    divergence_l2,
    l2_norm,
    make_grid,
    sobolev_norm,
    transform,
    zero_field,
)

from conftest import random_divergence_free_field_copying, single_mode_field, synth_hs_field_copying


class TestRecipe:
    def test_s_range_enforced(self):
        with pytest.raises(ValueError):
            DataRecipe(0, 1.5, 2, 1.0)
        with pytest.raises(ValueError):
            DataRecipe(0, 0.0, 2, 1.0)

    def test_regularity_shift(self):
        assert DataRecipe(0, 0.5, 2, 1.0).regularity == 0.5
        assert DataRecipe(0, 0.5, 3, 1.0).regularity == 1.0


class TestSynth:
    def test_zero_amplitude(self):
        g = make_grid(2, 16)
        f = synth_hs_field(DataRecipe(0, 0.5, 2, 0.0), g)
        assert l2_norm(f) == 0.0

    def test_deterministic_in_seed(self):
        g = make_grid(2, 16)
        a = synth_hs_field(DataRecipe(42, 0.5, 2, 1.0), g)
        b = synth_hs_field(DataRecipe(42, 0.5, 2, 1.0), g)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = synth_hs_field(DataRecipe(43, 0.5, 2, 1.0), g)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_divergence_free(self):
        g = make_grid(2, 32)
        f = synth_hs_field(DataRecipe(1, 0.5, 2, 1.0), g)
        assert divergence_l2(g, f.coeffs) < 1e-12

    def test_normalized_amplitude(self):
        g = make_grid(2, 32)
        f = synth_hs_field(DataRecipe(1, 0.5, 2, 2.5), g)
        size = np.hypot(l2_norm(f), sobolev_norm(f, 0.5))
        assert abs(size - 2.5) < 1e-10

    def test_spectral_slope_dichotomy(self):
        # shell sums stay level at sigma = s + eta (log-divergent tail) and
        # decay geometrically at sigma = s - eta (convergent tail)
        s, eta = 0.5, 0.2
        shells = {}
        for sigma in (s + eta, s - eta):
            sums = []
            for n in (64, 128, 256):
                g = make_grid(2, n)
                f = synth_hs_field(DataRecipe(5, s, 2, 1.0, eta), g)
                mag2 = np.sum(np.abs(f.coeffs) ** 2, axis=0)
                w = g.weight(sigma)  # |k|^(2 sigma) times the half-spectrum multiplicity
                shell = (g.kmag > n / 4) & (g.kmag <= n / 2)
                sums.append(float(np.sum((w * mag2)[shell])))
            shells[sigma] = sums
        for a, b in zip(shells[s + eta], shells[s + eta][1:]):
            assert b / a > 0.8
        for a, b in zip(shells[s - eta], shells[s - eta][1:]):
            assert b / a < 0.7


def bits(f):
    """The coefficients as raw 64-bit words, so that -0.0 and 0.0 differ."""
    return f.coeffs.view(np.uint64)


def assert_same_bits(got, want):
    assert not got.coeffs.flags.writeable
    assert got.coeffs.shape == want.coeffs.shape
    assert np.array_equal(bits(got), bits(want))


GRIDS = [(2, 16), (2, 128), (3, 8), (3, 32)]


class TestInPlaceBuild:
    """The seeded builders make their field in one array; the copying
    builders in ``conftest`` are the oracle, bit for bit."""

    @pytest.mark.parametrize("dim,n", GRIDS)
    @pytest.mark.parametrize("seed,s,amplitude", [(1, 0.5, 1.0), (2, 0.3, 0.05), (17, 0.9, 2.5)])
    def test_synth_matches_copying_build(self, dim, n, seed, s, amplitude):
        g = make_grid(dim, n)
        recipe = DataRecipe(seed, s, dim, amplitude)
        assert_same_bits(synth_hs_field(recipe, g), synth_hs_field_copying(recipe, g))

    def test_synth_zero_amplitude_is_zero_field(self):
        g = make_grid(3, 8)
        recipe = DataRecipe(1, 0.5, 3, 0.0)
        for f in (synth_hs_field(recipe, g), synth_hs_field_copying(recipe, g)):
            assert not any(f.coeffs.strides)
            assert f.coeffs.shape == (3,) + g.spec_shape

    @pytest.mark.parametrize("dim,n", GRIDS)
    @pytest.mark.parametrize("seed,band,slope", [(0, None, 0.0), (3, None, 1.5), (5, 3, 0.0), (8, 2, 0.75)])
    def test_random_field_matches_copying_build(self, dim, n, seed, band, slope):
        g = make_grid(dim, n)
        got = random_divergence_free_field(g, seed, band=band, slope=slope)
        assert_same_bits(got, random_divergence_free_field_copying(g, seed, band=band, slope=slope))

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_transform_matches_copying_build(self, dim, n):
        g = make_grid(dim, n)
        vals = np.random.default_rng(4).standard_normal((dim,) + g.shape) + 0.5
        f, mean = transform(g, vals)
        c = np.fft.rfftn(vals, axes=tuple(range(1, dim + 1))) * g.fwd_scale
        assert_same_bits(f, SpectralField(g, c))
        assert np.array_equal(mean, c[(slice(None),) + (0,) * dim].real / g.fwd_scale / g.npoints)


# Peak traced allocation of one warm ``synth_hs_field`` call, in units of
# the ``coeffs.nbytes`` of the field it returns.  Measured 3.50 (2D n=128)
# and 2.66 (3D n=32), reached in the Leray projection; 8.24 and 7.78 while
# every stage made a new array and the field was copied by its constructor
# and again by its scaling.
SYNTH_PEAK_UNITS = {(2, 128): 3.6, (3, 32): 2.75}


@pytest.mark.parametrize("dim,n", sorted(SYNTH_PEAK_UNITS))
def test_synth_allocation_peak(dim, n):
    g = make_grid(dim, n)
    recipe = DataRecipe(1, 0.5, dim, 1.0)
    synth_hs_field(recipe, g)  # first call outside the trace: the grid's weight cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f = synth_hs_field(recipe, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / f.coeffs.nbytes <= SYNTH_PEAK_UNITS[(dim, n)]


# Peak traced allocation of one ``truncate_initial_data`` call, in units of
# the ``coeffs.nbytes`` of its u0: the product array plus the |k| table.
# Measured 1.53 (2D n=128) and 1.18 (3D n=32); 2.03 and 2.02 while the
# product was copied again by the ``SpectralField`` constructor.
TRUNCATE_PEAK_UNITS = 1.6


@pytest.mark.parametrize("dim,n", [(2, 128), (3, 32)])
def test_truncate_allocation_peak(dim, n):
    g = make_grid(dim, n)
    v0 = synth_hs_field(DataRecipe(1, 0.5, dim, 1.0), g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        u0, _ = truncate_initial_data(v0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / u0.coeffs.nbytes <= TRUNCATE_PEAK_UNITS
    assert_same_bits(u0, SpectralField(g, v0.coeffs * (g.kmag < 1e-3**-0.5)))


class TestTruncation:
    def test_full_cut(self):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 1)
        u0, u1 = truncate_initial_data(v0, 1.0)  # cutoff 1: every mode |k| >= 1 goes
        assert l2_norm(u0) == 0.0
        assert l2_norm(u1) == 0.0

    def test_no_cut(self):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 2)
        eps = 1.0 / (g.n / 2 * np.sqrt(2) + 1) ** 2
        u0, _ = truncate_initial_data(v0, eps)
        assert np.array_equal(u0.coeffs, v0.coeffs)

    def test_selective_cut(self):
        g = make_grid(2, 32)
        f3 = single_mode_field(g, (3, 0), (0.0, 1.0))
        f7 = single_mode_field(g, (7, 0), (0.0, 1.0))
        u0, _ = truncate_initial_data(f3 + f7, 0.04)  # cutoff 5
        assert np.max(np.abs(u0.coeffs[1][7, 0])) == 0.0
        assert abs(u0.coeffs[1][3, 0] - 0.5) < 1e-15

    def test_idempotent_bitwise(self):
        g = make_grid(2, 32)
        v0 = random_divergence_free_field(g, 3)
        once, _ = truncate_initial_data(v0, 0.01)
        twice, _ = truncate_initial_data(once, 0.01)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_rejects_bad_eps(self):
        g = make_grid(2, 16)
        with pytest.raises(ValueError):
            truncate_initial_data(zero_field(g), 0.0)


class TestBernsteinJackson:
    def test_zero_numerators(self):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 4)
        assert check_bernstein(v0, zero_field(g), 0.01, 1.0, 0.5) == 0.0
        assert check_jackson(v0, v0, 0.01, 0.5) == 0.0

    def test_sigma_below_s_rejected(self):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 4)
        with pytest.raises(ValueError):
            check_bernstein(v0, v0, 0.01, 0.2, 0.5)

    def test_bernstein_at_sigma_equals_s(self):
        g = make_grid(2, 32)
        v0 = random_divergence_free_field(g, 5)
        u0, _ = truncate_initial_data(v0, 0.05)
        assert check_bernstein(v0, u0, 0.05, 0.5, 0.5) <= 1.0

    def test_jackson_one_mode_closed_form(self):
        # single mode |k| = 7 fully cut at cutoff 5: ratio is (5/7)^s exactly
        g = make_grid(2, 32)
        s, eps = 0.5, 0.04
        v0 = single_mode_field(g, (7, 0), (0.0, 1.0))
        u0, _ = truncate_initial_data(v0, eps)
        assert l2_norm(u0) == 0.0
        expect = (5.0 / 7.0) ** s
        assert abs(check_jackson(v0, u0, eps, s) - expect) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_ratios_below_one(self, seed):
        g = make_grid(2, 32)
        s = 0.3 + 0.05 * seed
        v0 = synth_hs_field(DataRecipe(seed, s, 2, 1.0), g)
        for eps in (0.3, 0.05, 0.007):
            u0, _ = truncate_initial_data(v0, eps)
            assert check_jackson(v0, u0, eps, s) <= 1.0
            for sigma in (s, 1.0, 1.4):
                assert check_bernstein(v0, u0, eps, sigma, s) <= 1.0


class TestHypotheses:
    def test_zero_u1_terms_vanish(self):
        g = make_grid(2, 32)
        v0 = synth_hs_field(DataRecipe(6, 0.5, 2, 1.0), g)
        u0, u1 = truncate_initial_data(v0, 0.01)
        rep = check_hypotheses(u0, u1, v0, 0.01, 0.5, 0.5)
        assert rep.ratios["u1_low"] == 0.0
        assert rep.passed

    def test_truncated_family_ratios(self):
        g = make_grid(2, 64)
        v0 = synth_hs_field(DataRecipe(7, 0.5, 2, 1.0), g)
        for eps in (0.1, 0.01, 0.001):
            u0, u1 = truncate_initial_data(v0, eps)
            rep = check_hypotheses(u0, u1, v0, eps, 0.5, 0.5)
            assert all(r <= 1.0 for r in rep.ratios.values())

    def test_3d_smallness_gate(self):
        g = make_grid(3, 16)
        v0 = synth_hs_field(DataRecipe(8, 0.5, 3, 1.3), g)
        u0, u1 = truncate_initial_data(v0, 1e-4)
        rep = check_hypotheses(u0, u1, v0, 1e-4, 0.5, 0.5)
        assert rep.smallness is not None  # set in 3D only
        assert rep.smallness > 1.0 / 16.0
        assert not rep.passed

    def test_stale_dimension_argument_rejected(self):
        # the dimension comes from the fields' grid; a 7th argument is an error
        g = make_grid(2, 16)
        v0 = synth_hs_field(DataRecipe(9, 0.5, 2, 1.0), g)
        u0, u1 = truncate_initial_data(v0, 0.01)
        with pytest.raises(TypeError):
            check_hypotheses(u0, u1, v0, 0.01, 0.5, 0.5, 2)

    def test_2d_has_no_smallness(self):
        g = make_grid(2, 16)
        v0 = synth_hs_field(DataRecipe(9, 0.5, 2, 1.0), g)
        u0, u1 = truncate_initial_data(v0, 0.01)
        rep = check_hypotheses(u0, u1, v0, 0.01, 0.5, 0.5)
        assert rep.smallness is None


class TestTaylorGreen:
    def test_divergence(self):
        g = make_grid(2, 16)
        assert divergence_l2(g, taylor_green(g).coeffs) < 1e-12

    def test_convection_annihilated(self):
        g = make_grid(2, 16)
        assert l2_norm(convection_term(taylor_green(g))) < 1e-10

    def test_l2_norm_squared(self):
        g = make_grid(2, 16)
        assert abs(l2_norm(taylor_green(g)) ** 2 - 2.0 * np.pi**2) < 1e-12

    def test_3d_rejected(self):
        g = make_grid(3, 8)
        with pytest.raises(ValueError):
            taylor_green(g)
