import itertools

import numpy as np
import pytest

from hypns import initial_data
from hypns.experiments import fit_rate
from hypns.initial_data import (
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
    make_grid,
    sobolev_norm,
    transform,
    zero_field,
)

from conftest import (
    l2_norm,
    linear_relaxation_error,
    random_divergence_free_field_copying,
    single_mode_field,
    site_peak_units,
    synth_hs_field_copying,
)


class TestRecipe:
    """The arguments ``synth_hs_field`` builds its field from."""

    def test_s_range_enforced(self):
        g = make_grid(2, 16)
        for s in (1.5, 0.0):
            with pytest.raises(ValueError, match="s must lie in"):
                synth_hs_field(g, 0, s, 1.0)

    def test_amplitude_range_enforced(self):
        g = make_grid(2, 16)
        with pytest.raises(ValueError, match="amplitude"):
            synth_hs_field(g, 0, 0.5, -1.0)

    def test_regularity_shift(self):
        # the composite norm is taken at s in 2D and at s + 1/2 in 3D
        for dim, regularity in ((2, 0.5), (3, 1.0)):
            f = synth_hs_field(make_grid(dim, 16), 0, 0.5, 2.0)
            assert abs(np.hypot(l2_norm(f), sobolev_norm(f, regularity)) - 2.0) < 1e-10


class TestSynth:
    def test_zero_amplitude(self):
        g = make_grid(2, 16)
        f = synth_hs_field(g, 0, 0.5, 0.0)
        assert l2_norm(f) == 0.0

    def test_deterministic_in_seed(self):
        g = make_grid(2, 16)
        a = synth_hs_field(g, 42, 0.5, 1.0)
        b = synth_hs_field(g, 42, 0.5, 1.0)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = synth_hs_field(g, 43, 0.5, 1.0)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_divergence_free(self):
        g = make_grid(2, 32)
        f = synth_hs_field(g, 1, 0.5, 1.0)
        assert divergence_l2(g, f.coeffs) < 1e-12

    def test_normalized_amplitude(self):
        g = make_grid(2, 32)
        f = synth_hs_field(g, 1, 0.5, 2.5)
        size = np.hypot(l2_norm(f), sobolev_norm(f, 0.5))
        assert abs(size - 2.5) < 1e-10

    def test_spectral_slope_dichotomy(self, monkeypatch):
        # shell sums stay level at sigma = s + eta (log-divergent tail) and
        # decay geometrically at sigma = s - eta (convergent tail), for a
        # slope margin eta wide enough to tell the two apart on these grids
        s, eta = 0.5, 0.2
        monkeypatch.setattr(initial_data, "SLOPE_MARGIN", eta)
        shells = {}
        for sigma in (s + eta, s - eta):
            sums = []
            for n in (64, 128, 256):
                g = make_grid(2, n)
                f = synth_hs_field(g, 5, s, 1.0)
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
        assert_same_bits(synth_hs_field(g, seed, s, amplitude), synth_hs_field_copying(g, seed, s, amplitude))

    def test_synth_zero_amplitude_is_zero_field(self):
        g = make_grid(3, 8)
        for f in (synth_hs_field(g, 1, 0.5, 0.0), synth_hs_field_copying(g, 1, 0.5, 0.0)):
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
        f = transform(g, vals)
        axes = tuple(range(1, dim + 1))
        c = np.fft.rfftn(vals, axes=axes) * g.fwd_scale
        assert_same_bits(f, SpectralField(g, c))  # the constructor zeroes the mean, as transform does
        assert np.allclose(vals.mean(axis=axes), c[(slice(None),) + (0,) * dim].real / g.fwd_scale / g.n**dim)


# Peak traced allocation of one warm ``synth_hs_field`` call, in units of
# the ``coeffs.nbytes`` of the field it returns.  Measured 3.50 (2D n=128)
# and 2.66 (3D n=32), reached in the Leray projection; 8.24 and 7.78 while
# every stage made a new array and the field was copied by its constructor
# and again by its scaling.
SYNTH_PEAK_UNITS = {(2, 128): 3.6, (3, 32): 2.75}


@pytest.mark.parametrize("dim,n", sorted(SYNTH_PEAK_UNITS))
def test_synth_allocation_peak(dim, n):
    g = make_grid(dim, n)
    unit = synth_hs_field(g, 1, 0.5, 1.0).coeffs.nbytes
    units = site_peak_units(lambda: synth_hs_field(g, 1, 0.5, 1.0), (), unit)["run"]
    assert units <= SYNTH_PEAK_UNITS[(dim, n)]


# Peak traced allocation of one ``truncate_initial_data`` call, in units of
# the ``coeffs.nbytes`` of its u0: the product array plus the |k| table.
# Measured 1.53 (2D n=128) and 1.18 (3D n=32); 2.03 and 2.02 while the
# product was copied again by the ``SpectralField`` constructor.
TRUNCATE_PEAK_UNITS = 1.6


@pytest.mark.parametrize("dim,n", [(2, 128), (3, 32)])
def test_truncate_allocation_peak(dim, n):
    g = make_grid(dim, n)
    v0 = synth_hs_field(g, 1, 0.5, 1.0)
    u0 = truncate_initial_data(v0, 1e-3)
    units = site_peak_units(lambda: truncate_initial_data(v0, 1e-3), (), u0.coeffs.nbytes)["run"]
    assert units <= TRUNCATE_PEAK_UNITS
    assert_same_bits(u0, SpectralField(g, v0.coeffs * (g.kmag < 1e-3**-0.5)))


# Peak traced allocation of one warm ``check_hypotheses`` call on the
# truncated data, in units of the ``coeffs.nbytes`` of u0.  Measured 2.00
# (2D n=128) and 1.67 (3D n=32), reached in the gap's density, before u0's
# density is made; 2.00 and 2.00 while the gap was a copied ``u0 - v0``
# field and every sigma made its own density.
HYPOTHESES_PEAK_UNITS = {(2, 128): 2.1, (3, 32): 1.75}


@pytest.mark.parametrize("dim,n", sorted(HYPOTHESES_PEAK_UNITS))
def test_hypotheses_allocation_peak(dim, n):
    g = make_grid(dim, n)
    v0 = synth_hs_field(g, 1, 0.5, 1.0)
    u0 = truncate_initial_data(v0, 1e-3)
    units = site_peak_units(lambda: check_hypotheses(u0, v0, 1e-3, 0.5, 0.5), (), u0.coeffs.nbytes)["run"]
    assert units <= HYPOTHESES_PEAK_UNITS[(dim, n)]


class TestTruncation:
    def test_full_cut(self):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 1)
        u0 = truncate_initial_data(v0, 1.0)  # cutoff 1: every mode |k| >= 1 goes
        assert l2_norm(u0) == 0.0

    def test_no_cut(self):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 2)
        eps = 1.0 / (g.n / 2 * np.sqrt(2) + 1) ** 2
        u0 = truncate_initial_data(v0, eps)
        assert np.array_equal(u0.coeffs, v0.coeffs)

    def test_selective_cut(self):
        g = make_grid(2, 32)
        f3 = single_mode_field(g, (3, 0), (0.0, 1.0))
        f7 = single_mode_field(g, (7, 0), (0.0, 1.0))
        u0 = truncate_initial_data(f3 + f7, 0.04)  # cutoff 5
        assert np.max(np.abs(u0.coeffs[1][7, 0])) == 0.0
        assert abs(u0.coeffs[1][3, 0] - 0.5) < 1e-15

    def test_idempotent_bitwise(self):
        g = make_grid(2, 32)
        v0 = random_divergence_free_field(g, 3)
        once = truncate_initial_data(v0, 0.01)
        twice = truncate_initial_data(once, 0.01)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_rejects_bad_eps(self):
        v0 = random_divergence_free_field(make_grid(2, 16), 1)
        # eps <= 0 is False for NaN and inf, which returned the zero field
        for eps in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="eps must be finite and > 0"):
                truncate_initial_data(v0, eps)


ACCEPTANCE_EPS = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
ETA = initial_data.SLOPE_MARGIN  # eta, the seeded field's slope margin
# Largest excess of the fitted exponent over s + eta at n = 512: 0.074 over
# seeds 1-40 and s = 0.25, 0.5, 0.75; seed 1 gives 0.070, 0.038 and 0.031.
GAP_EXPONENT_BAND = 0.08


def data_gap_exponent(n: int, s: float) -> float:
    """Slope of log ||v0 - u0||^2 against log eps over the acceptance eps
    list, for the seed-1 2D field with exponent s."""
    v0 = synth_hs_field(make_grid(2, n), 1, s, 1.0)
    gaps = ((eps, sobolev_norm(v0 - truncate_initial_data(v0, eps), 0.0) ** 2) for eps in ACCEPTANCE_EPS)
    return fit_rate(gaps).slope


class TestDataGapExponent:
    """The squared L^2 gap of the truncated data falls like eps^(s + eta)
    on the infinite lattice; a finite grid cuts the tail at n/2, which
    steepens the fit, less so as n grows."""

    def test_rises_with_s_above_s_plus_eta(self):
        exps = [data_gap_exponent(512, s) for s in (0.25, 0.5, 0.75)]
        assert exps == sorted(exps) and len(set(exps)) == 3
        for s, e in zip((0.25, 0.5, 0.75), exps):
            assert s + ETA <= e <= s + ETA + GAP_EXPONENT_BAND, (s, e)

    def test_falls_with_n_toward_s_plus_eta(self):
        exps = [data_gap_exponent(n, 0.5) for n in (128, 256, 512, 1024)]
        assert all(a > b for a, b in zip(exps, exps[1:])), exps
        assert exps[-1] > 0.5 + ETA


# Largest distance of the fitted relaxation exponent from s + eta at n = 512,
# over seeds 1-40 and s = 0.25, 0.5, 0.75: 0.086 (seed 24, below); seed 1
# gives 0.284, 0.538 and 0.790, above, but 24 of the 40 seeds lie below
# at every s.  Between two s values the exponents differ by the difference
# in s to 0.029 at most.
RELAX_EXPONENT_BAND = 0.09
RELAX_STEP_BAND = 0.03


def relaxation_exponent(n: int, s: float) -> float:
    """Slope of log (linear relaxation error) against log eps over the
    acceptance eps list, for the seed-1 2D field with exponent s; each
    error is a sup over t = eps * geomspace(0.05, 20, 400), which holds
    the initial layer at t ~ eps."""
    v0 = synth_hs_field(make_grid(2, n), 1, s, 1.0)
    errs = ((eps, linear_relaxation_error(v0, eps, eps * np.geomspace(0.05, 20, 400))) for eps in ACCEPTANCE_EPS)
    return fit_rate(errs).slope


class TestRelaxationExponent:
    """The other half of the closed-form error: the wave from rest against
    the heat flow, both linear and from the truncated data u0.  Its sup
    over t falls like eps^(s + eta) too, within a band that the seed's
    phases set."""

    def test_rises_with_s_near_s_plus_eta(self):
        ss = (0.25, 0.5, 0.75)
        exps = [relaxation_exponent(512, s) for s in ss]
        assert exps == sorted(exps) and len(set(exps)) == 3
        for s, e in zip(ss, exps):
            assert abs(e - (s + ETA)) <= RELAX_EXPONENT_BAND, (s, e)
        for (s, e), (s2, e2) in itertools.combinations(zip(ss, exps), 2):
            assert abs((e2 - e) - (s2 - s)) <= RELAX_STEP_BAND, (s, s2, e, e2)


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
        u0 = truncate_initial_data(v0, 0.05)
        assert check_bernstein(v0, u0, 0.05, 0.5, 0.5) <= 1.0

    def test_jackson_one_mode_closed_form(self):
        # single mode |k| = 7 fully cut at cutoff 5: ratio is (5/7)^s exactly
        g = make_grid(2, 32)
        s, eps = 0.5, 0.04
        v0 = single_mode_field(g, (7, 0), (0.0, 1.0))
        u0 = truncate_initial_data(v0, eps)
        assert l2_norm(u0) == 0.0
        expect = (5.0 / 7.0) ** s
        assert abs(check_jackson(v0, u0, eps, s) - expect) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_ratios_below_one(self, seed):
        g = make_grid(2, 32)
        s = 0.3 + 0.05 * seed
        v0 = synth_hs_field(g, seed, s, 1.0)
        for eps in (0.3, 0.05, 0.007):
            u0 = truncate_initial_data(v0, eps)
            assert check_jackson(v0, u0, eps, s) <= 1.0
            for sigma in (s, 1.0, 1.4):
                assert check_bernstein(v0, u0, eps, sigma, s) <= 1.0


class TestHypotheses:
    def test_truncated_data_pass(self):
        g = make_grid(2, 32)
        v0 = synth_hs_field(g, 6, 0.5, 1.0)
        rep = check_hypotheses(truncate_initial_data(v0, 0.01), v0, 0.01, 0.5, 0.5)
        assert rep.passed

    def test_truncated_family_ratios(self):
        g = make_grid(2, 64)
        v0 = synth_hs_field(g, 7, 0.5, 1.0)
        for eps in (0.1, 0.01, 0.001):
            u0 = truncate_initial_data(v0, eps)
            rep = check_hypotheses(u0, v0, eps, 0.5, 0.5)
            assert all(r <= 1.0 for r in rep.ratios.values())

    def test_3d_smallness_gate(self):
        g = make_grid(3, 16)
        v0 = synth_hs_field(g, 8, 0.5, 1.3)
        u0 = truncate_initial_data(v0, 1e-4)
        rep = check_hypotheses(u0, v0, 1e-4, 0.5, 0.5)
        assert rep.smallness is not None  # set in 3D only
        assert rep.smallness > 1.0 / 16.0
        assert not rep.passed

    def test_stale_dimension_argument_rejected(self):
        # the dimension comes from the fields' grid; a 6th argument is an error
        g = make_grid(2, 16)
        v0 = synth_hs_field(g, 9, 0.5, 1.0)
        u0 = truncate_initial_data(v0, 0.01)
        with pytest.raises(TypeError):
            check_hypotheses(u0, v0, 0.01, 0.5, 0.5, 2)

    def test_2d_has_no_smallness(self):
        g = make_grid(2, 16)
        v0 = synth_hs_field(g, 9, 0.5, 1.0)
        u0 = truncate_initial_data(v0, 0.01)
        rep = check_hypotheses(u0, v0, 0.01, 0.5, 0.5)
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
