import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypns.spectral import (
    TWO_PI,
    SpectralField,
    _divergence_coeffs,
    base_sigma,
    _leray_full,
    box_gather,
    convection_term,
    divergence_l2,
    hs_inner,
    inverse_transform,
    leray_project,
    linf_norm,
    make_grid,
    mode_mag2,
    require_divergence_free,
    sobolev_norm,
    transform,
    zero_field,
)
from hypns.initial_data import (
    check_hypotheses,
    random_divergence_free_field,
    synth_hs_field,
    taylor_green,
    truncate_initial_data,
)
from hypns.nlw import WaveState, energy, nlw_solve
from hypns.ns import ns_solve

from conftest import (
    beltrami_field,
    cell_volume,
    count_field_copies,
    dealias_mask,
    grid_ik,
    grid_shapes,
    hs_inner_expr,
    l2_norm,
    linf_norm_expr,
    mode_mag2_expr,
    modulated_density_expr,
    property_settings,
    random_real_field,
    single_mode_field,
    site_peak_units,
    triad_convection,
    unguarded_convection,
    whole_irfftn,
    with_nan,
)

def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def self_conjugate_planes(g):
    """Index of the planes k_last = 0 and k_last = n/2, whose modes have
    their conjugate partners in the same plane."""
    return [(Ellipsis, 0), (Ellipsis, g.n // 2)]


def mirrored(plane):
    """plane(-k') for a plane indexed by the other wavenumbers k'."""
    out = plane
    for ax in range(1, plane.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


class TestGrid:
    def test_make_grid_2d(self):
        g = make_grid(2, 8)
        assert g.n**g.dim == 64
        ks = sorted(set(int(k) for k in np.unique(g.k[0])))
        assert ks == list(range(-4, 4))

    def test_make_grid_3d(self):
        g = make_grid(3, 16)
        assert g.n**g.dim == 16**3
        assert g.shape == (16, 16, 16)
        assert g.spec_shape == (16, 16, 9)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            make_grid(2, 7)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            make_grid(2, 6)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            make_grid(4, 16)


class TestFieldShape:
    """A field has one component per axis: the constructor accepts only
    coefficients of shape (dim,) + spec_shape."""

    @pytest.mark.parametrize("dim, ncomp", [(2, 1), (2, 3), (3, 2)])
    def test_other_component_counts_rejected(self, dim, ncomp):
        g = make_grid(dim, 8)
        want = (dim,) + g.spec_shape
        with pytest.raises(ValueError, match=re.escape(f"does not match the half spectrum {want}")):
            SpectralField(g, np.zeros((ncomp,) + g.spec_shape, dtype=np.complex128))


# protocol 4 loads a writeable array, protocol 5 a read-only one
PROTOCOLS = [4, 5]


class TestPickle:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_field_round_trip_read_only_without_copy(self, monkeypatch, protocol):
        f = random_divergence_free_field(make_grid(2, 16), 1)
        data = pickle.dumps(f, protocol=protocol)
        built = count_field_copies(monkeypatch)
        back = pickle.loads(data)
        assert built == []
        assert not back.coeffs.flags.writeable
        assert np.array_equal(back.coeffs, f.coeffs)
        assert (back.grid.dim, back.grid.n) == (2, 16)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_zero_field_stays_zero_stride(self, protocol):
        z = zero_field(make_grid(2, 16))
        back = pickle.loads(pickle.dumps(z, protocol=protocol))
        assert back.coeffs.strides == (0, 0, 0)
        assert back.coeffs.shape == z.coeffs.shape
        assert not back.coeffs.flags.writeable and not np.any(back.coeffs)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_zero_field_pickles_small(self, protocol):
        assert len(pickle.dumps(zero_field(make_grid(3, 32)), protocol=protocol)) < 1024

    def test_fields_of_one_pickle_share_a_rebuilt_grid(self):
        g = make_grid(2, 16)
        a, b = pickle.loads(pickle.dumps((random_divergence_free_field(g, 1), zero_field(g))))
        assert a.grid is b.grid
        assert np.array_equal(a.grid.k2, g.k2)
        assert all(np.array_equal(x, y) for x, y in zip(a.grid.box_keff, g.box_keff))


class TestTransform:
    def test_constant_field_removed_mean(self):
        g = make_grid(2, 16)
        vals = np.full((2, 16, 16), 5.0)
        assert np.all(transform(g, vals).coeffs == 0)

    def test_cosine_support(self):
        g = make_grid(2, 16)
        x, _ = g.meshgrid()
        f = transform(g, np.stack([np.cos(3 * x), np.zeros_like(x)]))
        nz = np.argwhere(np.abs(f.coeffs[0]) > 1e-12)
        assert sorted(map(tuple, nz)) == [(3, 0), (13, 0)]
        assert np.max(np.abs(f.coeffs[1])) == 0.0

    def test_round_trip(self):
        g = make_grid(2, 16)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((2, 16, 16))
        vals -= vals.mean(axis=(1, 2), keepdims=True)
        f = transform(g, vals)
        back = inverse_transform(f)
        assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1))
    def test_real_round_trip_property(self, shape, seed):
        g, f, _ = random_real_field(*shape, seed)
        back = transform(g, inverse_transform(f))
        assert rel_err(back.coeffs, f.coeffs) <= 1e-13
        for plane in self_conjugate_planes(g):
            assert np.max(np.abs(f.coeffs[plane])) > 0.0
            assert rel_err(back.coeffs[plane], f.coeffs[plane]) <= 1e-13
            # realness: on these planes c(-k) = conj c(k) holds between stored modes
            assert rel_err(mirrored(f.coeffs[plane]), np.conj(f.coeffs[plane])) <= 1e-13

    def test_shape_mismatch(self):
        g = make_grid(2, 16)
        with pytest.raises(ValueError):
            transform(g, np.zeros((2, 8, 8)))

    @pytest.mark.parametrize("shape", [(16, 16), (1, 16, 16)])
    def test_one_component_rejected(self, shape):
        # a field has one component per axis; a scalar is not a field
        with pytest.raises(ValueError, match=r"does not match the grid's \(2, 16, 16\)"):
            transform(make_grid(2, 16), np.zeros(shape))

    def test_parseval(self):
        g = make_grid(2, 32)
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((2, 32, 32))
        vals -= vals.mean(axis=(1, 2), keepdims=True)
        f = transform(g, vals)
        quad = np.sqrt(np.sum(vals**2) * cell_volume(g))
        assert abs(l2_norm(f) - quad) < 1e-12 * quad


class TestMultipliers:
    def test_sobolev_single_mode(self):
        g = make_grid(2, 16)
        f = single_mode_field(g, (3, 0), (0.0, 1.0))
        f = f * (1.0 / l2_norm(f))
        assert abs(sobolev_norm(f, 0.5) - np.sqrt(3.0)) < 1e-12

    def test_sobolev_zero_field(self):
        g = make_grid(2, 16)
        assert sobolev_norm(zero_field(g), 1.0) == 0.0

    def test_sobolev_zero_exponent_is_l2(self):
        g = make_grid(2, 16)
        f = random_divergence_free_field(g, 5)
        assert sobolev_norm(f, 0.0) == l2_norm(f)


class TestLinf:
    def test_zero(self, grid2):
        assert linf_norm(zero_field(grid2)) == 0.0

    def test_cosine(self):
        g = make_grid(2, 16)
        x, y = g.meshgrid()
        f = transform(g, np.stack([np.cos(x), np.zeros_like(x)]))
        assert abs(linf_norm(f) - 1.0) < 1e-12

    def test_homogeneity(self):
        g = make_grid(2, 16)
        f = random_divergence_free_field(g, 6)
        assert abs(linf_norm(-2.5 * f) - 2.5 * linf_norm(f)) < 1e-12


class TestInPlacePrimitives:
    """The diagnostics' primitives, which work in place on one scratch
    array, against their one-expression forms (conftest), bit for bit, on
    fields with content on every mode and on the zero-stride zero field."""

    @staticmethod
    def fields(shape, seed):
        """Two fields with content on every mode, and the zero field."""
        g, f, _ = random_real_field(*shape, seed)
        return f, random_real_field(*shape, seed + 1)[1], zero_field(g)

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 2))
    def test_inverse_transform_and_sup_norm(self, shape, seed):
        f, _, zero = self.fields(shape, seed)
        for h in (f, zero):
            assert np.array_equal(inverse_transform(h), whole_irfftn(h))
            assert linf_norm(h) == linf_norm_expr(h)

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 2), sigma=st.floats(0.0, 2.0))
    def test_mode_densities_and_pairing(self, shape, seed, sigma):
        f, h, zero = self.fields(shape, seed)
        for a in (f, zero):
            assert np.array_equal(mode_mag2(a.coeffs), mode_mag2_expr(a.coeffs))
            for b in (h, zero):
                assert hs_inner(a, b, sigma) == hs_inner_expr(a, b, sigma)

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 2), eps=st.floats(1e-4, 1.0))
    def test_modulated_density(self, shape, seed, eps):
        f, h, zero = self.fields(shape, seed)
        for ut in (h, zero):
            state = WaveState(f, ut, eps)
            for w in (f.coeffs, f.coeffs - h.coeffs, zero.coeffs):
                want = modulated_density_expr(state, w)
                assert np.array_equal(state.modulated_density(w.copy()), want)


class TestLeray:
    def test_gradient_annihilated(self):
        g = make_grid(2, 16)
        x, y = g.meshgrid()
        grad = np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])
        f = transform(g, grad)
        assert l2_norm(leray_project(f)) < 1e-13

    def test_divergence_free_fixed(self):
        g = make_grid(2, 16)
        f = random_divergence_free_field(g, 7)
        assert np.max(np.abs(leray_project(f).coeffs - f.coeffs)) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_idempotent_and_self_adjoint(self, n):
        g = make_grid(2, n)
        rng = np.random.default_rng(n)
        f = transform(g, rng.standard_normal((2, n, n)))
        h = transform(g, rng.standard_normal((2, n, n)))
        pf, ph = leray_project(f), leray_project(h)
        assert np.max(np.abs(leray_project(pf).coeffs - pf.coeffs)) < 1e-12
        assert abs(hs_inner(pf, h, 0.0) - hs_inner(f, ph, 0.0)) < 1e-12 * max(1.0, l2_norm(f) * l2_norm(h))

    def test_divergence_of_projection(self):
        g = make_grid(2, 16)
        f = transform(g, np.random.default_rng(9).standard_normal((2, 16, 16)))
        assert divergence_l2(g, leray_project(f).coeffs) <= 1e-12 * l2_norm(f)


class TestDivergence:
    def test_x_independent(self):
        g = make_grid(2, 16)
        x, y = g.meshgrid()
        f = transform(g, np.stack([np.sin(y), np.zeros_like(x)]))
        assert divergence_l2(g, f.coeffs) < 1e-13

    def test_symbolic(self):
        g = make_grid(2, 16)
        x, y = g.meshgrid()
        f = transform(g, np.stack([np.sin(x), np.zeros_like(x)]))
        d = np.fft.irfftn(_divergence_coeffs(g, f.coeffs) / g.fwd_scale, s=g.shape, axes=(0, 1))
        assert np.max(np.abs(d - np.cos(x))) < 1e-12


class TestConvection:
    def test_zero(self, grid2):
        assert l2_norm(convection_term(zero_field(grid2))) == 0.0

    def test_taylor_green_annihilated(self):
        g = make_grid(2, 32)
        assert l2_norm(convection_term(taylor_green(g))) < 1e-10

    def test_dealias_cutoff(self):
        g = make_grid(2, 32)
        # mode just inside the mask; its self-interaction lands above it
        f = single_mode_field(g, (g.dealias_cutoff, 0), (0.0, 1.0))
        out = convection_term(f)
        above = np.zeros(g.spec_shape, dtype=bool)
        for k in g.k:
            above |= np.abs(k) > g.dealias_cutoff
        assert np.max(np.abs(out.coeffs[:, above])) == 0.0

    def test_quadratic_scaling(self):
        g = make_grid(2, 32)
        f = random_divergence_free_field(g, 11, band=8)
        a, b = convection_term(3.0 * f), convection_term(f)
        assert np.max(np.abs(a.coeffs - 9.0 * b.coeffs)) < 1e-10 * max(1.0, l2_norm(b))

    # the oracle that the exact kernel tests use on arbitrary data
    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    def test_matches_unguarded_oracle_exactly(self, dim, n):
        f = random_divergence_free_field(make_grid(dim, n), 13)
        assert np.array_equal(convection_term(f).coeffs, unguarded_convection(f.grid, f.coeffs))

    def test_rejects_divergent_field(self):
        g = make_grid(2, 16)
        f = transform(g, np.random.default_rng(13).standard_normal((2, 16, 16)))
        with pytest.raises(ValueError):
            convection_term(f)

    @pytest.mark.parametrize("inside_box", [True, False])
    def test_rejects_non_finite_field(self, inside_box):
        f = with_nan(random_divergence_free_field(make_grid(2, 16), 13), inside_box)
        with pytest.raises(ValueError, match="finite"):
            convection_term(f)

    def test_nan_outside_box_does_not_reach_kernel_output(self):
        # the kernel reads only the 2/3-rule box, so the guard above is
        # what rejects such data
        f = with_nan(random_divergence_free_field(make_grid(2, 16), 13), inside_box=False)
        assert np.isfinite(unguarded_convection(f.grid, f.coeffs)).all()


# 2D with every even n in [8, 24], 3D with n in {8, 10, 12}: boxes small
# enough for the triad sum
small_shapes = st.one_of(
    st.tuples(st.just(2), st.integers(4, 12).map(lambda m: 2 * m)),
    st.tuples(st.just(3), st.sampled_from([8, 10, 12])),
)

# Largest relative gaps measured on 80 (2D) or 30 (3D) seeded fields at
# each shape above, half of them from ``random_divergence_free_field`` and
# half from ``synth_hs_field``: 1.17e-15 against the triad sum, 1.9e-16
# in the energy identity.  The bounds leave about 3x and 5x of headroom.
TRIAD_REL_TOL = 4e-15
ENERGY_IDENTITY_TOL = 1e-15

# Largest relative gaps measured over 400 seeded draws of the shapes
# above, data, shift and symmetry: 4.6e-15 for the kernel under a shift
# (the phases e^(-i k . a) carry rounding of order |k . a|), 1.3e-15 under
# an axis permutation and reflection, and 1.7e-15 for one NS or wave step
# under either.  The bound leaves about 4x of headroom.
EQUIVARIANCE_TOL = 2e-14

# Largest ||P nabla . (u (x) u)|| / ||u||^2 measured on Beltrami fields,
# 20 seeds per shell |k|^2 in {1, 2, 3, 9, 25} at n in {8, 12, 16}: 5.7e-17.
BELTRAMI_FORCING_TOL = 5e-16


def shifted(f, a):
    """The field u(x - a) for a real vector ``a`` on or off the lattice:
    c_k e^(-i k . a)."""
    phase = np.exp(-1j * sum(kj * aj for kj, aj in zip(f.grid.k, a)))
    return SpectralField(f.grid, f.coeffs * phase)


def lattice_image(f, perm, flips):
    """The field Q u(Q^-1 x) for a symmetry Q of the lattice: axis
    ``perm[i]`` goes to axis i, then axis i is reversed where ``flips[i]``
    is set.  It acts on the collocation values and on the components
    together, because the half spectrum does not store the mirror image of
    a last-axis mode."""
    vals = np.transpose(inverse_transform(f)[list(perm)], (0,) + tuple(1 + p for p in perm))
    for ax, flip in enumerate(flips):
        if flip:
            vals = np.roll(np.flip(vals, 1 + ax), 1, 1 + ax)
            vals[ax] *= -1.0
    return transform(f.grid, vals)


@st.composite
def lattice_moves(draw, dim):
    """A shift by a vector off the lattice and a symmetry of the lattice,
    each as a map of fields."""
    a = draw(st.lists(st.floats(0.0, TWO_PI), min_size=dim, max_size=dim))
    perm = draw(st.permutations(range(dim)))
    flips = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    return (lambda f: shifted(f, a)), (lambda f: lattice_image(f, perm, flips))


class TestKernelAgainstMathematics:
    """The kernel against the algebra it computes, not against another FFT
    form of itself: the direct triad sum, the cancellation
    <P nabla . (u (x) u), u> = 0 that the energy method rests on, the
    symmetries of the torus and its lattice, and the Beltrami fields,
    whose forcing vanishes."""

    @staticmethod
    def field(shape, seed, synthetic):
        g = make_grid(*shape)
        return synth_hs_field(g, seed, 0.5, 1.0) if synthetic else random_divergence_free_field(g, seed)

    @property_settings
    @given(shape=small_shapes, seed=st.integers(0, 2**32 - 2), synthetic=st.booleans())
    def test_matches_triad_sum(self, shape, seed, synthetic):
        f = self.field(shape, seed, synthetic)
        assert rel_err(convection_term(f).coeffs, triad_convection(f)) <= TRIAD_REL_TOL

    @property_settings
    @given(shape=small_shapes, seed=st.integers(0, 2**32 - 2), synthetic=st.booleans())
    def test_energy_identity(self, shape, seed, synthetic):
        f = self.field(shape, seed, synthetic)
        conv = convection_term(f)
        assert abs(hs_inner(conv, f, 0.0)) <= ENERGY_IDENTITY_TOL * l2_norm(conv) * l2_norm(f)

    # Equivariance: a shift of the torus and a symmetry of the lattice
    # commute with the kernel and with each solver's step, whose tables
    # depend on |k| only.  ``step`` maps the data to the fields compared.

    @staticmethod
    def assert_equivariant(step, data, moves):
        for move in moves:
            got = step(*map(move, data))
            want = [move(x) for x in step(*data)]
            for x, y in zip(got, want):
                assert rel_err(x.coeffs, y.coeffs) <= EQUIVARIANCE_TOL

    @property_settings
    @given(shape=small_shapes, seed=st.integers(0, 2**32 - 2), synthetic=st.booleans(), data=st.data())
    def test_kernel_equivariance(self, shape, seed, synthetic, data):
        f = self.field(shape, seed, synthetic)
        self.assert_equivariant(lambda u: [convection_term(u)], [f], data.draw(lattice_moves(shape[0])))

    @property_settings
    @given(shape=small_shapes, seed=st.integers(0, 2**32 - 2), synthetic=st.booleans(), data=st.data())
    def test_ns_step_equivariance(self, shape, seed, synthetic, data):
        f = self.field(shape, seed, synthetic)
        step = lambda v: [ns_solve(v, 1e-2, 1e-2).v]
        self.assert_equivariant(step, [f], data.draw(lattice_moves(shape[0])))

    @property_settings
    @given(
        shape=small_shapes,
        seed=st.integers(0, 2**32 - 3),
        synthetic=st.booleans(),
        eps=st.sampled_from([1e-1, 1e-2, 1e-3]),
        data=st.data(),
    )
    def test_wave_step_equivariance(self, shape, seed, synthetic, eps, data):
        def step(u, ut):
            final = nlw_solve(u, ut, eps, 1e-2, 1e-2)
            return [final.u, final.ut]

        u0, u1 = self.field(shape, seed, synthetic), self.field(shape, seed + 1, False)
        self.assert_equivariant(step, [u0, u1], data.draw(lattice_moves(shape[0])))

    @pytest.mark.parametrize("k2", [1, 3, 9, 25])
    def test_beltrami_forcing_vanishes(self, k2):
        # every product u_i u_j is nonzero, and u . grad u is a gradient
        for seed in range(3):
            f = beltrami_field(16, k2, seed, 2.0)
            curl = 1j * np.cross(np.stack(f.grid.k), f.coeffs, axis=0)
            assert rel_err(curl, np.sqrt(k2) * f.coeffs) <= 1e-14  # measured at most 1.9e-15
            assert l2_norm(convection_term(f)) <= BELTRAMI_FORCING_TOL * l2_norm(f) ** 2


def test_gagliardo_nirenberg_lattice():
    g = make_grid(2, 16)
    for i in range(200):
        f = random_divergence_free_field(g, 100 + i)
        lhs = sobolev_norm(f, 1.0) ** 2
        rhs = sobolev_norm(f, 0.5) * sobolev_norm(f, 1.5)
        assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Real-FFT half spectrum: properties over grid sizes and random real data
# ---------------------------------------------------------------------------


class FullSpectrum:
    """Tables of the full complex-to-complex spectrum (last axis n long),
    built here independently of Grid, for the oracles below."""

    def __init__(self, grid):
        self.grid = grid
        k1 = np.fft.fftfreq(grid.n, 1.0 / grid.n)
        self.k = np.meshgrid(*([k1] * grid.dim), indexing="ij")
        self.k2 = sum(k * k for k in self.k)
        self.keff = [np.where(np.abs(k) == grid.n // 2, 0.0, k) for k in self.k]
        self.mask = np.all([np.abs(k) <= grid.dealias_cutoff for k in self.k], axis=0)

    def coeffs(self, vals):
        """Mean-free full spectrum of real values, by a c2c transform."""
        g = self.grid
        c = np.fft.fftn(vals, axes=tuple(range(1, g.dim + 1))) * g.fwd_scale
        c[(slice(None),) + (0,) * g.dim] = 0.0
        return c

    def half(self, c):
        return c[..., : self.grid.n // 2 + 1]

    def weighted_sum(self, sigma, density):
        w = np.where(self.k2 > 0, self.k2, 1.0) ** sigma
        w[self.k2 == 0] = 0.0
        return float(np.sum(w * density))

    def leray(self, c):
        keff = self.keff
        k2 = sum(k * k for k in keff)
        kdotc = sum(k * ci for k, ci in zip(keff, c)) / np.where(k2 > 0, k2, 1.0)
        return np.stack([ci - k * kdotc for k, ci in zip(keff, c)])

    def tensor_divergence(self, c):
        """Dealiased nabla : (u (x) u) with c2c transforms over the full
        spectrum, the formula the r2c kernel replaces."""
        g = self.grid
        axes = tuple(range(1, g.dim + 1))
        vals = np.fft.ifftn(c * self.mask / g.fwd_scale, axes=axes).real
        out = np.zeros_like(c)
        for i in range(g.dim):
            for j in range(i, g.dim):
                tij = np.fft.fftn(vals[i] * vals[j]) * g.fwd_scale
                out[i] += 1j * self.keff[j] * tij
                if j != i:
                    out[j] += 1j * self.keff[i] * tij
        return out * self.mask


class TestHalfSpectrum:
    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1))
    def test_transform_is_half_of_c2c(self, shape, seed):
        g, f, vals = random_real_field(*shape, seed)
        full = FullSpectrum(g)
        c = full.coeffs(vals)
        assert f.coeffs.shape == (g.dim,) + g.shape[:-1] + (g.n // 2 + 1,)
        assert rel_err(f.coeffs, full.half(c)) <= 1e-14
        for ax in range(1, g.dim + 1):
            nyq = (slice(None),) * ax + (g.n // 2,)
            assert np.max(np.abs(f.coeffs[nyq])) > 0.0
            assert rel_err(f.coeffs[nyq], full.half(c)[nyq]) <= 1e-14

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1))
    def test_r2c_convection_matches_c2c(self, shape, seed):
        g, f, vals = random_real_field(*shape, seed)
        full = FullSpectrum(g)
        oracle = full.tensor_divergence(full.coeffs(vals))
        projected = full.half(full.leray(oracle))
        assert rel_err(_leray_full(g, full.half(oracle).copy()), projected) <= 1e-13
        assert rel_err(unguarded_convection(g, f.coeffs), projected) <= 1e-13

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1))
    def test_parseval_and_round_trip(self, shape, seed):
        g, f, _ = random_real_field(*shape, seed)
        vals = inverse_transform(f)
        assert vals.shape == (g.dim,) + g.shape and vals.dtype == np.float64
        quad = np.sum(vals**2) * cell_volume(g)
        assert abs(quad - l2_norm(f) ** 2) <= 1e-12 * quad
        back = transform(g, vals)
        mean = vals.mean(axis=tuple(range(1, g.dim + 1)))
        assert np.max(np.abs(mean)) <= 1e-12 * np.max(np.abs(vals))
        assert rel_err(back.coeffs, f.coeffs) <= 1e-13

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 2.0))
    def test_weights_match_c2c_sums(self, shape, seed, sigma):
        g, f, f_vals = random_real_field(*shape, seed)
        _, h, h_vals = random_real_field(*shape, seed + 1)
        full = FullSpectrum(g)
        cf, ch = full.coeffs(f_vals), full.coeffs(h_vals)
        want = full.weighted_sum(sigma, np.sum(np.abs(cf) ** 2, axis=0))
        assert abs(sobolev_norm(f, sigma) ** 2 - want) <= 1e-13 * want
        # the pairing is measured against the size of its factors: it may
        # cancel to far below them
        want = full.weighted_sum(sigma, np.sum((np.conj(cf) * ch).real, axis=0))
        scale = sobolev_norm(f, sigma) * sobolev_norm(h, sigma)
        assert abs(hs_inner(f, h, sigma) - want) <= 1e-13 * scale
        assert abs(hs_inner(f, f, sigma) - sobolev_norm(f, sigma) ** 2) <= 1e-13 * sobolev_norm(f, sigma) ** 2

    def test_tables_are_half_of_full_tables(self):
        for g in (make_grid(2, 16), make_grid(3, 8)):
            full = FullSpectrum(g)
            nh = g.n // 2 + 1
            assert g.spec_shape == g.shape[:-1] + (nh,)
            k2eff = sum(k * k for k in full.keff)
            pairs = [(g.k2, full.k2), (g.kmag, np.sqrt(full.k2)), (dealias_mask(g), full.mask)]
            pairs += list(zip(g.keff, full.keff)) + [(ik, 1j * k) for ik, k in zip(grid_ik(g), full.keff)]
            pairs += list(zip(g.k[:-1], full.k[:-1]))
            for table, want in pairs:
                assert table.shape == g.spec_shape
                assert np.array_equal(table, full.half(want))
            want = box_gather(g, full.half(np.where(k2eff > 0, k2eff, 1.0)))
            assert np.array_equal(g.box_k2eff_safe, want)
            # along the last axis the wavenumbers run over 0..n/2
            assert np.array_equal(g.k[-1], np.broadcast_to(np.arange(nh), g.spec_shape))
            mult = np.full(g.spec_shape, 2.0)
            mult[..., 0] = mult[..., -1] = 1.0
            assert np.array_equal(g.mult, mult)
            assert g.weight(0.0)[(0,) * g.dim] == 0.0
            assert g.weight(0.5) is g.weight(0.5)
            assert np.array_equal(g.weight(0.5), g.k2_power(0.5) * mult)
            # a table computed on access is the caller's own: writing it
            # leaves the grid's next one unchanged
            g.keff[0][...] = 7.0
            assert np.array_equal(g.keff[0], full.half(full.keff[0]))

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_weight_cache_keeps_two_tables(self, dim, n):
        # a wave solve's samples read base_sigma and base_sigma + delta
        # over and over; the admissibility check asks others once per eps
        g = make_grid(dim, n)
        v0 = random_divergence_free_field(g, 5)
        u0 = truncate_initial_data(v0, 0.05)
        state = WaveState(u0, zero_field(g), 0.05)
        s0 = base_sigma(dim)
        check_hypotheses(u0, v0, 0.05, 0.5, 0.5)
        assert len(g._weights) <= 2
        for sigma in (s0, s0 + 0.5) * 3:
            energy(state, sigma)
            assert len(g._weights) <= 2
        assert sorted(g._weights) == [s0, s0 + 0.5]
        mult = g.mult
        for sigma in (s0, s0 + 0.5, 1.0, 1.5, 2.0, s0):
            w = g.weight(sigma)
            assert g.weight(sigma) is w and not w.flags.writeable
            assert np.array_equal(w, g.k2_power(sigma) * mult)
            assert len(g._weights) <= 2

    def test_grid_holds_only_k2_and_box_tables(self):
        def nbytes(value):
            if isinstance(value, np.ndarray):
                return value.nbytes
            return sum(map(nbytes, value)) if isinstance(value, tuple) else 0

        for g in (make_grid(2, 16), make_grid(3, 8)):
            g.weight(0.5)  # the weight cache is not counted
            tables = {name for name, v in vars(g).items() if name != "_weights" and nbytes(v)}
            assert tables == {"k2", "box_keff", "box_k2eff_safe"}
            held = sum(nbytes(v) for name, v in vars(g).items() if name != "_weights")
            box = nbytes(g.box_keff) + g.box_k2eff_safe.nbytes
            assert held == g.k2.nbytes + box
            assert all(kd.dtype == np.float64 for kd in g.box_keff)

    def test_zero_field_takes_no_memory(self):
        for g in (make_grid(2, 16), make_grid(3, 8)):
            c = zero_field(g).coeffs
            assert c.shape == (g.dim,) + g.spec_shape and c.dtype == np.complex128
            assert not c.flags.writeable and set(c.strides) == {0}
            assert not c.any()

    def test_divergence_guard_allocates_nothing_for_zero_field(self):
        # the wave solve checks its data (u0, zero u1); the zero field must
        # cost no full-size temporary (it cost 2.1 and 1.5 field sizes here)
        for g in (make_grid(2, 32), make_grid(3, 16)):
            f = random_divergence_free_field(g, 3)
            require_divergence_free("guard", [f, zero_field(g)])
            units = site_peak_units(lambda: require_divergence_free("guard", [zero_field(g)]), (), f.coeffs.nbytes)
            assert units["run"] < 0.1
