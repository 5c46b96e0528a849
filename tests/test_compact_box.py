"""The nonlinear path on the compact 2/3-rule box.

The convection kernel and both steppers run on the compact box and touch
the full half spectrum only for the transforms and the linear propagation.
The oracles below are the full-array formulas they replace: the 2/3 mask
applied before and after the products, whole ``numpy.fft`` n-D transforms,
Leray and the stage arithmetic over the whole half spectrum.  They form the
kernel's trace-free products in the kernel's order.  The compact path must
reproduce them exactly (``np.array_equal``), not just to rounding, so that
every output of the program stays byte-identical.  The trace-free products
themselves are checked against all the products u_i u_j to rounding.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypns.diagnostics import make_energy_report, trilinear_ratio
from hypns.experiments import ExperimentConfig, run_convergence
from hypns.initial_data import random_divergence_free_field
from hypns.nlw import WaveState, _NlwStepper, _propagator_entries, _WaveTables
from hypns.ns import _NsStepper, dt_v
from hypns.spectral import (
    SpectralField,
    _box_forcing,
    _box_irfftn,
    _box_rfftn,
    _leray_full,
    box_add,
    box_gather,
    hs_inner,
    make_grid,
    sobolev_norm,
)

from conftest import (
    box_scatter,
    dealias_mask,
    grid_ik,
    grid_shapes,
    property_settings,
    random_real_field,
    site_peak_units,
    unguarded_convection,
)


def trace_free_products(vals):
    """The entries i <= j of u (x) u - u_d^2 I, d the last component, but
    the zero (d, d), in the kernel's order: row by row, each diagonal entry
    (u_i - u_d)(u_i + u_d) after its row's off-diagonal ones."""
    d = len(vals) - 1
    for i in range(d):
        for j in range(i + 1, d + 1):
            yield i, j, vals[i] * vals[j]
        yield i, i, (vals[i] - vals[d]) * (vals[i] + vals[d])


def all_products(vals):
    """Every entry i <= j of u (x) u."""
    for i in range(len(vals)):
        for j in range(i, len(vals)):
            yield i, j, vals[i] * vals[j]


def full_tensor_divergence(g, c, products=trace_free_products):
    """Masked input, one batched inverse transform, one forward transform
    per product, derivatives over the whole half spectrum, masked output."""
    axes = tuple(range(1, g.dim + 1))
    masked = c * dealias_mask(g)
    masked /= g.fwd_scale
    vals = np.fft.irfftn(masked, s=g.shape, axes=axes)
    ik = grid_ik(g)
    out = np.zeros_like(c)
    for i, j, prod in products(vals):
        tij = np.fft.rfftn(prod)
        tij *= g.fwd_scale
        out[i] += ik[j] * tij
        if j != i:
            out[j] += ik[i] * tij
    out *= dealias_mask(g)
    return out


def full_buffer_box_convection(g, b, products=trace_free_products):
    """The box kernel with its inverse transform on a zero-filled buffer of
    the whole half spectrum, last-axis columns c+1..n/2 included, whole n-D
    transforms, and the projection over the whole half spectrum."""
    spec = np.zeros((g.dim,) + g.spec_shape, dtype=np.complex128)
    for full, box in g.box_blocks:
        np.divide(b[box], g.fwd_scale, out=spec[full])
    vals = np.fft.irfftn(spec, s=g.shape, axes=tuple(range(1, g.dim + 1)))
    out = np.zeros_like(b)
    for i, j, prod in products(vals):
        tij = box_gather(g, np.fft.rfftn(prod))
        tij *= g.fwd_scale
        out[i] += (1j * g.box_keff[j]) * tij
        if j != i:
            out[j] += (1j * g.box_keff[i]) * tij
    return full_leray(g, box_scatter(g, out))


def full_leray(g, c):
    c = c.copy()
    k2eff = sum(k * k for k in g.keff)
    kdotc = g.keff[0] * c[0]
    for i in range(1, g.dim):
        kdotc += g.keff[i] * c[i]
    kdotc /= np.where(k2eff > 0, k2eff, 1.0)
    for i in range(g.dim):
        c[i] -= g.keff[i] * kdotc
    return c


def full_convection(g, c):
    return full_leray(g, full_tensor_divergence(g, c))


def full_ns_step(g, dt, c):
    """Integrating-factor RK4 with every stage on the whole half spectrum."""
    e, e2 = np.exp(-g.k2 * dt), np.exp(-g.k2 * (dt / 2.0))
    a = -full_convection(g, c)
    b = -full_convection(g, e2 * (c + (dt / 2.0) * a))
    d = -full_convection(g, e2 * c + (dt / 2.0) * b)
    h = -full_convection(g, e * c + dt * (e2 * d))
    return e * c + (dt / 6.0) * (e * a + 2.0 * e2 * (b + d) + h)


def full_duhamel_u(g, p11):
    """The Duhamel weight (1 - P11)/k2 of the u slot over the whole half
    spectrum, 0 on the zero mode."""
    cu = (1.0 - p11) / np.where(g.k2 > 0, g.k2, 1.0)
    cu[g.k2 == 0] = 0.0
    return cu


def full_nlw_step(g, eps, dt, u, w):
    """Exponential midpoint rule with the forcing over the whole half spectrum."""
    end, mid = _WaveTables(g.k2, eps, dt), _WaveTables(g.k2, eps, dt / 2.0)
    n0 = -full_convection(g, u)
    u_mid = mid.p11 * u + mid.p12 * w + full_duhamel_u(g, mid.p11) * n0
    n_mid = -full_convection(g, u_mid)
    u_end = end.p11 * u + end.p12 * w + full_duhamel_u(g, end.p11) * n_mid
    return u_end, end.p21 * u + end.p22 * w + (end.p12 / eps) * n_mid


class TestBoxLayout:
    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1))
    def test_scatter_of_gather_is_masked_input(self, shape, seed):
        g, f, _ = random_real_field(*shape, seed)
        b = box_gather(g, f.coeffs)
        assert b.shape == (g.dim,) + g.box_shape
        assert np.array_equal(box_scatter(g, b), f.coeffs * dealias_mask(g))

    def test_compact_layout(self):
        for g in (make_grid(2, 8), make_grid(2, 64), make_grid(3, 8), make_grid(3, 16)):
            c = g.dealias_cutoff
            assert len(g.box_blocks) == 2 ** (g.dim - 1)
            assert g.box_shape == (2 * c + 1,) * (g.dim - 1) + (c + 1,)
            # compact wavenumbers run 0..c, -c..-1 on the first axes, 0..c on the last
            for ax, k in enumerate(box_gather(g, kk) for kk in g.k):
                line = np.moveaxis(k, ax, 0)[(slice(None),) + (0,) * (g.dim - 1)]
                want = np.arange(c + 1) if ax == g.dim - 1 else np.r_[0 : c + 1, -c:0]
                assert np.array_equal(line, want)


    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 128), (3, 8), (3, 32)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_box_add_matches_scatter_then_add(self, dim, n, weighted):
        g, f, _ = random_real_field(dim, n, 5)
        _, h, _ = random_real_field(dim, n, 6)
        b = box_gather(g, h.coeffs)
        weight = box_gather(g, np.exp(-g.k2 * 1e-2)) if weighted else None
        want = f.coeffs + box_scatter(g, b if weight is None else weight * b)
        assert np.array_equal(box_add(g, f.coeffs.copy(), b, weight), want)


class TestPrunedPasses:
    # even n from 8 to 40 gives the cutoff c = (n-1)//3 both parities
    @property_settings
    @given(
        dim=st.sampled_from([2, 3]),
        n=st.integers(4, 20).map(lambda m: 2 * m),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=2, n=8, seed=0)
    @example(dim=3, n=40, seed=0)
    def test_pruned_passes_match_whole_transforms(self, dim, n, seed):
        g = make_grid(dim, n)
        axes = tuple(range(1, dim + 1))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((dim,) + g.shape)
        assert np.array_equal(_box_rfftn(g, x[0]), box_gather(g, np.fft.rfftn(x[0])))
        assert np.array_equal(_box_rfftn(g, x), box_gather(g, np.fft.rfftn(x, axes=axes)))
        b = rng.standard_normal((dim,) + g.box_shape) + 1j * rng.standard_normal((dim,) + g.box_shape)
        want = np.fft.irfftn(box_scatter(g, b), s=g.shape, axes=axes)
        assert np.array_equal(_box_irfftn(g, b), want)


class TestExactEquivalence:
    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1))
    def test_kernels_match_full_mask_formulas(self, shape, seed):
        g, f, _ = random_real_field(*shape, seed)
        td = full_tensor_divergence(g, f.coeffs)
        assert np.array_equal(_leray_full(g, td.copy()), full_leray(g, td))
        assert np.array_equal(unguarded_convection(g, f.coeffs), full_convection(g, f.coeffs))

    # n = 8 has box columns 0..2 of the half spectrum's 0..4
    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1))
    @example(shape=(2, 8), seed=0)
    @example(shape=(3, 8), seed=0)
    def test_narrow_inverse_buffer_matches_full_buffer(self, shape, seed):
        g, f, _ = random_real_field(*shape, seed)
        got = box_scatter(g, _box_forcing(g, box_gather(g, f.coeffs)))
        assert np.array_equal(got, -full_buffer_box_convection(g, box_gather(g, f.coeffs)))

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1))
    @example(shape=(2, 8), seed=0)
    @example(shape=(3, 8), seed=0)
    def test_dt_v_matches_full_subtraction(self, shape, seed):
        g, f, _ = random_real_field(*shape, seed)
        got = dt_v(f).coeffs
        assert not got.flags.writeable
        assert np.array_equal(got, -g.k2 * f.coeffs - unguarded_convection(g, f.coeffs))

    # Dropping u_d^2 I drops the gradient of u_d^2 from the divergence, which
    # the projection removes to rounding.  Measured on 40 seeds per grid, of
    # random and of divergence-free fields: at most 8.1e-16 of the largest
    # coefficient.
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [16, 18, 32])
    def test_trace_free_kernel_matches_all_products(self, dim, n):
        for seed in range(10):
            g, f, _ = random_real_field(dim, n, seed)
            b = box_gather(g, f.coeffs)
            want = -box_gather(g, full_buffer_box_convection(g, b, all_products))
            assert np.max(np.abs(_box_forcing(g, b) - want)) <= 2e-15 * np.max(np.abs(want))

    # The trilinear pairing reads the projected kernel: for a divergence-free
    # f, <f, P g> = <f, g> mode by mode.  The pairing is a sum that cancels
    # (ratios down to 9.2e-7 here), so its rounding is measured against its
    # Cauchy-Schwarz bound ||f|| ||g|| at H^(1/2): at most 2.9e-17 of it on
    # the first 100 fields of criterion 8, though 1.6e-13 of the ratio.
    @pytest.mark.parametrize("n", [16, 32])
    def test_trilinear_ratio_matches_unprojected_oracle(self, n):
        g = make_grid(3, n)
        for i in range(100):
            f = random_divergence_free_field(g, 4001 + 1009 * n + i, band=g.dealias_cutoff, slope=3.0)
            td = SpectralField(g, full_tensor_divergence(g, f.coeffs, all_products))
            denom = sobolev_norm(f, 0.5) * sobolev_norm(f, 1.5) ** 2
            want = abs(hs_inner(f, td, 0.5)) / denom
            bound = sobolev_norm(f, 0.5) * sobolev_norm(td, 0.5) / denom
            assert abs(trilinear_ratio(f) - want) <= 1e-14 * bound

    @property_settings
    @given(shape=grid_shapes, seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-4, 2e-2))
    def test_ns_step_matches_full_stages(self, shape, seed, dt):
        g, f, _ = random_real_field(*shape, seed)
        assert np.array_equal(_NsStepper(g, dt).step(f.coeffs), full_ns_step(g, dt, f.coeffs))

    @property_settings
    @given(
        shape=grid_shapes,
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(1e-3, 1.0),
        dt=st.floats(1e-4, 2e-2),
    )
    def test_nlw_step_matches_full_forcing(self, shape, seed, eps, dt):
        g, f, _ = random_real_field(*shape, seed)
        _, h, _ = random_real_field(*shape, seed + 1)
        got = _NlwStepper(g, eps, dt).step((f.coeffs, h.coeffs))
        want = full_nlw_step(g, eps, dt, f.coeffs, h.coeffs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    # The stepper evaluates its mid-step entries on the box's wavenumbers
    # only; numpy's exp, sin and cos must give the same bits there as on the
    # whole half spectrum.  eps from 1 to 2.5e-4 and dt from 5e-5 to 5e-3
    # reach the series, oscillating and real-root branches.
    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 128), (3, 8), (3, 32)])
    def test_box_propagator_matches_gathered_full_table(self, dim, n):
        g = make_grid(dim, n)
        k2 = box_gather(g, g.k2)
        branches = set()
        for eps in (1.0, 0.1, 1e-2, 1e-3, 2.5e-4):
            for dt in (5e-5, 1e-4, 1e-3, 2.5e-3, 5e-3):
                z2 = (1.0 - 4.0 * eps * k2) * (dt / (2.0 * eps)) ** 2
                branches.update(np.where(np.abs(z2) <= 1e-4, 0, np.sign(z2)).ravel().tolist())
                box = _propagator_entries(eps, k2, dt)
                for whole, part in zip(_propagator_entries(eps, g.k2, dt), box):
                    assert np.array_equal(box_gather(g, whole), part)
        assert branches == {-1, 0, 1}


# Peak traced allocation of one step on 3D n=16, in units of one
# (dim, *spec_shape) complex array, measured on the full-array steppers
# these replace (stepper tables built beforehand and excluded).
FULL_ARRAY_PEAK_UNITS = {"ns": 9.19, "nlw": 7.02}
# The same for the wave step as it is: measured 3.33; 3.65 while the step
# held its compact midpoint value over the end propagation, and 4.65 while
# the end propagation accumulated through a temporary of the whole field
# rather than of one component.
NLW_STEP_PEAK_UNITS = 3.4


def test_step_allocation_peak_not_above_full_array_steppers():
    g = make_grid(3, 16)
    c = random_divergence_free_field(g, 3).coeffs
    # the steppers and their arguments are built outside the traced call
    ns_step, nlw_step, wave = _NsStepper(g, 1e-3).step, _NlwStepper(g, 0.01, 1e-3).step, (c, 0.5 * c)
    ns = site_peak_units(lambda: ns_step(c), (), c.nbytes)["run"]
    nlw = site_peak_units(lambda: nlw_step(wave), (), c.nbytes)["run"]
    assert ns <= FULL_ARRAY_PEAK_UNITS["ns"]
    assert nlw <= FULL_ARRAY_PEAK_UNITS["nlw"]
    assert nlw <= NLW_STEP_PEAK_UNITS


# Peak traced allocation of a warm ``run_convergence`` on the converge_3d
# workload's config at n=16 and T=0.2 (3 eps, dt=5e-3, stride 10, five
# samples per solve), in the same units.  Measured 12.15; 12.47 (bound
# 12.6) while the grid stored the complex derivative tables i box_keff,
# the kernel's forward transform held each pass's input beside its
# compact output and the report formed its modulated density beside its
# difference u - v; 12.78 (bound 12.9) while the sup norm's inverse
# transform held two pass outputs
# beside its scaled copy and the wave step held its midpoint value over
# the end propagation; 14.27 (bound 14.8) while the wave run held its data u0 over every step of the solve
# and the grid kept a weight table for every sigma ever asked; 17.79
# while the grid stored every full spectral table, the zero ``u1`` of the
# wave data was a materialised array and the end propagation accumulated
# through a full-field temporary; 20.15 while the solves also held the
# last sample over the steps to the next, and 20.47 when sample states
# also copied the step arrays, ``dt_v`` scattered the convection over a
# full array and the kernel's inverse transform buffer spanned the half
# spectrum.
RUN_PEAK_UNITS = 12.25

# The calls of the run that have set its peak, as its callers look them up.
RUN_PEAK_SITES = (
    "experiments.make_energy_report",
    "diagnostics.linf_norm",
    "experiments.hs_inner",
    "experiments.dt_v",
    "ns._NsStepper.step",
    "nlw._NlwStepper.step",
    "nlw._box_forcing",
    "nlw._WaveTables.apply",
    "nlw.energy",
)


def test_convergence_run_allocation_peak():
    cfg = ExperimentConfig(
        dim=3, n=16, s=0.5, delta=0.5, eps_list=[1e-1, 1e-2, 1e-3], T=0.2, dt=5e-3,
        seed=2, amplitude=0.05, sample_stride=10,
    )
    g = make_grid(3, 16)
    unit = 3 * np.prod(g.spec_shape) * 16
    units = site_peak_units(lambda: run_convergence(cfg), (), unit)["run"]
    if units > RUN_PEAK_UNITS:
        sites = site_peak_units(lambda: run_convergence(cfg), RUN_PEAK_SITES, unit)
        ranked = "\n".join(f"  {name}: {peak:.2f}" for name, peak in sites.items())
        pytest.fail(f"run peak {units:.2f} units above {RUN_PEAK_UNITS}; peaks by site:\n{ranked}")


# Peak traced allocation of one ``make_energy_report`` with a reference
# field on 3D n=16, in the same units, on a new state per call so that the
# state's energy density is built inside the trace.  Measured 2.18; 3.02
# (bound 3.1) while the modulated density's sum u - v + eps u_t was a
# second field-sized array beside the difference u - v; 3.34 while the
# sup norm's inverse transform held two pass outputs beside its scaled
# copy.
REPORT_PEAK_UNITS = 2.25


def test_energy_report_allocation_peak():
    g = make_grid(3, 16)
    u, ut, v = (random_divergence_free_field(g, seed) for seed in (3, 4, 5))

    def report():
        return make_energy_report(WaveState(u, ut, 0.01), 0.5, v=v)

    units = site_peak_units(report, (), u.coeffs.nbytes)["run"]
    assert units <= REPORT_PEAK_UNITS
