import math

import mpmath as mp
import numpy as np
import pytest

from hypns.diagnostics import energy
from hypns.initial_data import random_divergence_free_field, taylor_green
from hypns import nlw
from hypns.nlw import (
    WaveState,
    _propagator_entries,
    linear_propagate,
    nlw_solve,
    propagate_mode,
)
from hypns.ns import SolverFailure, ns_solve
from hypns.spectral import SpectralField, inverse_transform, l2_norm, linf_norm, make_grid, sobolev_norm, zero_field

from conftest import (
    POISON,
    assert_samples_own_arrays,
    count_field_copies,
    oracle_mode,
    poison_from_step,
    rescale,
    with_nan,
)


def propagator(eps, k2, dt):
    """The entries (p11, p12, p21, p22) of exp(dt A) for one mode."""
    return tuple(float(p[0]) for p in _propagator_entries(eps, np.asarray([k2]), dt))


class TestModeRoots:
    """The characteristic roots lam+- of eps z^2 + z + k2 = 0 as the solver's
    propagator exp(dt A) realises them: its eigenvalues are exp(lam+- dt), so
    its trace is exp(lam+ dt) + exp(lam- dt) and its determinant
    exp((lam+ + lam-) dt) = exp(-dt/eps)."""

    def test_double_root(self):
        # eps = 1/8, k2 = 2: lam = -4 twice, exp(dt A) = exp(-4 dt) (I + dt (A + 4 I))
        dt = 0.1
        p11, p12, p21, p22 = propagator(1.0 / 8.0, 2.0, dt)
        e = math.exp(-4.0 * dt)
        want = (e * (1.0 + 4.0 * dt), e * dt, -16.0 * e * dt, e * (1.0 - 4.0 * dt))
        assert all(abs(got - w) <= 1e-15 * abs(w) for got, w in zip((p11, p12, p21, p22), want))

    def test_complex_pair(self):
        # eps = k2 = 1: lam = -1/2 +- i sqrt(3)/2
        dt = 0.7
        p11, p12, p21, p22 = propagator(1.0, 1.0, dt)
        assert abs(p11 + p22 - 2.0 * math.exp(-dt / 2.0) * math.cos(math.sqrt(3) / 2.0 * dt)) < 1e-14
        assert abs(p11 * p22 - p12 * p21 - math.exp(-dt)) < 1e-14

    def test_parabolic_limit(self):
        # exp(lam- dt) underflows, so the trace is exp(lam+ dt) alone
        eps, k2, dt = 1e-6, 1.0, 1.0
        p11, _, _, p22 = propagator(eps, k2, dt)
        lam_plus = math.log(p11 + p22) / dt
        assert abs(lam_plus + k2) <= 2.2 * eps * k2**2

    def test_rejects_bad_eps(self):
        g = make_grid(2, 16)
        f = zero_field(g)
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError):
                WaveState(f, f, eps)
            with pytest.raises(ValueError):
                nlw_solve(f, f, eps, 0.1, dt=0.01)

    @pytest.mark.parametrize("seed", range(4))
    def test_sum_and_product(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            eps = 10 ** rng.uniform(-6, 1)
            k2 = 10 ** rng.uniform(-1, 4)
            dt = eps * 10 ** rng.uniform(-2, 0.5)
            p11, p12, p21, p22 = propagator(eps, k2, dt)
            disc = mp.sqrt(mp.mpc(1 - 4 * mp.mpf(eps) * mp.mpf(k2)))
            ep, em = (mp.exp((-1 + r) / (2 * mp.mpf(eps)) * dt) for r in (disc, -disc))
            assert abs(p11 + p22 - float(mp.re(ep + em))) <= 1e-10 * float(abs(ep) + abs(em))
            det = float(mp.exp(-dt / mp.mpf(eps)))
            assert abs(p11 * p22 - p12 * p21 - det) <= 1e-10 * det


class TestLinearPropagate:
    def test_identity_at_zero(self):
        g = make_grid(2, 16)
        st = WaveState(random_divergence_free_field(g, 1), random_divergence_free_field(g, 2), 0.3, 0.0)
        assert linear_propagate(st, 0.0) is st

    def test_damped_oscillator_closed_form(self):
        u, _ = propagate_mode(1.0, 1.0, 1.0, 1.0, 0.0)
        w = math.sqrt(3) / 2.0
        expect = math.exp(-0.5) * (math.cos(w) + math.sin(w) / math.sqrt(3))
        assert abs(u - expect) < 1e-14

    def test_group_property(self):
        g = make_grid(2, 16)
        st = WaveState(random_divergence_free_field(g, 3), random_divergence_free_field(g, 4), 0.05, 0.0)
        one = linear_propagate(linear_propagate(st, 0.3), 0.5)
        two = linear_propagate(st, 0.8)
        scale = max(np.max(np.abs(two.u.coeffs)), np.max(np.abs(two.ut.coeffs)))
        assert np.max(np.abs(one.u.coeffs - two.u.coeffs)) < 1e-11 * scale
        assert np.max(np.abs(one.ut.coeffs - two.ut.coeffs)) < 1e-11 * scale

    def test_thousand_random_triples_vs_oracle(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(1000):
            eps = 10 ** rng.uniform(-6, 1)
            k2 = 10 ** rng.uniform(-1, 4)
            if trial % 5 == 0:  # straddle the double-root locus 4 eps k2 = 1
                k2 = (1.0 - rng.choice([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-5])) / (4 * eps)
            dt = 10 ** rng.uniform(-4, 0)
            u0, u1 = rng.standard_normal(2)
            u_n, ut_n = propagate_mode(eps, k2, dt, u0, u1)
            u_o, ut_o = oracle_mode(eps, k2, dt, u0, u1)
            scale = max(abs(u_o), abs(ut_o), 1e-30)
            worst = max(worst, max(abs(u_n - u_o), abs(ut_n - ut_o)) / scale)
        assert worst <= 1e-10


class TestNlwStep:
    def test_zero_state(self):
        g = make_grid(2, 16)
        st = nlw_solve(zero_field(g), zero_field(g), 0.1, 1e-3, dt=1e-3)
        assert l2_norm(st.u) == 0.0

    def test_taylor_green_follows_linear_modes(self):
        g = make_grid(2, 32)
        tg = taylor_green(g)
        eps, T, dt = 0.05, 1.0, 1e-3
        st = nlw_solve(tg, 0.0 * tg, eps, T, dt=dt)
        amp, ampt = oracle_mode(eps, 2.0, T, 1.0, 0.0)
        assert np.max(np.abs(st.u.coeffs - amp.real * tg.coeffs)) <= 1e-8
        assert np.max(np.abs(st.ut.coeffs - ampt.real * tg.coeffs)) <= 1e-8

    def test_self_convergence_order(self):
        g = make_grid(2, 32)
        u0 = random_divergence_free_field(g, 42, band=8) * 0.8
        T, eps = 0.1, 1e-3
        sols = [nlw_solve(u0, 0.0 * u0, eps, T, dt=T / m) for m in (16, 32, 64)]
        e1 = l2_norm(sols[0].u - sols[1].u)
        e2 = l2_norm(sols[1].u - sols[2].u)
        assert np.log2(e1 / e2) >= 1.8


class TestNlwSolve:
    def test_zero_horizon(self):
        g = make_grid(2, 16)
        u0 = random_divergence_free_field(g, 1)
        st = nlw_solve(u0, zero_field(g), 0.1, 0.0, dt=1e-3)
        assert st.t == 0.0 and st.u is u0

    def test_eps_consistency_with_ns(self):
        g = make_grid(2, 32)
        v0 = random_divergence_free_field(g, 3)
        vT = ns_solve(v0, 0.5, dt=1e-3)
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            u0 = v0
            st = nlw_solve(u0, 0.0 * u0, eps, 0.5, dt=1e-3)
            errs.append(l2_norm(st.u - vT.v))
        assert errs[0] > errs[1] > errs[2]

    def test_blowup_raises_solver_failure(self, monkeypatch):
        g = make_grid(2, 16)
        u0 = random_divergence_free_field(g, 4)
        monkeypatch.setattr(nlw, "BLOWUP_FACTOR", 1.0 + 1e-12)
        # energy decays, so an absurdly tight ceiling never fires ...
        assert nlw_solve(u0, zero_field(g), 0.1, 0.5, dt=1e-2).t == 0.5
        # ... but a ceiling below the initial energy does, at the first sample after 0
        monkeypatch.setattr(nlw, "BLOWUP_FACTOR", 0.5)
        seen = []
        with pytest.raises(SolverFailure, match="energy blow-up") as exc:
            nlw_solve(u0, zero_field(g), 0.1, 0.5, dt=1e-2, observer=lambda st: seen.append(st.t))
        assert exc.value.t == 1e-2
        # the sample that trips the monitor is not observed
        assert seen == [0.0]

    def test_samples_hold_the_step_arrays(self, monkeypatch):
        g = make_grid(2, 16)
        u0 = random_divergence_free_field(g, 13, band=4)
        u1 = random_divergence_free_field(g, 14, band=4)
        copies = count_field_copies(monkeypatch)
        samples, copies_at_start = [], []

        def observer(st):
            if st.t == 0.0:
                copies_at_start.append(len(copies))
            samples.extend((f, f.coeffs.copy()) for f in (st.u, st.ut))

        nlw_solve(u0, u1, 0.1, 0.05, dt=0.005, observer=observer, stride=3)
        assert len(samples) == 2 * 5 and len(copies) == copies_at_start[0]
        assert_samples_own_arrays(samples)

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_zero_stride_u1_matches_materialised_zeros(self, dim, n):
        g = make_grid(dim, n)
        u0 = random_divergence_free_field(g, 15, band=3)
        dense = SpectralField(g, np.zeros((dim,) + g.spec_shape, dtype=np.complex128))
        runs = []
        for u1 in (zero_field(g), dense):
            seen = []
            nlw_solve(u0, u1, 0.05, 0.1, dt=5e-3, stride=4,
                      observer=lambda st: seen.append((st.t, st.u.coeffs, st.ut.coeffs)))
            runs.append(seen)
        assert len(runs[0]) == len(runs[1]) == 6
        for (t, u, ut), (t_d, u_d, ut_d) in zip(*runs):
            assert t == t_d and np.array_equal(u, u_d) and np.array_equal(ut, ut_d)

    @pytest.mark.parametrize("inside_box", [True, False])
    @pytest.mark.parametrize("slot", ["u0", "u1"])
    def test_rejects_non_finite_data(self, slot, inside_box):
        # a NaN must fail the guard, not reach the observer at t=0
        u0 = random_divergence_free_field(make_grid(2, 16), 3)
        data = {"u0": u0, "u1": 0.5 * u0}
        data[slot] = with_nan(data[slot], inside_box)
        seen = []
        with pytest.raises(ValueError, match="finite"):
            nlw_solve(data["u0"], data["u1"], 0.1, 0.1, dt=1e-2, observer=seen.append)
        assert seen == []

    def test_non_finite_step_raises_at_next_sample(self, monkeypatch):
        poison_from_step(monkeypatch, nlw, 2, POISON.step)
        u0 = random_divergence_free_field(make_grid(2, 16), 12)
        seen = []

        def obs(st):
            assert np.all(np.isfinite(st.u.coeffs)) and np.all(np.isfinite(st.ut.coeffs))
            seen.append(st.t)

        with pytest.raises(SolverFailure) as exc:
            nlw_solve(u0, zero_field(u0.grid), 0.1, POISON.T, dt=POISON.dt, observer=obs, stride=POISON.stride)
        assert exc.value.t == POISON.fail_t
        assert seen == POISON.clean_times

    def test_base_energy_monotone_under_threshold(self):
        g = make_grid(2, 32)
        u0 = random_divergence_free_field(g, 5, band=8) * 0.5
        eps = 0.05
        vals = []

        def obs(st):
            assert linf_norm(st.u) < 0.5 / math.sqrt(eps)
            vals.append(energy(st, 0.0))

        nlw_solve(u0, 0.0 * u0, eps, 0.5, dt=1e-3, observer=obs, stride=1)
        tol = 1e-8 * vals[0]
        assert all(b <= a + tol for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_base_energy_monotone_small_data_3d(self, eps):
        # 3D data below the critical size 1/16 in H^(1/2) keep the H^(1/2)
        # energy non-increasing
        g = make_grid(3, 16)
        u0 = random_divergence_free_field(g, 5, band=4)
        u0 = u0 * (0.05 / sobolev_norm(u0, 0.5))
        vals = []
        nlw_solve(u0, 0.0 * u0, eps, 0.5, dt=5e-3, observer=lambda st: vals.append(energy(st, 0.5)), stride=1)
        tol = 1e-8 * vals[0]
        assert all(b <= a + tol for a, b in zip(vals, vals[1:]))


def embed(f, grid):
    """``f`` on the finer ``grid``: each coefficient moved to the same
    integer wavenumber."""
    idx = tuple(k.astype(np.int64) % grid.n for k in f.grid.k)
    c = np.zeros((grid.dim,) + grid.spec_shape, dtype=np.complex128)
    c[(slice(None),) + idx] = f.coeffs
    return SpectralField(grid, c)


class TestSpatialConvergence:
    # largest difference of a band mode from the n = 128 run at T, measured
    # 1.95e-8, 1.59e-13 and 2.6e-18 on band coefficients up to 0.085
    BOUNDS = {32: 4e-8, 48: 4e-13, 64: 1e-15}

    def test_band_modes_converge_with_n(self):
        band = 6
        f = 2.0 * random_divergence_free_field(make_grid(2, 32), 1, band=band)
        low = np.r_[0 : band + 1, -band:0]
        ends = {}
        for n in (32, 48, 64, 128):
            g = make_grid(2, n)
            u = nlw_solve(embed(f, g), zero_field(g), 0.05, 0.5, dt=1e-3).u.coeffs
            ends[n] = u[:, low % n, : band + 1]
        diffs = {n: float(np.max(np.abs(ends[n] - ends[128]))) for n in (32, 48, 64)}
        assert diffs[32] > diffs[48] > diffs[64]
        assert all(diffs[n] <= bound for n, bound in self.BOUNDS.items())


class TestRescale:
    def test_eps_one_identity(self):
        g = make_grid(2, 16)
        st = WaveState(random_divergence_free_field(g, 1), zero_field(g), 1.0, 0.3)
        assert rescale(st, "to_unit") is st

    def test_lattice_incompatible_rejected(self):
        g = make_grid(2, 16)
        st = WaveState(random_divergence_free_field(g, 1), zero_field(g), 0.3, 0.0)
        with pytest.raises(ValueError, match="lattice-incompatible"):
            rescale(st, "to_unit")

    def test_mode_dilation_and_amplitude(self):
        g = make_grid(2, 32)
        c = np.zeros((2,) + g.spec_shape, dtype=np.complex128)
        c[1][1, 0] = 0.5
        c[1][-1, 0] = 0.5
        f = SpectralField(g, c)
        st = rescale(WaveState(f, zero_field(g), 1.0, 1.0), "from_unit", eps=0.25)
        assert st.eps == 0.25
        assert st.t == 0.25  # eps-world clock runs a factor 1/eps slower
        assert abs(st.u.coeffs[1][2, 0] - 1.0) < 1e-15  # amplitude x2 at mode (2,0)
        assert np.max(np.abs(st.u.coeffs[1][1, 0])) == 0.0

    def test_initial_data_relation(self):
        # u0(x) = sqrt(eps) u0_eps(sqrt(eps) x), i.e. pointwise
        # u0_eps(x_i) = m u0(x_(m i mod n)) with m = 1/sqrt(eps)
        g = make_grid(2, 32)
        u_unit = random_divergence_free_field(g, 7, band=3)
        eps, m = 0.25, 2
        down = rescale(WaveState(u_unit, zero_field(g), 1.0, 0.0), "from_unit", eps=eps)
        vals_eps = inverse_transform(down.u)
        vals_unit = inverse_transform(u_unit)
        idx = (m * np.arange(g.n)) % g.n
        assert np.allclose(vals_eps, m * vals_unit[:, idx][:, :, idx], atol=1e-12)

    def test_round_trip(self):
        g = make_grid(2, 32)
        u0 = random_divergence_free_field(g, 8, band=3)
        u1 = random_divergence_free_field(g, 9, band=3) * 0.4
        unit = WaveState(u0, u1, 1.0, 0.7)
        down = rescale(unit, "from_unit", eps=0.25)
        back = rescale(down, "to_unit")
        assert np.max(np.abs(back.u.coeffs - unit.u.coeffs)) < 1e-12
        assert np.max(np.abs(back.ut.coeffs - unit.ut.coeffs)) < 1e-12
        assert abs(back.t - unit.t) < 1e-15

    def test_out_of_range_rejected(self):
        g = make_grid(2, 16)
        f = random_divergence_free_field(g, 10)  # full-band content
        with pytest.raises(ValueError, match="range"):
            rescale(WaveState(f, zero_field(g), 1.0, 0.0), "from_unit", eps=0.25)

    def test_nyquist_content_rejected(self):
        # k = (2, n/2) lies on the 2-divisible sublattice, but the sign of
        # n/2 is undefined, so the mode has no image under contraction
        g = make_grid(2, 16)
        c = np.zeros((2,) + g.spec_shape, dtype=np.complex128)
        c[0][2, g.n // 2] = 0.3
        st = WaveState(SpectralField(g, c), zero_field(g), 0.25, 0.0)
        with pytest.raises(ValueError, match="Nyquist"):
            rescale(st, "to_unit")

    def test_scaling_equivalence_two_mode(self):
        # solving at eps then lifting equals lifting data then solving the
        # unit-parameter system with dt/eps
        g = make_grid(2, 32)
        c = np.zeros((2,) + g.spec_shape, dtype=np.complex128)
        c[1][1, 0] = 0.4
        c[1][-1, 0] = 0.4
        # mode (1, 1); its partner (-1, -1) is implied by conjugate symmetry
        a = 0.3 / math.sqrt(2)
        c[0][1, 1] = a
        c[1][1, 1] = -a
        f = SpectralField(g, c)
        unit = WaveState(f, 0.2 * f, 1.0, 0.0)
        eps = 0.25
        down = rescale(unit, "from_unit", eps=eps)
        T, dt = 0.2, 1e-3
        direct = nlw_solve(down.u, down.ut, eps, T, dt=dt)
        lifted = rescale(direct, "to_unit")
        ref = nlw_solve(unit.u, unit.ut, 1.0, T / eps, dt=dt / eps)
        assert np.max(np.abs(lifted.u.coeffs - ref.u.coeffs)) < 1e-6
        assert np.max(np.abs(lifted.ut.coeffs - ref.ut.coeffs)) < 1e-6
        assert abs(lifted.t - ref.t) < 1e-12
