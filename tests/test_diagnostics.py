import math

import numpy as np
import pytest

from hypns.diagnostics import (
    composite_scalar,
    dafermos_derivative_residuals,
    dafermos_energy,
    energy,
    energy_decay_audit,
    interpolation_ratios,
    make_energy_report,
    smallest_monotone_exponent,
    trilinear_ratio,
)
from hypns.initial_data import random_divergence_free_field, taylor_green
from hypns.nlw import WaveState, nlw_solve
from hypns.ns import ns_solve
from hypns.spectral import (
    l2_norm,
    make_grid,
    sobolev_norm,
    transform,
    zero_field,
)

from conftest import cell_volume, single_mode_field


def wave_state(grid, seed, eps, u_scale=1.0, ut_scale=1.0):
    u = random_divergence_free_field(grid, seed) * u_scale
    ut = random_divergence_free_field(grid, seed + 7919) * ut_scale
    return WaveState(u, ut, eps, 0.0)


class TestEnergy:
    def test_zero_state(self):
        g = make_grid(2, 16)
        st = WaveState(zero_field(g), zero_field(g), 0.1, 0.0)
        assert energy(st, 0.0) == 0.0

    def test_single_mode_hand_value(self):
        g = make_grid(2, 16)
        f = single_mode_field(g, (1, 0), (0.0, 1.0))
        f = f * (1.0 / l2_norm(f))
        st = WaveState(f, zero_field(g), 0.1, 0.0)
        assert abs(energy(st, 0.0) - 0.6) < 1e-12

    def test_half_bound_on_independent_states(self):
        rng = np.random.default_rng(77)
        grids = [make_grid(2, 16), make_grid(3, 8)]
        for i in range(200):
            g = grids[i % 2]
            sigma0 = 0.0 if g.dim == 2 else 0.5
            st = wave_state(g, 3 * i, 10 ** rng.uniform(-3, 0),
                            10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1))
            for sig in (sigma0, sigma0 + 0.5):
                assert energy(st, sig) >= 0.5 * sobolev_norm(st.u, sig) ** 2

    def test_quarter_bound_universal(self):
        # the sharp all-states constant is 1/4: reachable only with the
        # adversarial pairing ut = -u / (2 eps)
        g = make_grid(2, 16)
        u = single_mode_field(g, (1, 0), (0.0, 1.0))
        for eps in (1e-3, 1e-2, 0.3):
            st = WaveState(u, u * (-1.0 / (2.0 * eps)), eps, 0.0)
            e = energy(st, 0.0)
            n2 = l2_norm(u) ** 2
            assert e >= 0.25 * n2
            assert abs(e - (0.25 + eps) * n2) < 1e-12  # and nothing more


class TestComposite:
    def test_zero(self):
        g = make_grid(2, 16)
        st = WaveState(zero_field(g), zero_field(g), 0.1, 0.0)
        assert composite_scalar(energy(st, 0.5), energy(st, 0.0), 7) == 0.0

    def test_n_zero_reduces_to_energy(self):
        g = make_grid(2, 16)
        st = wave_state(g, 1, 0.1)
        assert composite_scalar(energy(st, 0.5), energy(st, 0.0), 0) == energy(st, 0.5)

    def test_log_consistency(self):
        g = make_grid(2, 16)
        st = wave_state(g, 2, 0.1)
        lhs = math.log(composite_scalar(energy(st, 0.5), energy(st, 0.0), 23))
        rhs = math.log(energy(st, 0.5)) + 23 * math.log1p(energy(st, 0.0))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_large_exponent_overflows_to_inf(self):
        assert composite_scalar(1.0, 1e6, 10**6) == math.inf


class TestDafermos:
    def test_matching_reference(self):
        g = make_grid(2, 16)
        u = random_divergence_free_field(g, 3)
        st = WaveState(u, zero_field(g), 0.2, 0.0)
        expect = 0.2 * sobolev_norm(u, 1.0) ** 2
        assert abs(dafermos_energy(st, u, 0.0) - expect) < 1e-12

    def test_zero_everything(self):
        g = make_grid(2, 16)
        st = WaveState(zero_field(g), zero_field(g), 0.2, 0.0)
        assert dafermos_energy(st, zero_field(g), 0.0) == 0.0

    def test_four_times_bound(self):
        rng = np.random.default_rng(5)
        grids = [make_grid(2, 16), make_grid(3, 8)]
        for i in range(200):
            g = grids[i % 2]
            sigma0 = 0.0 if g.dim == 2 else 0.5
            st = wave_state(g, 11 * i, 10 ** rng.uniform(-3, 0))
            v = random_divergence_free_field(g, 11 * i + 13) * 10 ** rng.uniform(-1, 1)
            gap = sobolev_norm(st.u - v, sigma0) ** 2
            assert gap <= 4.0 * dafermos_energy(st, v, sigma0)


class TestThreshold:
    def test_zero_field_ok(self):
        g = make_grid(2, 16)
        st = WaveState(zero_field(g), zero_field(g), 1e-4, 0.0)
        assert make_energy_report(st, 0.5).threshold_ok

    def test_arithmetic(self):
        from hypns.spectral import linf_norm

        g = make_grid(2, 16)
        u = random_divergence_free_field(g, 1)
        u = u * (50.0 / linf_norm(u))
        # ||u||_inf = 50 against the bounds 1/sqrt(eps) = 100 and 10
        ok_small_eps = make_energy_report(WaveState(u, zero_field(g), 1e-4, 0.0), 0.5)
        assert ok_small_eps.linf == linf_norm(u) and ok_small_eps.threshold_ok
        bad_big_eps = make_energy_report(WaveState(u, zero_field(g), 1e-2, 0.0), 0.5)
        assert bad_big_eps.linf == linf_norm(u) and not bad_big_eps.threshold_ok


class TestDafermosResidual:
    def test_zero_fields(self):
        g = make_grid(2, 16)
        z = zero_field(g)
        waves = [WaveState(z, z, 0.1, j * 0.01) for j in range(3)]
        recs = dafermos_derivative_residuals(waves, [z] * 3, 0.0)
        assert recs[0].residual == 0.0

    def test_taylor_green_h_squared(self):
        g = make_grid(2, 64)
        tg = taylor_green(g)
        eps = 0.05
        res = {}
        for h in (2e-3, 1e-3):
            waves, vs = [], []
            nlw_solve(tg, 0.0 * tg, eps, 0.4, dt=h, observer=waves.append, stride=1)
            ns_solve(tg, 0.4, dt=h, observer=lambda s: vs.append(s.v), stride=1)
            recs = dafermos_derivative_residuals(waves, vs, 0.0)
            res[h] = min(recs, key=lambda r: abs(r.t - 0.2)).residual
        assert 3.5 <= res[2e-3] / res[1e-3] <= 4.5

    @pytest.mark.parametrize("dim,n,sigma0,band", [(2, 32, 0.0, 6), (3, 16, 0.5, 4)])
    def test_generic_trajectory_h_squared(self, dim, n, sigma0, band):
        g = make_grid(dim, n)
        u0 = random_divergence_free_field(g, 5, band=band) * 0.7
        v0 = random_divergence_free_field(g, 9, band=band) * 0.7
        res = {}
        for h in (2e-3, 1e-3):
            waves, vs = [], []
            nlw_solve(u0, 0.0 * u0, 0.05, 0.08, dt=h, observer=waves.append, stride=1)
            ns_solve(v0, 0.08, dt=h, observer=lambda s: vs.append(s.v), stride=1)
            recs = dafermos_derivative_residuals(waves, vs, sigma0)
            res[h] = min(recs, key=lambda r: abs(r.t - 0.04)).residual
        assert 3.4 <= res[2e-3] / res[1e-3] <= 4.6

    def test_non_solution_reference_matches_defect_term(self):
        # freeze v at the vortex: the omitted reference-equation term is the
        # whole gap between dE/dt and the assembled terms
        g = make_grid(2, 64)
        tg = taylor_green(g)
        waves = []
        nlw_solve(tg, 0.0 * tg, 0.05, 1.0, dt=1e-3, observer=waves.append, stride=1)
        vs = [tg for _ in waves]
        recs = dafermos_derivative_residuals(waves, vs, 0.0)
        rec = min(recs, key=lambda r: abs(r.t - 0.8))
        assert rec.residual > 1.0  # genuinely nonzero
        assert abs(rec.residual - abs(rec.ns_term)) <= 1e-6 * max(1.0, abs(rec.ns_term))

    def test_nonuniform_spacing_rejected(self):
        g = make_grid(2, 16)
        z = zero_field(g)
        waves = [WaveState(z, z, 0.1, t) for t in (0.0, 0.01, 0.03)]
        with pytest.raises(ValueError, match="uniform"):
            dafermos_derivative_residuals(waves, [z] * 3, 0.0)


class TestTrilinear:
    def test_z_independent_vortex_vanishes(self):
        # single-shell field: Lambda f = sqrt(2) f, and f.grad f is a pure
        # gradient, so the integral vanishes; confirmed against brute-force
        # collocation quadrature
        g = make_grid(3, 16)
        x, y, z = g.meshgrid()
        vals = np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y), np.zeros_like(x)])
        f, _ = transform(g, vals)
        adv = np.stack([-0.5 * np.sin(2 * x), -0.5 * np.sin(2 * y), np.zeros_like(x)])
        brute = np.sum(np.sqrt(2.0) * vals * adv) * cell_volume(g)
        assert abs(brute) < 1e-12
        assert trilinear_ratio(f) < 1e-14

    def test_zero_field_zero_ratio(self):
        g = make_grid(3, 8)
        assert trilinear_ratio(zero_field(g)) == 0.0

    def test_2d_rejected(self):
        g = make_grid(2, 16)
        with pytest.raises(ValueError):
            trilinear_ratio(zero_field(g))

    def test_bounded_on_random_fields(self):
        g = make_grid(3, 16)
        for i in range(50):
            f = random_divergence_free_field(g, 500 + i, band=g.dealias_cutoff, slope=3.0)
            assert trilinear_ratio(f) <= 1.0


class TestInterpolationRatios:
    def test_single_mode_sharp(self):
        g = make_grid(2, 16)
        f = single_mode_field(g, (2, 1), (1.0, -2.0))
        from hypns.spectral import leray_project

        f = leray_project(f)
        r = interpolation_ratios(f, 0.5)
        assert abs(r["gagliardo_nirenberg"] - 1.0) < 1e-12
        assert abs(r["sobolev_interpolation"] - 1.0) < 1e-12

    def test_zero_field(self):
        g = make_grid(2, 16)
        r = interpolation_ratios(zero_field(g), 0.5)
        assert r == {"gagliardo_nirenberg": 0.0, "sobolev_interpolation": 0.0, "linf_besov": 0.0}

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_lattice_bounds(self, dim, n):
        g = make_grid(dim, n)
        for i in range(200):
            f = random_divergence_free_field(g, 900 + i)
            r = interpolation_ratios(f, 0.35)
            assert r["gagliardo_nirenberg"] <= 1.0 + 1e-12
            assert r["sobolev_interpolation"] <= 1.0 + 1e-12


class TestDecayAudit:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            energy_decay_audit([])

    def test_zero_trajectory_passes(self):
        g = make_grid(2, 16)
        z = zero_field(g)
        reports = [make_energy_report(WaveState(z, z, 0.1, t), 0.5) for t in (0.0, 0.1, 0.2)]
        assert energy_decay_audit(reports) == (0, True)
        assert all(r.composite == 0.0 and r.threshold_ok for r in reports)

    def test_taylor_green_run_decays(self):
        g = make_grid(2, 32)
        tg = taylor_green(g)
        reports = []
        nlw_solve(tg, 0.0 * tg, 0.05, 1.0, dt=1e-3,
                  observer=lambda st: reports.append(make_energy_report(st, 0.5)), stride=10)
        n_star, composite_monotone = energy_decay_audit(reports)
        assert n_star == 0
        assert composite_monotone
        e_base = [r.e_base for r in reports]
        assert all(b < a for a, b in zip(e_base, e_base[1:]))
        # the growth bound E_delta(t) <= E_delta(0) (2 ||u0||^2 + 1)^N
        e_delta = [r.e_delta for r in reports]
        assert max(e_delta) <= e_delta[0] * (2.0 * l2_norm(tg) ** 2 + 1.0) ** n_star * (1.0 + 1e-9)

    def test_injected_bump_flagged(self):
        g = make_grid(2, 16)
        tg_like = random_divergence_free_field(g, 3)
        reports = []
        nlw_solve(tg_like, zero_field(g), 0.05, 0.2, dt=1e-3,
                  observer=lambda st: reports.append(make_energy_report(st, 0.5)), stride=10)
        bump_at = reports[len(reports) // 2].t
        for r in reports:
            if r.t >= bump_at:
                r.e_delta *= 10.0
                r.e_base *= 10.0
        assert energy_decay_audit(reports) == (None, False)

    def test_smallest_exponent_algebra(self):
        # base falls enough that one power of (1 + E_base) absorbs the
        # delta-energy bump
        assert smallest_monotone_exponent([1.0, 1.1], [1.0, 0.5]) == 1
        assert smallest_monotone_exponent([1.0, 0.9], [1.0, 1.0]) == 0
        assert smallest_monotone_exponent([1.0, 1.1], [1.0, 1.5]) is None


class TestEnergyReport:
    def test_composite_fill(self):
        # the decay audit writes each report's composite at the exponent it used
        g = make_grid(2, 16)
        states = [wave_state(g, 1, 0.1), wave_state(g, 2, 0.1, ut_scale=0.0)]
        reports = [make_energy_report(st, 0.5) for st in states]
        assert all(math.isnan(rep.composite) for rep in reports)
        n_star, _ = energy_decay_audit(reports)
        for rep in reports:
            assert rep.composite == composite_scalar(rep.e_delta, rep.e_base, n_star or 0)

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    def test_one_pass_report_matches_functionals(self, dim, n):
        # sigma0 comes from the grid: L^2 in 2D, H^(1/2) in 3D
        g = make_grid(dim, n)
        st = wave_state(g, 2, 0.1)
        v = random_divergence_free_field(g, 99)
        rep = make_energy_report(st, 0.5, v=v)
        s0 = 0.0 if dim == 2 else 0.5
        s1, eps = s0 + 0.5, st.eps

        def close(got, want):
            return abs(got - want) <= 1e-13 * abs(want)

        fresh = WaveState(st.u, st.ut, st.eps, st.t)
        assert close(rep.e_base, energy(fresh, s0))
        assert close(rep.e_delta, energy(fresh, s1))
        assert close(rep.dafermos, dafermos_energy(fresh, v, s0))
        assert close(rep.err_sq, sobolev_norm(st.u - v, s0) ** 2)
        # the functionals written out in Sobolev norms of the fields
        tail = [
            0.5 * (eps * sobolev_norm(st.ut, s)) ** 2 + eps * sobolev_norm(st.u, s + 1.0) ** 2
            for s in (s0, s1)
        ]
        assert close(rep.e_base, 0.5 * sobolev_norm(st.u + eps * st.ut, s0) ** 2 + tail[0])
        assert close(rep.e_delta, 0.5 * sobolev_norm(st.u + eps * st.ut, s1) ** 2 + tail[1])
        assert close(rep.dafermos, 0.5 * sobolev_norm(st.u - v + eps * st.ut, s0) ** 2 + tail[0])

    @pytest.mark.parametrize("dim, n, s0", [(2, 16, 0.0), (3, 8, 0.5)])
    def test_monitor_and_report_share_energy_density(self, monkeypatch, dim, n, s0):
        # the blow-up monitor and the report of one sample build the state's
        # energy density once; each sums it at sigma0, the report also at
        # sigma0 + delta
        import hypns.nlw as nlw

        sigmas, densities = [], []
        real_sum, real_density = nlw.weighted_sum, WaveState.modulated_density

        def counted_sum(grid, sigma, density):
            sigmas.append(sigma)
            return real_sum(grid, sigma, density)

        def counted_density(self, w):
            densities.append(self.t)
            return real_density(self, w)

        monkeypatch.setattr(nlw, "weighted_sum", counted_sum)
        monkeypatch.setattr(WaveState, "modulated_density", counted_density)
        g = make_grid(dim, n)
        st = wave_state(g, 3, 0.1, ut_scale=0.0)
        reports = []
        nlw_solve(st.u, st.ut, st.eps, 0.01, dt=2e-3, observer=lambda s: reports.append(make_energy_report(s, 0.5)))
        assert len(reports) == 6
        assert densities == [r.t for r in reports]
        assert sorted(sigmas) == [s0] * 12 + [s0 + 0.5] * 6
