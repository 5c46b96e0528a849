import ctypes
import resource

import numpy as np
import pytest
from scipy.integrate import simpson

from hypns import ns
from hypns.initial_data import random_divergence_free_field, synth_hs_field, taylor_green
from hypns.nlw import nlw_solve
from hypns.ns import SolverFailure, _check_finite, default_dt, dt_v, ns_solve
from hypns.spectral import (
    divergence_l2,
    inverse_transform,
    make_grid,
    sobolev_norm,
    transform,
    zero_field,
)

from conftest import (
    POISON,
    assert_samples_own_arrays,
    beltrami_field,
    count_field_copies,
    l2_norm,
    poison_from_step,
    with_nan,
)


class TestNsStep:
    def test_zero_state(self):
        g = make_grid(2, 16)
        out = ns_solve(zero_field(g), 1e-3, dt=1e-3)
        assert l2_norm(out.v) == 0.0
        assert out.t == 1e-3

    def test_taylor_green_one_step(self):
        g = make_grid(2, 32)
        tg = taylor_green(g)
        out = ns_solve(tg, 1e-3, dt=1e-3)
        exact = np.exp(-2e-3) * tg.coeffs
        assert np.max(np.abs(out.v.coeffs - exact)) < 1e-10

    def test_self_convergence_order(self):
        g = make_grid(2, 32)
        v0 = random_divergence_free_field(g, 42, band=8) * 0.8
        T = 0.1
        sols = [ns_solve(v0, T, dt=T / m) for m in (8, 16, 32)]
        e1 = l2_norm(sols[0].v - sols[1].v)
        e2 = l2_norm(sols[1].v - sols[2].v)
        assert np.log2(e1 / e2) >= 3.8

    def test_divergence_preserved(self):
        g = make_grid(2, 16)
        v = ns_solve(random_divergence_free_field(g, 5), 0.02, dt=1e-3).v
        assert divergence_l2(g, v.coeffs) < 1e-10


# Largest relative gap to exp(-K^2 t) v0 measured over 10 seeds per shell
# |k|^2 in {1, 3, 9, 25}, at every sample: 1.5e-15.
BELTRAMI_REL_TOL = 1e-14


class TestNsSolve:
    def test_zero_horizon(self):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 1)
        out = ns_solve(v0, 0.0, dt=1e-3)
        assert out.t == 0.0
        assert np.array_equal(out.v.coeffs, v0.coeffs)

    def test_taylor_green_analytic(self):
        g = make_grid(2, 64)
        tg = taylor_green(g)
        T = 0.5
        out = ns_solve(tg, T, dt=1e-3)
        exact = np.exp(-2.0 * T) * inverse_transform(tg)
        assert np.max(np.abs(inverse_transform(out.v) - exact)) <= 1e-8

    @pytest.mark.parametrize("k2", [1, 3, 9, 25])
    def test_beltrami_decays_as_heat(self, k2):
        # the forcing of a Beltrami field vanishes though its products do
        # not, so v(t) = exp(-K^2 t) v0 at any amplitude: the 3D exact
        # nonlinear solution, as Taylor-Green is the 2D one
        v0 = beltrami_field(16, k2, 1, 2.0)
        samples = []
        ns_solve(v0, 0.1, dt=5e-3, observer=samples.append, stride=5)
        assert len(samples) == 5
        for s in samples:
            exact = v0 * np.exp(-k2 * s.t)
            assert l2_norm(s.v - exact) <= BELTRAMI_REL_TOL * l2_norm(exact)

    def test_blowup_between_samples_is_a_solver_failure(self):
        # dt = 0.05 is far above the CFL bound at amplitude 200: the steps
        # overflow float64 between two samples, and the sample's finiteness
        # test reports it, not a numpy RuntimeWarning (an error in tier-1)
        v0 = synth_hs_field(make_grid(2, 32), 1, 0.5, 200.0)
        with pytest.raises(SolverFailure, match="non-finite coefficients") as exc:
            ns_solve(v0, 2.0, dt=0.05, stride=20)
        assert exc.value.t == 1.0

    def test_energy_inequality(self):
        g = make_grid(2, 32)
        v0 = random_divergence_free_field(g, 8, band=5)
        ts, l2s, h1s = [], [], []

        def obs(st):
            ts.append(st.t)
            l2s.append(l2_norm(st.v) ** 2)
            h1s.append(sobolev_norm(st.v, 1.0) ** 2)

        ns_solve(v0, 0.2, dt=5e-4, observer=obs, stride=1)
        lhs = l2s[-1] + 2.0 * simpson(np.array(h1s), x=np.array(ts))
        assert lhs <= l2s[0] * (1.0 + 1e-6)

    def test_l2_monotone_per_step(self):
        g = make_grid(2, 32)
        v0 = random_divergence_free_field(g, 9, band=8)
        vals = []
        ns_solve(v0, 0.1, dt=1e-3, observer=lambda st: vals.append(l2_norm(st.v) ** 2), stride=1)
        assert all(b <= a * (1.0 + 1e-8) for a, b in zip(vals, vals[1:]))

    def test_long_run_divergence_free(self):
        g = make_grid(2, 8)
        v0 = random_divergence_free_field(g, 10)
        out = ns_solve(v0, 10.0, dt=1e-3)  # 1e4 steps
        assert divergence_l2(g, out.v.coeffs) < 1e-10

    def test_observer_times(self):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 11)
        times = []
        ns_solve(v0, 0.01, dt=3e-3, observer=lambda st: times.append(st.t), stride=1)
        assert times[0] == 0.0
        assert times[-1] == 0.01
        assert np.allclose(np.diff(times), times[1] - times[0])

    def test_samples_hold_the_step_arrays(self, monkeypatch):
        g = make_grid(2, 16)
        v0 = random_divergence_free_field(g, 13, band=4)
        copies = count_field_copies(monkeypatch)
        samples, copies_at_start = [], []

        def observer(st):
            if st.t == 0.0:
                copies_at_start.append(len(copies))
            samples.append((st.v, st.v.coeffs.copy()))

        ns_solve(v0, 0.05, dt=0.005, observer=observer, stride=3)
        assert len(samples) == 5 and len(copies) == copies_at_start[0]
        assert_samples_own_arrays(samples)

    # a negative or infinite dt used to give one step of size T, dt = 0 a
    # ZeroDivisionError and a NaN or infinite T an error from int()
    @pytest.mark.parametrize("T, dt, named", [
        (1.0, -1.0, "dt"), (1.0, 0.0, "dt"), (1.0, np.inf, "dt"), (1.0, np.nan, "dt"),
        (np.nan, 1e-2, "T"), (np.inf, 1e-2, "T"), (-1.0, 1e-2, "T"),
    ])
    @pytest.mark.parametrize("solver", ["ns", "nlw"])
    def test_rejects_bad_time_grid(self, solver, T, dt, named):
        u0 = random_divergence_free_field(make_grid(2, 16), 3)
        seen = []
        with pytest.raises(ValueError, match=f"^{named} must be finite"):
            if solver == "ns":
                ns_solve(u0, T, dt=dt, observer=seen.append)
            else:
                nlw_solve(u0, zero_field(u0.grid), 0.1, T, dt=dt, observer=seen.append)
        assert seen == []

    def test_plan_steps(self):
        assert ns.plan_steps(0.0, 1e-3) == (0, 0.0)
        assert ns.plan_steps(1.0, 0.3) == (4, 0.25)
        assert ns.plan_steps(1.0, 0.25) == (4, 0.25)

    def test_rejects_divergent_data(self):
        g = make_grid(2, 16)
        f = transform(g, np.random.default_rng(3).standard_normal((2, 16, 16)))
        with pytest.raises(ValueError):
            ns_solve(f, 0.1, dt=1e-3)

    @pytest.mark.parametrize("inside_box", [True, False])
    def test_rejects_non_finite_data(self, inside_box):
        # a NaN must fail the guard, not reach the observer at t=0
        v0 = with_nan(random_divergence_free_field(make_grid(2, 16), 3), inside_box)
        seen = []
        with pytest.raises(ValueError, match="finite"):
            ns_solve(v0, 0.1, dt=1e-2, observer=seen.append)
        assert seen == []

    def test_non_finite_step_raises_at_next_sample(self, monkeypatch):
        poison_from_step(monkeypatch, ns, 4, POISON.step)
        v0 = random_divergence_free_field(make_grid(2, 16), 12)
        seen = []

        def obs(st):
            assert np.all(np.isfinite(st.v.coeffs))
            seen.append(st.t)

        with pytest.raises(SolverFailure) as exc:
            ns_solve(v0, POISON.T, dt=POISON.dt, observer=obs, stride=POISON.stride)
        assert exc.value.t == POISON.fail_t
        assert seen == POISON.clean_times


def _on_glibc() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
    except (OSError, TypeError):
        return False


class TestKeepHeap:
    @pytest.mark.skipif(not _on_glibc(), reason="the allocator policy is a glibc mallopt")
    def test_warm_solve_pair_takes_no_page_faults(self):
        # without the policy the heap is trimmed after every step and faulted
        # in again: thousands of minor faults per pair at this size
        g = make_grid(2, 128)
        v0 = random_divergence_free_field(g, 13, band=20)
        u1 = zero_field(g)

        def solve_pair():
            ns_solve(v0, 0.04, dt=2e-3, stride=10)
            nlw_solve(v0, u1, 1e-2, 0.04, dt=2e-3, stride=10)

        solve_pair()  # warm-up: the heap grows to the steps' working set
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        solve_pair()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    def test_mallopt_called_once(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ns, "_heap_kept", False)
        monkeypatch.setattr(ns.ctypes, "CDLL", lambda name: Libc())
        v0 = random_divergence_free_field(make_grid(2, 16), 14)
        for _ in range(2):
            ns_solve(v0, 0.01, dt=5e-3)  # march, the one step loop, applies the policy
        ns._keep_heap()
        assert calls == [(ns._M_MMAP_THRESHOLD, 32 << 20), (ns._M_TRIM_THRESHOLD, 64 << 20)]

    @pytest.mark.parametrize("libc", ["raises", "no_mallopt"])
    def test_silent_without_mallopt(self, monkeypatch, libc):
        def cdll(name):
            if libc == "raises":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ns, "_heap_kept", False)
        monkeypatch.setattr(ns.ctypes, "CDLL", cdll)
        v0 = random_divergence_free_field(make_grid(2, 16), 15)
        out = ns_solve(v0, 0.01, dt=5e-3)
        assert out.t == 0.01 and np.all(np.isfinite(out.v.coeffs))


class TestCheckFinite:
    def coeffs(self):
        return random_divergence_free_field(make_grid(2, 16), 3).coeffs.copy()

    def test_finite_passes(self):
        _check_finite(self.coeffs(), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
    def test_non_finite_entry_raises(self, bad):
        c = self.coeffs()
        c[1, 2, 3] = bad
        with pytest.raises(SolverFailure) as info:
            _check_finite(c, 0.5)
        assert info.value.t == 0.5

    @pytest.mark.parametrize("size", [1e200, 1e154])
    def test_finite_but_overflowing_sum_of_squares_raises(self, size):
        # every entry is finite; 1e200 overflows on its own square, 1e154
        # only in the sum over the grid
        c = self.coeffs()
        c[:] = size
        assert np.isfinite(c).all()
        with pytest.raises(SolverFailure):
            _check_finite(c, 0.5)


class TestDefaultDt:
    """The advective CFL bound 0.5 / (n max|v|), capped at 1e-3, where
    max|v| is the largest pointwise magnitude of the collocation values."""

    @staticmethod
    def vmax(f):
        vals = inverse_transform(f)
        return float(np.sqrt(np.max(np.sum(vals * vals, axis=0))))

    def test_zero_field(self):
        assert default_dt(zero_field(make_grid(2, 16))) == 1e-3

    def test_large_field_takes_the_cfl_bound(self):
        g = make_grid(2, 16)
        f = random_divergence_free_field(g, 1) * 100.0
        bound = 0.5 / (g.n * self.vmax(f))
        assert bound < 1e-3
        assert default_dt(f) == bound

    def test_small_field_takes_the_cap(self):
        g = make_grid(3, 8)
        f = random_divergence_free_field(g, 1) * 1e-3
        assert 0.5 / (g.n * self.vmax(f)) > 1e-3
        assert default_dt(f) == 1e-3


class TestDtV:
    def test_zero(self):
        g = make_grid(2, 16)
        assert l2_norm(dt_v(zero_field(g))) == 0.0

    def test_taylor_green(self):
        g = make_grid(2, 32)
        tg = taylor_green(g)
        out = dt_v(tg)
        assert np.max(np.abs(out.coeffs - (-2.0) * tg.coeffs)) < 1e-10

    def test_finite_difference_consistency(self):
        g = make_grid(2, 32)
        v0 = random_divergence_free_field(g, 12, band=6)
        errs = []
        for h in (1e-3, 5e-4):
            mid = ns_solve(v0, 0.05, dt=2.5e-4)
            lo = ns_solve(v0, 0.05 - h, dt=2.5e-4)
            hi = ns_solve(v0, 0.05 + h, dt=2.5e-4)
            fd = (hi.v - lo.v) * (1.0 / (2.0 * h))
            errs.append(l2_norm(fd - dt_v(mid.v)))
        assert errs[0] / errs[1] > 3.0  # O(h^2): halving h quarters the error
