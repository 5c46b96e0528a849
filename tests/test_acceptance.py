"""Acceptance gate: every criterion with its stated tolerance, one printed
pass/fail line each.  The convergence sweeps are shared session fixtures so
the globalization and determinism checks audit the same runs."""

import math
import sys
import time

import numpy as np
import pytest

from hypns.diagnostics import (
    TRILINEAR_RATIO_BOUND,
    dafermos_derivative_residuals,
    dafermos_energy,
    energy,
    smallest_monotone_exponent,
    trilinear_ratio,
)
from hypns.experiments import ExperimentConfig, run_convergence
from hypns.initial_data import (
    check_bernstein,
    check_jackson,
    random_divergence_free_field,
    synth_hs_field,
    taylor_green,
    truncate_initial_data,
)
from hypns.nlw import WaveState, nlw_solve, propagate_mode
from hypns.ns import ns_solve
from hypns.reporting import emit_report
from hypns.spectral import inverse_transform, make_grid, sobolev_norm

from conftest import oracle_mode


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    sys.stdout.flush()
    assert ok, line


@pytest.fixture(scope="module")
def sweep_2d():
    cfg = ExperimentConfig(
        dim=2, n=128, s=0.5, delta=0.5, eps_list=[1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
        T=1.0, dt=2e-3, seed=1, amplitude=1.0, sample_stride=10,
    )
    t0 = time.monotonic()
    result = run_convergence(cfg, jobs=1)
    return cfg, result, time.monotonic() - t0


def test_criterion_1_taylor_green_ns_regression():
    t0 = time.monotonic()
    g = make_grid(2, 64)
    tg = taylor_green(g)
    T = 0.5
    out = ns_solve(tg, T, dt=1e-3)
    exact = math.exp(-2.0 * T) * inverse_transform(tg)
    err = float(np.max(np.abs(inverse_transform(out.v) - exact)))
    elapsed = time.monotonic() - t0
    report(
        1, "Taylor-Green heat-side regression",
        err <= 1e-8 and elapsed < 30.0,
        f"max pointwise err {err:.3e} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_per_mode_wave_oracle():
    t0 = time.monotonic()
    g = make_grid(2, 64)
    tg = taylor_green(g)
    eps, T, dt = 0.05, 1.0, 1e-3
    res = nlw_solve(tg, 0.0 * tg, eps, T, dt=dt)
    amp, _ = oracle_mode(eps, 2.0, T, 1.0, 0.0)
    err = float(np.max(np.abs(inverse_transform(res.u) - amp.real * inverse_transform(tg))))

    rng = np.random.default_rng(1234)
    worst = 0.0
    for trial in range(1000):
        e = 10 ** rng.uniform(-6, 1)
        k2 = 10 ** rng.uniform(-1, 4)
        if trial % 5 == 0:  # sit on and straddle the double-root locus
            k2 = (1.0 - rng.choice([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-5])) / (4 * e)
        dtau = 10 ** rng.uniform(-4, 0)
        u0, u1 = rng.standard_normal(2)
        un, wn = propagate_mode(e, k2, dtau, u0, u1)
        uo, wo = oracle_mode(e, k2, dtau, u0, u1)
        scale = max(abs(uo), abs(wo), 1e-30)
        worst = max(worst, max(abs(un - uo), abs(wn - wo)) / scale)
    elapsed = time.monotonic() - t0
    report(
        2, "per-mode wave oracle",
        err <= 1e-8 and worst <= 1e-10 and elapsed < 30.0,
        f"trajectory err {err:.3e} (tol 1e-8), mode worst {worst:.3e} (tol 1e-10), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_convergence_rate_2d(sweep_2d):
    cfg, result, elapsed = sweep_2d
    fit = result.fit
    ok = (
        fit is not None
        and fit.slope >= cfg.s / 2.0 - 0.1
        and fit.r2 >= 0.9
        and elapsed < 600.0
    )
    report(
        3, "2D convergence rate",
        ok,
        f"slope {fit.slope:.3f} (floor {cfg.s / 2 - 0.1:.2f}), R2 {fit.r2:.3f} (min 0.9), {elapsed:.0f}s (< 600s)",
    )


def test_criterion_4_convergence_rate_3d():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        dim=3, n=32, s=0.5, delta=0.5, eps_list=[1e-1, 1e-2, 1e-3],
        T=1.0, dt=5e-3, seed=2, amplitude=0.05, sample_stride=10,
    )
    result = run_convergence(cfg, jobs=1)
    elapsed = time.monotonic() - t0
    small = max(r.hypothesis.smallness for r in result.rows)
    fit = result.fit
    ok = (
        small < 1.0 / 16.0
        and fit is not None
        and fit.slope >= cfg.s / 2.0 - 0.15
        and elapsed < 900.0
    )
    report(
        4, "3D convergence rate",
        ok,
        f"slope {fit.slope:.3f} (floor {cfg.s / 2 - 0.15:.2f}), critical norm {small:.4f} (< 1/16), "
        f"{elapsed:.0f}s (< 900s)",
    )


def test_criterion_5_globalization_bound(sweep_2d):
    cfg, result, _ = sweep_2d
    initials = [r.eps ** cfg.delta * r.reports[0].e_delta for r in result.rows]
    cap = 2.0 * max(initials)
    sup_ok = all(r.sup_eps_delta_e <= cap for r in result.rows)
    no_blowup = not any(r.blowup for r in result.rows)

    mono_ok = True
    n_used = []
    for r in result.rows:
        e_delta = [rep.e_delta for rep in r.reports]
        e_base = [rep.e_base for rep in r.reports]
        n_star = smallest_monotone_exponent(e_delta, e_base)
        n_used.append(n_star)
        if n_star is None:
            mono_ok = False
    report(
        5, "globalization bound",
        sup_ok and no_blowup and mono_ok,
        f"sup eps^d E <= 2 max initial: {sup_ok}, blow-ups: {int(not no_blowup)}, "
        f"composite monotone at N {n_used}",
    )


def test_criterion_6_exact_algebra_invariants():
    rng = np.random.default_rng(602214)
    grids = {2: make_grid(2, 16), 3: make_grid(3, 8)}
    energy_ok = dafermos_ok = gn_ok = True
    for i in range(500):
        g = grids[2 if i % 2 == 0 else 3]
        sigma0 = 0.0 if g.dim == 2 else 0.5
        u = random_divergence_free_field(g, 5 * i) * 10 ** rng.uniform(-1, 1)
        ut = random_divergence_free_field(g, 5 * i + 1) * 10 ** rng.uniform(-1, 1)
        v = random_divergence_free_field(g, 5 * i + 2) * 10 ** rng.uniform(-1, 1)
        st = WaveState(u, ut, 10 ** rng.uniform(-3, 0), 0.0)
        for sig in (sigma0, sigma0 + 0.5):
            energy_ok &= energy(st, sig) >= 0.5 * sobolev_norm(u, sig) ** 2
        dafermos_ok &= sobolev_norm(u - v, sigma0) ** 2 <= 4.0 * dafermos_energy(st, v, sigma0)
        gn = sobolev_norm(u, 1.0) ** 2 / (sobolev_norm(u, 0.5) * sobolev_norm(u, 1.5))
        gn_ok &= gn <= 1.0 + 1e-12

    bj_ok = True
    g = make_grid(2, 32)
    for i in range(500):
        s = 0.25 + 0.001 * (i % 500)
        v0 = synth_hs_field(g, i, s, 1.0)
        eps = 10 ** rng.uniform(-3, -0.5)
        u0 = truncate_initial_data(v0, eps)
        bj_ok &= check_jackson(v0, u0, eps, s) <= 1.0
        bj_ok &= check_bernstein(v0, u0, eps, min(1.0, s + 0.5), s) <= 1.0
    report(
        6, "exact-algebra invariants",
        energy_ok and dafermos_ok and gn_ok and bj_ok,
        f"energy half-bound {energy_ok}, modulated 4x bound {dafermos_ok}, "
        f"GN {gn_ok}, Bernstein/Jackson {bj_ok} (500 states each)",
    )


def test_criterion_7_dafermos_derivative_identity():
    g = make_grid(2, 64)
    tg = taylor_green(g)
    eps = 0.05
    residuals = {}
    for h in (2e-3, 1e-3):
        waves, vs = [], []
        nlw_solve(tg, 0.0 * tg, eps, 0.4, dt=h, observer=waves.append, stride=1)
        ns_solve(tg, 0.4, dt=h, observer=lambda s: vs.append(s.v), stride=1)
        recs = dafermos_derivative_residuals(waves, vs, 0.0)
        residuals[h] = min(recs, key=lambda r: abs(r.t - 0.2)).residual
    factor = residuals[2e-3] / residuals[1e-3]
    report(
        7, "modulated-energy derivative identity",
        3.5 <= factor <= 4.5,
        f"halving h reduces residual by {factor:.3f} (target [3.5, 4.5])",
    )


def test_criterion_8_trilinear_estimate_audit():
    worst = {}
    for n in (16, 32):
        g = make_grid(3, n)
        w = 0.0
        for i in range(500):
            f = random_divergence_free_field(g, 4001 + 1009 * n + i, band=g.dealias_cutoff, slope=3.0)
            w = max(w, trilinear_ratio(f))
        worst[n] = w
    stable = max(worst.values()) <= 1.10 * min(worst.values())
    bounded = max(worst.values()) <= TRILINEAR_RATIO_BOUND
    report(
        8, "trilinear estimate audit",
        stable and bounded,
        f"max ratios {worst[16]:.3e} / {worst[32]:.3e}, stable within 10%: {stable}, "
        f"under pinned bound {TRILINEAR_RATIO_BOUND:g}: {bounded}",
    )


def test_criterion_9_determinism_across_jobs(sweep_2d, tmp_path):
    cfg, result, _ = sweep_2d
    dir1 = tmp_path / "jobs1"
    emit_report(result, dir1)
    result4 = run_convergence(cfg, jobs=4)
    dir4 = tmp_path / "jobs4"
    emit_report(result4, dir4)
    names = sorted(p.name for p in dir1.iterdir() if p.suffix == ".csv")
    same = all((dir1 / n).read_bytes() == (dir4 / n).read_bytes() for n in names)
    report(
        9, "determinism across job counts",
        same and len(names) == len(cfg.eps_list) + 1,
        f"{len(names)} CSV files byte-identical between --jobs 1 and --jobs 4: {same}",
    )
