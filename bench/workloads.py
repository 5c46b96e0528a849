"""Workload definitions, per-run correctness checks and count arithmetic.

This module only describes the workloads and judges their results; it
imports nothing from ``hypns`` so the orchestrator never loads the
program it measures.  Each workload is identified by its grid, eps list,
dt, stride, seed and job count, exactly as in the acceptance criteria it
comes from; only the final time ``T`` is shortened to fit the run budget.
"""

from __future__ import annotations

import math

# Acceptance sweeps integrate to T=1.0.  Shortened to T=0.05, one sample
# takes 2-3 s on 2 cores, so about ten fresh-process samples fit in one
# run: this machine's speed drifts by +-20% over tens of seconds, and only
# the median of many samples spread over the run is steady.
RUN_T = 0.05
# Quick mode: same eps lists, dt, stride and jobs on tiny grids.
QUICK_T = 0.02
QUICK_N = {2: 16, 3: 8}

EPS_2D = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]

WORKLOADS = {
    # acceptance criterion 3, plus criterion 5 on the same sweep
    "converge_2d": {
        "entry": "converge",
        "jobs": 1,
        "default_seed": 1,
        "config": dict(dim=2, n=128, s=0.5, delta=0.5, eps_list=EPS_2D, dt=2e-3,
                       amplitude=1.0, sample_stride=10),
        "gates": ("rate_2d", "globalization"),
    },
    # acceptance criterion 4
    "converge_3d": {
        "entry": "converge",
        "jobs": 1,
        "default_seed": 2,
        "config": dict(dim=3, n=32, s=0.5, delta=0.5, eps_list=[1e-1, 1e-2, 1e-3], dt=5e-3,
                       amplitude=0.05, sample_stride=10),
        "gates": ("rate_3d",),
    },
    # existence probe on the converge_2d data, every step sampled, 2 workers
    "exist_pool_2d": {
        "entry": "exist",
        "jobs": 2,
        "default_seed": 1,
        "config": dict(dim=2, n=128, s=0.5, delta=0.5, eps_list=EPS_2D, dt=2e-3,
                       amplitude=1.0, sample_stride=1),
        "gates": ("globalization",),
    },
}

# Relative tolerance against the pinned reference values.  An equivalent
# reordering of the transforms moves results by ~1e-12 (real-FFT estimate);
# a wrong result moves them by far more than 1e-8.
REFERENCE_RTOL = 1e-8


def experiment_config(name: str, seed: int, quick: bool) -> dict:
    """Keyword arguments for ``hypns.experiments.ExperimentConfig``."""
    cfg = dict(WORKLOADS[name]["config"], seed=seed, T=QUICK_T if quick else RUN_T)
    if quick:
        cfg["n"] = QUICK_N[cfg["dim"]]
    return cfg


# ---------------------------------------------------------------------------
# Correctness gates (acceptance criteria 3, 4 and 5) on a run summary
# ---------------------------------------------------------------------------


def _gate_rate(summary, s, slope_tol):
    fit = summary["fit"]
    if fit is None:
        return ["rate fit undefined"]
    floor = s / 2.0 - slope_tol
    bad = []
    if not fit["slope"] >= floor:
        bad.append(f"slope {fit['slope']!r} below floor {floor!r}")
    return bad


def _gate_rate_2d(summary, cfg):
    bad = _gate_rate(summary, cfg["s"], 0.1)
    fit = summary["fit"]
    if fit is not None and not fit["r2"] >= 0.9:
        bad.append(f"R2 {fit['r2']!r} below 0.9")
    return bad


def _gate_rate_3d(summary, cfg):
    bad = _gate_rate(summary, cfg["s"], 0.15)
    small = max(r["smallness"] for r in summary["rows"])
    if not small < 1.0 / 16.0:
        bad.append(f"critical norm {small!r} not below 1/16")
    return bad


def _gate_globalization(summary, cfg):
    rows = summary["rows"]
    bad = []
    if any(r.get("skipped") for r in rows):
        bad.append("an eps row was skipped by the admissibility check")
    ran = [r for r in rows if not r.get("skipped")]
    if not ran:
        return bad + ["no eps row ran"]
    cap = 2.0 * max(r["initial_eps_delta_e"] for r in ran)
    for r in ran:
        if not r["sup_eps_delta_e"] <= cap:
            bad.append(f"eps={r['eps']!r}: sup eps^d E {r['sup_eps_delta_e']!r} above 2 x max initial {cap!r}")
        if r["blowup"]:
            bad.append(f"eps={r['eps']!r}: blow-up")
        if r["n_star"] is None:
            bad.append(f"eps={r['eps']!r}: no monotone composite exponent N")
    return bad


_GATES = {"rate_2d": _gate_rate_2d, "rate_3d": _gate_rate_3d, "globalization": _gate_globalization}


def gate_failures(name: str, summary: dict) -> list:
    """Acceptance gates that apply to the workload; empty when all pass."""
    cfg = WORKLOADS[name]["config"]
    bad = []
    for gate in WORKLOADS[name]["gates"]:
        bad.extend(f"{gate}: {msg}" for msg in _GATES[gate](summary, cfg))
    return bad


def reference_mismatches(summary, reference, rtol: float = REFERENCE_RTOL, path: str = "") -> list:
    """Leaves of ``summary`` that differ from ``reference``: floats beyond
    ``rtol``, everything else (ints, flags, None, structure) exactly."""
    if isinstance(reference, dict):
        if not isinstance(summary, dict) or set(summary) != set(reference):
            return [f"{path or 'summary'}: keys differ"]
        out = []
        for key in sorted(reference):
            out.extend(reference_mismatches(summary[key], reference[key], rtol, f"{path}.{key}" if path else key))
        return out
    if isinstance(reference, list):
        if not isinstance(summary, list) or len(summary) != len(reference):
            return [f"{path}: length differs"]
        out = []
        for i, (a, b) in enumerate(zip(summary, reference)):
            out.extend(reference_mismatches(a, b, rtol, f"{path}[{i}]"))
        return out
    if isinstance(reference, float) and isinstance(summary, (int, float)) and not isinstance(summary, bool):
        a, b = float(summary), reference
        if math.isnan(a) and math.isnan(b):
            return []
        if abs(a - b) <= rtol * max(abs(a), abs(b)):
            return []
        return [f"{path}: {a!r} vs reference {b!r}"]
    if summary != reference or type(summary) is not type(reference):
        return [f"{path}: {summary!r} vs reference {reference!r}"]
    return []


# ---------------------------------------------------------------------------
# Count arithmetic for the traced run
# ---------------------------------------------------------------------------


def plan_steps(T: float, dt: float) -> int:
    """Step count of a solve to T with step dt, as the solvers plan it."""
    return 0 if T == 0.0 else max(1, math.ceil(T / dt - 1e-12))


def sample_count(steps: int, stride: int) -> int:
    """Observer calls of one solve: every stride-th step plus t=0 and t=T."""
    return len(set(range(0, steps + 1, max(stride, 1))) | {0, steps})


def expected_counts(name: str, quick: bool) -> dict:
    """Counter values the traced run must reproduce for this workload.

    One convection evaluation is 1 batched inverse transform plus
    dim(dim+1)/2 forward transforms; NS takes 4 evaluations per step and
    the wave scheme 2; ``dt_v`` is one evaluation per reference sample; each
    energy report takes one inverse transform in ``linf_norm``; building
    the reference field takes one forward transform.
    """
    wl = WORKLOADS[name]
    cfg = experiment_config(name, 0, quick)
    dim, npts = cfg["dim"], cfg["n"] ** cfg["dim"]
    steps = plan_steps(cfg["T"], cfg["dt"])
    samples = sample_count(steps, cfg["sample_stride"])
    n_eps = len(cfg["eps_list"])
    converge = wl["entry"] == "converge"

    ns_steps = steps if converge else 0
    evals = 4 * ns_steps + n_eps * 2 * steps + (n_eps * samples if converge else 0)
    reports = n_eps * samples
    inverse = evals + reports
    forward = 1 + dim * (dim + 1) // 2 * evals
    return {
        "ns.steps": ns_steps,
        "nlw.steps": n_eps * steps,
        "diagnostics.report_calls": reports,
        "spectral.fft_inverse_calls": inverse,
        "spectral.fft_forward_calls": forward,
        "spectral.fft_calls": inverse + forward,
        # batched calls carry dim components; each product is one scalar field
        "spectral.fft_points": inverse * dim * npts + (forward - 1) * npts + dim * npts,
    }
