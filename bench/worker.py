"""One benchmark sample in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode MODE --out FILE --tmp DIR [--quick]

MODE is ``setup`` (import and build the inputs, then stop), ``plain`` (also
run the workload's entry call untraced), ``trace`` (the same call with
spans) or ``micro`` (warm microbenchmarks of the spectral and wave public
functions at the workload's grid).  The result is written as JSON to FILE;
``ready`` is the ``time.monotonic()`` reading once set-up is done, which
the caller compares with its own reading taken before starting the process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def bind_trapz_alias() -> bool:
    """Give numpy >= 2.4 the ``np.trapz`` name the program still calls.

    ``np.trapezoid`` is the same trapezoidal quadrature under its numpy 2.0
    name.  The alias lives in this process only; the program's own tests
    still show the missing name, and once the program stops calling
    ``np.trapz`` the alias is never used.
    """
    import numpy as np

    if not hasattr(np, "trapz") and hasattr(np, "trapezoid"):
        np.trapz = np.trapezoid
        return True
    return False


def import_program():
    sys.path.insert(0, SRC)
    import hypns

    where = os.path.dirname(os.path.abspath(hypns.__file__))
    if where != os.path.join(SRC, "hypns"):
        raise SystemExit(f"imported hypns from {where}, expected the checkout's {SRC}")
    from hypns import experiments, reporting, spectral

    return experiments, reporting, spectral


def summarize_convergence(result) -> dict:
    fit = result.fit
    return {
        "dt_used": result.dt_used,
        "fit": None if fit is None else {"slope": fit.slope, "intercept": fit.intercept,
                                         "r2": fit.r2, "n_points": fit.n_points},
        "rows": [
            {
                "eps": r.eps,
                "sup_err_sq": r.sup_err_sq,
                "sup_dafermos": r.sup_dafermos,
                "sup_eps_delta_e": r.sup_eps_delta_e,
                "initial_eps_delta_e": r.eps ** result.config.delta * r.reports[0].e_delta,
                "cross_term": r.cross_term,
                "blowup": r.blowup,
                "first_threshold_violation_t": r.first_threshold_violation_t,
                "n_star": r.n_star,
                "smallness": r.hypothesis.smallness,
            }
            for r in result.rows
        ],
    }


def summarize_existence(result) -> dict:
    return {
        "max_initial_eps_delta_e": result.max_initial_eps_delta_e,
        "sup_bound_ok": result.sup_bound_ok,
        "rows": [
            {
                "eps": r.eps,
                "skipped": r.skipped,
                "blowup": r.blowup,
                "initial_eps_delta_e": r.initial_eps_delta_e,
                "sup_eps_delta_e": r.sup_eps_delta_e,
                "n_star": r.n_star,
                "composite_monotone": r.composite_monotone,
                "first_threshold_violation_t": r.first_threshold_violation_t,
            }
            for r in result.rows
        ],
    }


def existence_csv(result) -> bytes:
    """Byte rendering of the existence rows and their energy series."""
    lines = []
    for r in result.rows:
        lines.append(f"{r.eps!r},{int(r.skipped)},{int(r.blowup)},{r.initial_eps_delta_e!r},"
                     f"{r.sup_eps_delta_e!r},{r.n_star},{int(r.composite_monotone)}")
        lines.extend(f"{e.t!r},{e.e_base!r},{e.e_delta!r},{e.linf!r}" for e in r.reports)
    return ("\n".join(lines) + "\n").encode()


def _time_ms(fn, repeats: int = 7, min_batch_s: float = 0.02) -> float:
    """Median per-call time of warm batches, in ms."""
    fn()
    k = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        el = time.perf_counter() - t0
        if el >= min_batch_s:
            break
        k *= 2
    times = [el / k]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        times.append((time.perf_counter() - t0) / k)
    return statistics.median(times) * 1e3


def microbenchmarks(cfg, grid, v0) -> tuple:
    """Warm per-call times of public spectral and wave functions."""
    import hypns.nlw as nlw
    import hypns.spectral as spectral

    values = spectral.inverse_transform(v0)
    eps = cfg.eps_list[0]
    calls = {
        "spectral.transform_ms": (spectral, "transform", lambda f: f(grid, values)),
        "spectral.inverse_transform_ms": (spectral, "inverse_transform", lambda f: f(v0)),
        "spectral.convection_term_ms": (spectral, "convection_term", lambda f: f(v0)),
        "spectral.leray_project_ms": (spectral, "leray_project", lambda f: f(v0)),
        "spectral.sobolev_norm_ms": (spectral, "sobolev_norm", lambda f: f(v0, 0.5)),
        "spectral.linf_norm_ms": (spectral, "linf_norm", lambda f: f(v0)),
        "nlw.linear_propagate_ms": (
            nlw, "linear_propagate",
            lambda f: f(nlw.WaveState(v0, 0.0 * v0, eps), cfg.dt),
        ),
    }
    out, absent = {}, []
    for metric, (module, name, call) in calls.items():
        fn = getattr(module, name, None)
        if fn is None:
            absent.append(f"{module.__name__}.{name}")
            continue
        out[metric] = _time_ms(lambda: call(fn))
    return out, absent


def peak_rss_kib() -> int:
    """Larger of this process's peak RSS and its largest waited-for child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "trace", "micro"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)

    alias = bind_trapz_alias()
    experiments, reporting, spectral = import_program()
    from workloads import WORKLOADS, experiment_config

    wl = WORKLOADS[args.workload]
    cfg = experiments.ExperimentConfig(**experiment_config(args.workload, args.seed, args.quick))
    grid = spectral.make_grid(cfg.dim, cfg.n)
    v0 = experiments.build_reference_field(cfg, grid)
    out = {"ready": time.monotonic(), "numpy_trapz_alias": alias}

    if args.mode == "micro":
        out["micro"], out["absent"] = microbenchmarks(cfg, grid, v0)
    elif args.mode in ("plain", "trace"):
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer(args.tmp)
            tracer.install({"experiments": experiments, "reporting": reporting})
        report_dir = os.path.join(args.tmp, "report")
        t0 = time.perf_counter()
        if wl["entry"] == "converge":
            result = experiments.run_convergence(cfg, jobs=wl["jobs"])
            reporting.emit_report(result, report_dir)
        else:
            result = experiments.run_existence_probe(cfg, jobs=wl["jobs"])
        run_s = time.perf_counter() - t0
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        out.update(run_s=run_s, peak_rss_kib=peak_rss_kib(), worker_cpu_s=kids.ru_utime + kids.ru_stime)

        if wl["entry"] == "converge":
            out["summary"] = summarize_convergence(result)
            with open(os.path.join(report_dir, "sweep.csv"), "rb") as fh:
                out["output_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        else:
            out["summary"] = summarize_existence(result)
            out["output_sha256"] = hashlib.sha256(existence_csv(result)).hexdigest()
        if tracer is not None:
            out["trace"] = {"records": tracer.collect(), "absent": tracer.absent}

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
