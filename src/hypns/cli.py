"""Command-line front end: convergence sweeps, existence probes, inequality
audits, the built-in Taylor-Green regression, and config normalization.

Exit codes: 0 pass, 2 acceptance failure, 1 error, a usage error included.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .experiments import (
    SKIP_REASON,
    ConfigError,
    normalized_dump,
    parse_config,
    rate_failures,
    run_convergence,
    run_existence_probe,
    run_inequality_audit,
    slope_floor,
)
from .initial_data import taylor_green
from .nlw import nlw_solve, propagate_mode
from .ns import ns_solve
from .reporting import emit_exist_report, emit_report
from .spectral import inverse_transform, make_grid

PASS, FAIL, ERROR = 0, 2, 1


def _resolve_out(args, cfg) -> str:
    if args.out:
        return args.out
    env = os.environ.get("HYPNS_OUT")
    if env:
        return env
    return cfg.out_dir


def _cmd_converge(args) -> int:
    cfg = parse_config(args.config)
    result = run_convergence(cfg, jobs=args.jobs)
    out = _resolve_out(args, cfg)
    for path in emit_report(result, out):
        print(f"wrote {path}")

    ok = True
    for row in result.rows:
        status = "blow-up" if row.blowup else "ok"
        print(
            f"eps={row.eps:g} sup_err_sq={row.sup_err_sq:.6g} "
            f"dafermos={row.sup_dafermos:.6g} cross={row.cross_term:.6g} [{status}]"
        )
        ok &= not row.blowup
    if result.fit is not None:
        print(f"fit: slope={result.fit.slope:.4f} R2={result.fit.r2:.4f} (floor {slope_floor(cfg):.4f})")
    failures = rate_failures(result)
    for msg in failures:
        print(f"rate gate: {msg}")
    ok &= not failures
    print("converge:", "PASS" if ok else "FAIL")
    return PASS if ok else FAIL


def _cmd_exist(args) -> int:
    cfg = parse_config(args.config)
    result = run_existence_probe(cfg, jobs=args.jobs, force=args.force)

    ok = True
    for row in result.rows:
        if row.skipped:
            print(f"eps={row.eps:g} skipped: {SKIP_REASON}")
            ok = False
            continue
        print(
            f"eps={row.eps:g} sup eps^d E={row.sup_eps_delta_e:.6g} "
            f"N*={row.n_star} monotone={row.composite_monotone} blowup={row.blowup}"
        )
        ok &= (not row.blowup) and row.composite_monotone and row.n_star is not None
    print(f"wrote {emit_exist_report(result, _resolve_out(args, cfg))}")
    ok &= result.sup_bound_ok
    print(f"uniform bound sup_t eps^delta E <= 2 max initial: {result.sup_bound_ok}")
    print("exist:", "PASS" if ok else "FAIL")
    return PASS if ok else FAIL


def _cmd_audit(args) -> int:
    cfg = parse_config(args.config)
    audit = run_inequality_audit(cfg)
    from .diagnostics import TRILINEAR_RATIO_BOUND

    print(f"gagliardo-nirenberg max ratio: {audit.gn_max:.12f} (ok={audit.gn_ok})")
    print(f"sobolev interpolation max ratio: {audit.sobolev_interp_max:.12f} (ok={audit.interp_ok})")
    print(f"sup-norm/besov max ratio (reported only): {audit.linf_besov_max:.6f}")
    print(f"bernstein max ratio: {audit.bernstein_max:.12f} (ok={audit.bernstein_ok})")
    print(f"jackson max ratio: {audit.jackson_max:.12f} (ok={audit.jackson_ok})")
    for n3, worst in sorted(audit.trilinear_max.items()):
        print(f"trilinear max ratio at n={n3}: {worst:.6f}")
    bound_ok = all(v <= TRILINEAR_RATIO_BOUND for v in audit.trilinear_max.values())
    print(f"trilinear stable across n: {audit.trilinear_stable}; under bound {TRILINEAR_RATIO_BOUND}: {bound_ok}")
    ok = audit.gn_ok and audit.interp_ok and audit.bernstein_ok and audit.jackson_ok
    ok = ok and audit.trilinear_stable and bound_ok
    print("audit:", "PASS" if ok else "FAIL")
    return PASS if ok else FAIL


def _cmd_taylor_green(args) -> int:
    # heat-side regression: analytic decay of the vortex
    grid = make_grid(2, 64)
    tg = taylor_green(grid)
    T, dt = 0.5, 1e-3
    final = ns_solve(tg, T, dt=dt)
    exact = np.exp(-2.0 * T) * inverse_transform(tg)
    ns_err = float(np.max(np.abs(inverse_transform(final.v) - exact)))
    print(f"navier-stokes taylor-green max pointwise error at T={T}: {ns_err:.3e}")

    # wave-side regression: per-mode damped oscillator
    eps, Tw = 0.05, 1.0
    final_w = nlw_solve(tg, 0.0 * tg, eps, Tw, dt=dt)
    amp, _ = propagate_mode(eps, 2.0, Tw, 1.0, 0.0)
    exact_w = amp.real * inverse_transform(tg)
    nlw_err = float(np.max(np.abs(inverse_transform(final_w.u) - exact_w)))
    print(f"damped-wave taylor-green max pointwise error at T={Tw}, eps={eps}: {nlw_err:.3e}")

    ok = ns_err <= 1e-8 and nlw_err <= 1e-8
    print("taylor-green:", "PASS" if ok else "FAIL")
    return PASS if ok else FAIL


def _cmd_normalize_config(args) -> int:
    cfg = parse_config(args.config)
    sys.stdout.write(normalized_dump(cfg))
    return PASS


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hypns", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_config=True):
        sp = sub.add_parser(name)
        if needs_config:
            sp.add_argument("--config", required=True, help="experiment config file")
        sp.set_defaults(handler=fn)
        return sp

    for name, fn in (("converge", _cmd_converge), ("exist", _cmd_exist)):
        sp = add(name, fn)
        sp.add_argument("--out", default=None, help="output directory (overrides HYPNS_OUT and config)")
        sp.add_argument("--jobs", type=_jobs, default=1, help="parallel workers across eps values")
    sub.choices["exist"].add_argument("--force", action="store_true", help="proceed past failed admissibility checks")
    add("audit", _cmd_audit)
    add("taylor-green", _cmd_taylor_green, needs_config=False)
    add("normalize-config", _cmd_normalize_config)
    return p


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  A usage error (a
    missing or unknown option, a bad ``--jobs``) is an error, 1: argparse
    exits with 2, which here means a failed check."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return ERROR if exc.code else PASS
    try:
        return args.handler(args)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return ERROR
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
