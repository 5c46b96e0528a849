"""Deterministic CSV, fit, and SVG emission for experiment results.

Output is byte-identical for identical results: floats are rendered with
``repr`` (shortest round-trip) and the SVG is assembled from a fixed
template with no timestamps or generated ids.
"""

from __future__ import annotations

import math
import os

from .experiments import (
    FIT_UNDEFINED, ExistenceResult, ExperimentConfig, RateFit, SweepResult, reference_slope, slope_floor,
)

SWEEP_COLUMNS = (
    "epsilon",
    "sup_err_sq",
    "sup_dafermos",
    "sup_eps_delta_E",
    "cross_term",
    "blowup",
    "first_threshold_violation_t",
)

ENERGY_COLUMNS = ("t", "e_base", "e_delta", "composite", "dafermos", "linf")

EXIST_COLUMNS = (
    "epsilon", "skipped", "blowup", "initial_eps_delta_E", "sup_eps_delta_E", "n_star", "composite_monotone"
)


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, columns, rows):
    """A header of ``columns`` and one line per row of values, each
    rendered by ``_fmt``."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def write_fit_txt(path, fit: RateFit | None, cfg: ExperimentConfig):
    lines = []
    if fit is None:
        lines.append("fit: undefined")
        lines.append(f"note: {FIT_UNDEFINED}")
    else:
        lines.append(f"slope = {fit.slope!r}")
        lines.append(f"intercept = {fit.intercept!r}")
        lines.append(f"r2 = {fit.r2!r}")
        lines.append(f"n_points = {fit.n_points}")
        lines.append(f"excluded = {fit.excluded}")
        lines.append(f"reference_slope = {reference_slope(cfg)!r}")
        lines.append(f"slope_floor = {slope_floor(cfg)!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Minimal self-contained SVG log-log plot
# ---------------------------------------------------------------------------

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def loglog_svg(points, fit: RateFit | None, ref_slope: float, ylabel: str) -> str:
    """Scatter + fitted line + reference-slope guide of the relaxation
    error against eps, as one SVG string; ``ylabel`` names the error."""
    pts = [(x, y) for x, y in points if x > 0 and y > 0 and math.isfinite(y)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xlo == xhi:
        xlo, xhi = xlo / 10.0, xhi * 10.0
    if ylo == yhi:
        ylo, yhi = ylo / 10.0, yhi * 10.0

    def sx(x):
        f = (math.log10(x) - math.log10(xlo)) / (math.log10(xhi) - math.log10(xlo))
        return _ML + f * (_W - _ML - _MR)

    def sy(y):
        f = (math.log10(y) - math.log10(ylo)) / (math.log10(yhi) - math.log10(ylo))
        return _H - _MB - f * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="18" text-anchor="middle">relaxation error vs eps</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>'
    )
    for tx in _ticks(xlo, xhi):
        if xlo <= tx <= xhi:
            parts.append(
                f'<line x1="{sx(tx):.2f}" y1="{_H - _MB}" x2="{sx(tx):.2f}" y2="{_H - _MB + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{sx(tx):.2f}" y="{_H - _MB + 18}" text-anchor="middle">{tx:g}</text>'
            )
    for ty in _ticks(ylo, yhi):
        if ylo <= ty <= yhi:
            parts.append(
                f'<line x1="{_ML - 5}" y1="{sy(ty):.2f}" x2="{_ML}" y2="{sy(ty):.2f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{_ML - 8}" y="{sy(ty):.2f}" text-anchor="end" dominant-baseline="middle">{ty:g}</text>'
            )
    parts.append(f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle">eps</text>')
    parts.append(
        f'<text x="16" y="{_H // 2}" text-anchor="middle" transform="rotate(-90 16 {_H // 2})">{ylabel}</text>'
    )

    if fit is not None:
        y0 = math.exp(fit.intercept + fit.slope * math.log(xlo))
        y1 = math.exp(fit.intercept + fit.slope * math.log(xhi))
        y0c, y1c = max(min(y0, yhi), ylo), max(min(y1, yhi), ylo)
        parts.append(
            f'<line x1="{sx(xlo):.2f}" y1="{sy(y0c):.2f}" x2="{sx(xhi):.2f}" y2="{sy(y1c):.2f}" '
            'stroke="crimson" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_ML + 10}" y="{_MT + 18}" fill="crimson">fit slope {fit.slope:.4f} (R2 {fit.r2:.4f})</text>'
        )
    # reference slope anchored at the largest-eps point
    xa, ya = pts[0]
    for x, y in pts:
        if x > xa:
            xa, ya = x, y
    yref = ya * (xlo / xa) ** ref_slope
    yrefc = max(min(yref, yhi), ylo)
    parts.append(
        f'<line x1="{sx(xa):.2f}" y1="{sy(ya):.2f}" x2="{sx(xlo):.2f}" y2="{sy(yrefc):.2f}" '
        'stroke="steelblue" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<text x="{_ML + 10}" y="{_MT + 34}" fill="steelblue">reference slope {ref_slope:.4f}</text>'
    )
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(result: SweepResult, out_dir) -> list:
    """Write sweep.csv, per-eps energy series, fit.txt, and the log-log SVG.

    Byte-deterministic given identical results; returns written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "sweep.csv")
    rows = [
        (r.eps, r.sup_err_sq, r.sup_dafermos, r.sup_eps_delta_e, r.cross_term, r.blowup, r.first_threshold_violation_t)
        for r in result.rows
    ]
    _write_csv(path, SWEEP_COLUMNS, rows)
    written.append(path)

    for row in result.rows:
        path = os.path.join(out_dir, f"energies_{row.eps!r}.csv")
        reports = [(r.t, r.e_base, r.e_delta, r.composite, r.dafermos, r.linf) for r in row.reports]
        _write_csv(path, ENERGY_COLUMNS, reports)
        written.append(path)

    path = os.path.join(out_dir, "fit.txt")
    write_fit_txt(path, result.fit, result.config)
    written.append(path)

    pts = [(r.eps, r.sup_err_sq) for r in result.rows if r.sup_err_sq > 0 and math.isfinite(r.sup_err_sq)]
    if pts:
        path = os.path.join(out_dir, "sweep_rate.svg")
        err_label = "sup_t ||u_eps - v||^2 (L2)" if result.config.dim == 2 else "sup_t ||u_eps - v||^2 (H^1/2)"
        svg = loglog_svg(pts, result.fit, reference_slope(result.config), err_label)
        _write_text(path, svg)
        written.append(path)
    return written


def emit_exist_report(result: ExistenceResult, out_dir) -> str:
    """Write exist.csv, one line per eps, and return its path.  A row's
    ``n_star`` of None is written ``None``, not ``nan``."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "exist.csv")
    rows = [
        (r.eps, r.skipped, r.blowup, r.initial_eps_delta_e, r.sup_eps_delta_e, str(r.n_star), r.composite_monotone)
        for r in result.rows
    ]
    _write_csv(path, EXIST_COLUMNS, rows)
    return path
