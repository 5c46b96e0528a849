"""Experiment configuration, sweep orchestration, and rate fitting."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from .diagnostics import (
    cross_term_quadrature,
    energy_decay_audit,
    interpolation_ratios,
    make_energy_report,
    trilinear_ratio,
)
from .initial_data import (
    SMALLNESS_BOUND,
    HypothesisReport,
    check_bernstein,
    check_hypotheses,
    check_jackson,
    random_divergence_free_field,
    synth_hs_field,
    taylor_green,
    truncate_initial_data,
)
from .ns import SolverFailure, default_dt, dt_v, ns_solve
from .nlw import nlw_solve
from .spectral import SpectralField, base_sigma, hs_inner, make_grid, require_real, zero_field


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first access (PEP 562).

    Only ``jobs > 1`` runs a pool, and importing ``concurrent.futures.process``
    loads ``multiprocessing``, which a single-process run never uses."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, checked in full when built: any violation
    raises ``ConfigError`` listing them all.  A field annotated ``int``
    takes an integral number only (a numpy integer, not a ``bool`` or a
    float); one annotated ``float``, and each ``eps_list`` entry, a finite
    real number (an integer or a float, not a ``bool``).  ``eps_list``, a
    sequence, is stored as a tuple, so a config hashes and cannot change
    after its check."""

    dim: int = 2
    n: int = 64
    s: float = 0.5
    delta: float = 0.5
    eps_list: tuple = (1e-1, 1e-2, 1e-3)
    T: float = 1.0
    dt: float | None = None
    seed: int = 0
    amplitude: float = 1.0
    data_source: str = "synthetic"
    data_file: str | None = None
    out_dir: str = "out"
    sample_stride: int = 10

    def __post_init__(self):
        # every float value, each eps_list entry included; a bool is a
        # number to Python, but no size or time, and only dt may be None
        floats = [(f.name, getattr(self, f.name)) for f in fields(self) if _kind(f) == "float"]
        try:
            object.__setattr__(self, "eps_list", tuple(self.eps_list))
        except TypeError:
            bad = [f"eps_list: must be a sequence of numbers, got {type(self.eps_list).__name__}"]
            unchecked = {"eps_list"}
        else:
            bad, unchecked = [], set()
            floats += [("eps_list", e) for e in self.eps_list]
        nonreal = [
            (k, v) for k, v in floats if isinstance(v, bool) or not (isinstance(v, Real) or k == "dt" and v is None)
        ]
        nonfinite = [(k, why) for k, v in floats if isinstance(v, Real) and (why := _not_finite(v))]
        bad += [f"{k}: must be a real number, got {v!r}" for k, v in nonreal]
        bad += [f"{k}: must be finite, {why}" for k, why in nonfinite]
        # a field whose value is of the wrong kind or not finite skips its range checks
        unchecked |= {k for k, _ in nonreal + nonfinite}
        ints = [(f.name, getattr(self, f.name)) for f in fields(self) if _kind(f) == "int"]
        # a bool is an int to Python, but no count or seed
        nonint = {k for k, v in ints if isinstance(v, bool) or not isinstance(v, (int, np.integer))}
        bad += [f"{k}: must be an integer, got {v}" for k, v in ints if k in nonint]
        if "dim" not in nonint and self.dim not in (2, 3):
            bad.append(f"dim: must be 2 or 3, got {self.dim}")
        if "n" not in nonint and (self.n < 8 or self.n % 2 != 0):
            bad.append(f"n: must be even and >= 8, got {self.n}")
        if "s" not in unchecked and not 0.0 < self.s < 1.0:
            bad.append(f"s: s in (0,1) is required for the convergence-rate claims, got {self.s}")
        if "delta" not in unchecked and not 0.0 < self.delta < 1.0:
            bad.append(f"delta: must lie in (0,1), got {self.delta}")
        eps = () if "eps_list" in unchecked else self.eps_list
        if self.eps_list == ():  # a value that is no sequence was kept as given, not made a tuple
            bad.append("eps_list: must be nonempty")
        elif any(e <= 0 for e in eps):
            bad.append("eps_list: all entries must be > 0")
        elif any(b >= a for a, b in zip(eps, eps[1:])):
            bad.append("eps_list: must be strictly descending")
        if "T" not in unchecked and self.T < 0:
            bad.append(f"T: must be >= 0, got {self.T}")
        if "dt" not in unchecked and self.dt is not None and self.dt <= 0:
            bad.append(f"dt: must be > 0 when given, got {self.dt}")
        if "seed" not in nonint and self.seed < 0:
            bad.append(f"seed: must be >= 0, got {self.seed}")
        if "amplitude" not in unchecked and self.amplitude < 0:
            bad.append(f"amplitude: must be >= 0, got {self.amplitude}")
        if self.data_source not in ("synthetic", "taylor_green", "file"):
            bad.append(f"data_source: unknown source {self.data_source!r}")
        if self.data_source == "taylor_green" and self.dim != 2:
            bad.append("data_source: taylor_green is 2D only")
        if self.data_source == "file" and not self.data_file:
            bad.append("data_file: required when data_source = file")
        if "sample_stride" not in nonint and self.sample_stride < 1:
            bad.append(f"sample_stride: must be >= 1, got {self.sample_stride}")
        if bad:
            raise ConfigError(bad)


def _not_finite(x) -> str:
    """Why the real number ``x`` is no finite float, or "" when it is one."""
    try:
        return "" if math.isfinite(x) else f"got {x}"
    except OverflowError:  # an integer too large to convert
        return "got a number beyond the float range"


def _kind(f) -> str:
    """A config field's value type, ``int``, ``float``, ``str`` or ``tuple``:
    its annotation as written, without ``| None``."""
    return f.type.removesuffix(" | None")


def parse_config(path) -> ExperimentConfig:
    """Read the line-oriented ``key = value`` format.

    The keys are the fields of ``ExperimentConfig`` and each value is read
    as its field's annotated type; a field annotated ``| None`` also takes
    ``none`` or an empty value.  A tuple is comma-separated, ``#`` starts a
    comment.  Every violation is collected (with its line number) before
    raising, not just the first.
    """
    schema = {f.name: f for f in fields(ExperimentConfig)}
    violations = []
    values = {}
    seen = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                violations.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in schema:
                violations.append(f"line {lineno}: unknown key {key!r}")
                continue
            if key in seen:
                violations.append(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
                continue
            seen[key] = lineno
            try:
                values[key] = _convert(schema[key], val)
            except ValueError as exc:
                violations.append(f"line {lineno}: {key}: {exc}")

    try:
        cfg = ExperimentConfig(**values)
    except ConfigError as exc:
        violations.extend(exc.violations)
    if violations:
        raise ConfigError(violations)
    return cfg


def _convert(f, val: str):
    kind = _kind(f)
    if kind != f.type and val.lower() in ("none", ""):
        return None
    if kind == "tuple":
        items = [v.strip() for v in val.split(",") if v.strip()]
        return tuple(_finite_float(v) for v in items)
    if kind == "int":
        return int(val)
    if kind == "float":
        return _finite_float(val)
    return val


def _finite_float(val: str) -> float:
    x = float(val)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {val!r}")
    return x


def normalized_dump(cfg: ExperimentConfig) -> str:
    """Canonical re-parseable rendering of a configuration."""
    lines = []
    for f in fields(ExperimentConfig):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if f.type == "tuple":
            val = ", ".join(repr(float(v)) for v in val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    n_points: int
    excluded: int = 0


def fit_rate(pairs) -> RateFit | None:
    """Least squares of log(value) against log(eps) over the (eps, value)
    pairs of any iterable, in closed form: no LAPACK call.

    Nonpositive values are excluded (counted in ``excluded``); returns
    None when fewer than two usable points remain.
    """
    pairs = list(pairs)
    usable = [(e, v) for e, v in pairs if e > 0 and v > 0 and math.isfinite(v)]
    excluded = len(pairs) - len(usable)
    if len(usable) < 2:
        return None
    x = np.log([e for e, _ in usable])
    y = np.log([v for _, v in usable])
    # <dx, dy> / |dx|^2 as the component of dy along dx / |dx|, over |dx|
    dx = x - x.mean()
    norm = np.sqrt(np.sum(dx * dx))
    slope = np.sum(dx / norm * (y - y.mean())) / norm
    intercept = y.mean() - slope * x.mean()
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(float(slope), float(intercept), r2, len(usable), excluded)


# ---------------------------------------------------------------------------
# Reference data
# ---------------------------------------------------------------------------


def load_field(path, grid) -> SpectralField:
    """Read a field from an ``.npz`` file with the integer scalars ``dim``
    and ``n`` and the array ``coeffs``: unitary coefficients of shape
    (dim, n, ..., n, n//2+1) on the half spectrum, those of a real field.
    A file without those keys, a plain ``.npy`` among them, a ``dim`` or
    ``n`` that is no integer scalar, or coefficients of another shape or of
    no real field (``require_real``) raise ValueError."""
    with open(path, "rb") as fh:
        data = np.load(fh)
        missing = [k for k in ("dim", "n", "coeffs") if k not in getattr(data, "files", ())]
        if missing:
            raise ValueError(f"field file {path} lacks the keys {', '.join(missing)}")
        dim, n, c = data["dim"], data["n"], data["coeffs"]
    for key, a in (("dim", dim), ("n", n)):
        if a.ndim or a.dtype.kind not in "iu":
            raise ValueError(f"field file {path}: {key} must be an integer scalar, got {a.dtype} {a.shape}")
    if dim != grid.dim or n != grid.n:
        raise ValueError(f"field file is {dim}D n={n}, expected {grid.dim}D n={grid.n}")
    f = SpectralField(grid, c)
    require_real(f)
    return f


def build_reference_field(cfg: ExperimentConfig, grid) -> SpectralField:
    if cfg.data_source == "taylor_green":
        return cfg.amplitude * taylor_green(grid)
    if cfg.data_source == "file":
        return load_field(cfg.data_file, grid)
    return synth_hs_field(grid, cfg.seed, cfg.s, cfg.amplitude)


def build_wave_data(v0: SpectralField, eps: float):
    """The relaxed system's data (u0, u1) for one eps: ``v0`` truncated at
    the cutoff eps^(-1/2), and the zero initial velocity.  Every run starts
    from rest, and this is the one place its zero u1 is made."""
    return truncate_initial_data(v0, eps), zero_field(v0.grid)


# ---------------------------------------------------------------------------
# Convergence sweep and existence probe
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    """One eps of a sweep or probe.  Without a reference run the error columns
    (``sup_err_sq``, ``sup_dafermos``, ``cross_term``) are NaN."""

    eps: float
    sup_err_sq: float = math.nan
    sup_dafermos: float = math.nan
    sup_eps_delta_e: float = math.nan
    cross_term: float = math.nan
    blowup_t: float | None = None
    first_threshold_violation_t: float | None = None
    n_star: int | None = None
    hypothesis: HypothesisReport | None = None
    reports: list = field(default_factory=list)
    initial_eps_delta_e: float = math.nan
    composite_monotone: bool = False
    skipped: bool = False

    @property
    def blowup(self) -> bool:
        """True when the solve failed, at ``blowup_t``."""
        return self.blowup_t is not None


@dataclass
class SweepResult:
    config: ExperimentConfig
    dt_used: float
    rows: list
    fit: RateFit | None


# what ``fit.txt`` and the rate gate say of a sweep whose fit is None
FIT_UNDEFINED = "fit undefined: need at least two usable rows"

# why a probe skips a row (``SweepRow.skipped``)
SKIP_REASON = "admissibility hypotheses failed (rerun with force to proceed)"


@dataclass
class ExistenceResult:
    config: ExperimentConfig
    rows: list
    max_initial_eps_delta_e: float
    sup_bound_ok: bool


def _wave_run(cfg: ExperimentConfig, eps: float, v0: SpectralField, dt: float, ref, force: bool) -> SweepRow:
    """Solve the relaxed system for one eps and audit its energies.

    ``v0`` is the reference data; the solve runs on its grid, so every eps
    of a run shares one ``Grid`` and its tables.  ``ref`` is the reference
    run as a list of ``NsState`` samples, or None; the samples are on
    v0's grid.  Data that fail admissibility are skipped unless ``force``
    is set.

    The wave data (u0, u1) are popped out of a list into the solve's
    call, so this frame holds no name for them while the solve steps, and
    the solve frees them after its first step (``nlw_solve``)."""
    data = list(build_wave_data(v0, eps))
    hyp = check_hypotheses(data[0], v0, eps, cfg.s, cfg.delta)
    if not hyp.passed and not force:
        return SweepRow(eps, hypothesis=hyp, skipped=True)

    sigma0 = base_sigma(v0.grid.dim)
    reports = []
    cross_vals = []

    def observer(state):
        v = None
        if ref is not None:
            i = len(reports)
            if i >= len(ref) or state.t != ref[i].t:
                raise RuntimeError("wave samples drifted out of alignment with the reference run")
            v = ref[i].v
        reports.append(make_energy_report(state, cfg.delta, v=v))
        if v is not None:
            cross_vals.append(hs_inner(state.ut, dt_v(v), sigma0))

    blowup_t = None
    try:
        nlw_solve(data.pop(0), data.pop(0), eps, cfg.T, dt=dt, observer=observer, stride=cfg.sample_stride)
    except SolverFailure as exc:
        blowup_t = exc.t

    n_star, composite_monotone = energy_decay_audit(reports)
    return SweepRow(
        eps=eps,
        sup_err_sq=max(r.err_sq for r in reports),
        sup_dafermos=max(r.dafermos for r in reports),
        sup_eps_delta_e=eps**cfg.delta * max(r.e_delta for r in reports),
        cross_term=math.nan if ref is None else cross_term_quadrature(eps, [r.t for r in reports], cross_vals),
        blowup_t=blowup_t,
        first_threshold_violation_t=next((r.t for r in reports if not r.threshold_ok), None),
        n_star=n_star,
        hypothesis=hyp,
        reports=reports,
        initial_eps_delta_e=eps**cfg.delta * reports[0].e_delta,
        composite_monotone=composite_monotone,
    )


def _reference_data(cfg: ExperimentConfig, ref=None):
    """The reference field v0 and the step dt.  Given the reference run
    ``ref``, v0 is its t = 0 sample, on the samples' grid; without one,
    v0 is built from the config on a grid of its own."""
    v0 = build_reference_field(cfg, make_grid(cfg.dim, cfg.n)) if ref is None else ref[0].v
    return v0, cfg.dt if cfg.dt is not None else default_dt(v0)


def _run_eps_list(cfg: ExperimentConfig, jobs: int, with_reference: bool, force: bool):
    """Solve the reference system if asked, then run ``_wave_run`` per eps.

    This process builds v0 and dt only where it solves with them: for the
    reference, or for every eps when ``jobs <= 1``.  A pool worker takes
    v0 from the reference run when there is one, and builds it from the
    config when there is none.  Returns dt (None when this process built
    no v0) and the rows in ``eps_list`` order, which the config's
    constructor requires to descend."""
    v0 = dt = ref = None
    if with_reference or jobs <= 1:
        v0, dt = _reference_data(cfg)
    if with_reference:
        ref = []
        ns_solve(v0, cfg.T, dt=dt, observer=ref.append, stride=cfg.sample_stride)

    if jobs <= 1:
        rows = [_wave_run(cfg, eps, v0, dt, ref, force) for eps in cfg.eps_list]
    else:
        # each worker receives everything but eps once, when it starts, so
        # a task does not pickle the reference samples again; the pool
        # starts all its workers at the first task, so it gets no more
        # workers than tasks
        workers = min(jobs, len(cfg.eps_list))
        # looked up on the module, so that a pool class set there (a
        # wrapper or a test double) is the one used
        pool = sys.modules[__name__].ProcessPoolExecutor
        with pool(max_workers=workers, initializer=_hold_shared, initargs=(cfg, ref, force)) as ex:
            rows = list(ex.map(_wave_run_shared, cfg.eps_list))
    return dt, rows


_shared = None  # a pool worker's (cfg, ref, force), set by _hold_shared
_data = None  # the worker's (v0, dt), set at its first task


def _hold_shared(*shared):
    global _shared
    _shared = shared


def _wave_run_shared(eps: float) -> SweepRow:
    global _data
    cfg, ref, force = _shared
    if _data is None:
        # built in a task, not in _hold_shared, so that a bad data file
        # raises its ValueError in the parent instead of breaking the pool
        _data = _reference_data(cfg, ref)
    v0, dt = _data
    return _wave_run(cfg, eps, v0, dt, ref, force)


def run_convergence(cfg: ExperimentConfig, jobs: int = 1) -> SweepResult:
    """Solve the reference system once, then the relaxed system per eps,
    recording sup-in-time errors and the full diagnostic series.  No row is
    skipped for failing admissibility.  Deterministic for a fixed (config,
    seed) regardless of ``jobs``.  With ``jobs > 1`` the eps values run in a
    process pool whose workers receive the config and the reference samples
    once, when they start, and take ``v0`` from the samples (it is the
    reference run's t = 0 sample); each task carries only its eps."""
    dt, rows = _run_eps_list(cfg, jobs, with_reference=True, force=True)
    fit = fit_rate([(r.eps, r.sup_err_sq) for r in rows])
    return SweepResult(config=cfg, dt_used=dt, rows=rows, fit=fit)


# how far below the claimed rate an acceptable fitted slope may sit
SLOPE_TOL = {2: 0.1, 3: 0.15}


def reference_slope(cfg: ExperimentConfig) -> float:
    """The claimed rate s/2 of ``sup_err_sq`` in eps."""
    return cfg.s / 2.0


def slope_floor(cfg: ExperimentConfig) -> float:
    return reference_slope(cfg) - SLOPE_TOL[cfg.dim]


def rate_failures(result: SweepResult) -> list:
    """The acceptance gates of the rate claim that a sweep fails; empty when
    it passes.  The fitted slope must reach ``slope_floor``.  A 2D fit also
    needs R^2 >= 0.9; a 3D sweep needs the critical norm of its data (the
    largest ``hypothesis.smallness``) below 1/16."""
    cfg, fit = result.config, result.fit
    if fit is None:
        return [FIT_UNDEFINED]
    bad = []
    if not fit.slope >= slope_floor(cfg):
        bad.append(f"slope {fit.slope:.4f} below floor {slope_floor(cfg):.4f}")
    if cfg.dim == 2 and not fit.r2 >= 0.9:
        bad.append(f"R2 {fit.r2:.4f} below 0.9")
    if cfg.dim == 3:
        small = max(r.hypothesis.smallness for r in result.rows)
        if not small < SMALLNESS_BOUND:
            bad.append(f"critical norm {small:.4f} not below 1/16")
    return bad


def run_existence_probe(cfg: ExperimentConfig, jobs: int = 1, force: bool = False) -> ExistenceResult:
    """Solve the relaxed system per eps without a reference run and check
    that eps^delta E stays within twice its largest initial value.

    Rows whose data fail the admissibility hypotheses are skipped (no
    solve, ``skipped`` set) unless ``force`` is set.  Deterministic for a
    fixed (config, seed) regardless of ``jobs``.  With ``jobs > 1`` the pool
    workers receive the configuration once, when they start, and build
    ``v0`` from it; this process builds no field.  Each task carries only
    its eps."""
    _, rows = _run_eps_list(cfg, jobs, with_reference=False, force=force)
    ran = [r for r in rows if not r.skipped]
    max_initial = max((r.initial_eps_delta_e for r in ran), default=math.nan)
    sup_ok = bool(ran) and all(r.sup_eps_delta_e <= 2.0 * max_initial for r in ran)
    return ExistenceResult(cfg, rows, max_initial, sup_ok)


# ---------------------------------------------------------------------------
# Inequality audit
# ---------------------------------------------------------------------------


@dataclass
class InequalityAudit:
    gn_max: float
    sobolev_interp_max: float
    linf_besov_max: float
    bernstein_max: float
    jackson_max: float
    trilinear_max: dict
    gn_ok: bool
    interp_ok: bool
    bernstein_ok: bool
    jackson_ok: bool
    trilinear_stable: bool


# the audit's sample sizes: fields per lattice-inequality sweep (a quarter
# of them for Bernstein and Jackson), and fields per 3D grid of the
# trilinear estimate, on each of the grids TRILINEAR_NS
AUDIT_FIELDS = 200
TRILINEAR_FIELDS = 500
TRILINEAR_NS = (16, 32)


def run_inequality_audit(cfg: ExperimentConfig) -> InequalityAudit:
    """Random-field sweeps of the exact lattice inequalities plus the 3D
    trilinear estimate, reporting max ratios per resolution."""
    grid = make_grid(cfg.dim, cfg.n)

    gn_max = interp_max = linf_max = 0.0
    for i in range(AUDIT_FIELDS):
        f = random_divergence_free_field(grid, cfg.seed * 1009 + i)
        r = interpolation_ratios(f, cfg.delta)
        gn_max = max(gn_max, r["gagliardo_nirenberg"])
        interp_max = max(interp_max, r["sobolev_interpolation"])
        linf_max = max(linf_max, r["linf_besov"])

    bern_max = jack_max = 0.0
    sigmas = (cfg.s, 1.0, 1.0 + cfg.delta)
    for i in range(max(1, AUDIT_FIELDS // 4)):
        v0 = synth_hs_field(grid, cfg.seed * 2003 + i, cfg.s, 1.0)
        for eps in cfg.eps_list:
            u0 = truncate_initial_data(v0, eps)
            jack_max = max(jack_max, check_jackson(v0, u0, eps, cfg.s))
            for sig in sigmas:
                bern_max = max(bern_max, check_bernstein(v0, u0, eps, sig, cfg.s))

    # low-mode-dominated spectra keep the max-ratio statistic comparable
    # across resolutions
    trilinear_max = {}
    for n3 in TRILINEAR_NS:
        g3 = make_grid(3, n3)
        worst = 0.0
        for i in range(TRILINEAR_FIELDS):
            f = random_divergence_free_field(
                g3, cfg.seed * 4001 + 1009 * n3 + i, band=g3.dealias_cutoff, slope=3.0
            )
            worst = max(worst, trilinear_ratio(f))
        trilinear_max[n3] = worst

    vals = list(trilinear_max.values())
    stable = max(vals) <= 1.10 * min(vals) if len(vals) > 1 and min(vals) > 0 else True
    return InequalityAudit(
        gn_max=gn_max,
        sobolev_interp_max=interp_max,
        linf_besov_max=linf_max,
        bernstein_max=bern_max,
        jackson_max=jack_max,
        trilinear_max=trilinear_max,
        gn_ok=gn_max <= 1.0 + 1e-12,
        interp_ok=interp_max <= 1.0 + 1e-12,
        bernstein_ok=bern_max <= 1.0,
        jackson_ok=jack_max <= 1.0,
        trilinear_stable=stable,
    )
