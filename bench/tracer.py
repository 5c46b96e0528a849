"""In-memory spans around the program's layer entry points.

The tracer replaces public names at the import sites the experiment layer
calls through (module attributes), so nothing inside the program is
edited.  A name a later refactor removes is recorded as absent and simply
not traced.  Spans live in memory and are exported at the end of the run;
processes forked by ``multiprocessing`` (the experiment pool) start with an
empty record and write it to ``dump_dir`` when they exit.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import math
import multiprocessing.util
import os
import time

from workloads import plan_steps

# (span name, hypns module, attribute the experiment layer calls through)
LAYER_ENTRY_POINTS = (
    ("initial_data.build_reference_field", "experiments", "build_reference_field"),
    ("initial_data.build_wave_data", "experiments", "build_wave_data"),
    ("initial_data.check_hypotheses", "experiments", "check_hypotheses"),
    ("ns.ns_solve", "experiments", "ns_solve"),
    ("ns.dt_v", "experiments", "dt_v"),
    ("nlw.nlw_solve", "experiments", "nlw_solve"),
    ("diagnostics.make_energy_report", "experiments", "make_energy_report"),
    ("diagnostics.energy_decay_audit", "experiments", "energy_decay_audit"),
    ("reporting.emit_report", "reporting", "emit_report"),
)
POOL_SPAN = ("experiments.pool", "experiments", "ProcessPoolExecutor")
SOLVER_SPANS = ("ns.ns_solve", "nlw.nlw_solve")

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)


def _is_inverse(fft_name: str) -> bool:
    return fft_name.startswith("i")


class Tracer:
    """Span and transform-count recorder for one process tree."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.absent = []
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self):
        self.spans = []  # [name, start, end, parent index, info]
        self.fft = {}  # "numpy.fft.fftn" -> [calls, points, seconds]
        self._stack = []

    def _after_fork(self):
        self._reset()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self):
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh)

    # -- recording ---------------------------------------------------------

    def _open(self, name, info=None):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, time.perf_counter(), math.nan, parent, info]
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, span: str):
        """Replace ``module.attr`` with a spanned version of itself."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self
        if inspect.isclass(fn):

            class Spanned(fn):
                def __enter__(self):
                    self._bench_span = tracer._open(span)
                    return super().__enter__()

                def __exit__(self, *exc):
                    try:
                        return super().__exit__(*exc)
                    finally:
                        tracer._close(self._bench_span)

            setattr(module, attr, Spanned)
            return

        solver = span in SOLVER_SPANS
        sig = inspect.signature(fn) if solver else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            info = None
            if solver:
                args, kwargs, info = _solver_probe(sig, args, kwargs)
            rec = tracer._open(span, info)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        setattr(module, attr, spanned)

    def count_fft(self, module, prefix: str):
        """Count calls and transformed points of every transform entry point."""
        tracer = self
        for name in FFT_NAMES:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            key = f"{prefix}.{name}"

            def counted(*args, _fn=fn, _key=key, **kwargs):
                t0 = time.perf_counter()
                out = _fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                rec = tracer.fft.setdefault(_key, [0, 0, 0.0])
                rec[0] += 1
                rec[1] += max(getattr(args[0], "size", 0) if args else 0, out.size)
                rec[2] += dt
                return out

            functools.update_wrapper(counted, fn)
            setattr(module, name, counted)

    def install(self, hypns_modules: dict):
        """Wrap every layer entry point and every FFT entry point."""
        for span, mod, attr in LAYER_ENTRY_POINTS + (POOL_SPAN,):
            self.wrap(hypns_modules[mod], attr, span)
        import numpy.fft

        self.count_fft(numpy.fft, "numpy.fft")
        try:
            import scipy.fft
        except ImportError:
            self.absent.append("scipy.fft")
        else:
            self.count_fft(scipy.fft, "scipy.fft")

    def export(self) -> dict:
        return {"pid": os.getpid(), "spans": self.spans, "fft": self.fft}

    def collect(self) -> list:
        """This process's record followed by those the pool workers wrote."""
        records = [self.export()]
        for path in sorted(glob.glob(os.path.join(self.dump_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        return records


def _solver_probe(sig, args, kwargs):
    """Planned steps, observer calls and field size of one solver call."""
    info = {"steps": None, "samples": 0, "field_bytes": 0}
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return args, kwargs, info
    bound.apply_defaults()
    params = bound.arguments
    T, dt = params.get("T"), params.get("dt")
    info["steps"] = None if T is None or dt is None else plan_steps(T, dt)
    first = bound.args[0] if bound.args else None
    info["field_bytes"] = int(getattr(getattr(first, "coeffs", None), "nbytes", 0))
    observer = params.get("observer")
    if observer is not None:

        def counted(state):
            info["samples"] += 1
            return observer(state)

        params["observer"] = counted
    return bound.args, bound.kwargs, info


def aggregate(records: list, run_s: float) -> dict:
    """Per-span-name totals, transform counts and coverage of a traced run.

    Self time is a span's duration minus its children's.  Coverage is the
    summed self time of the first (measured) process's spans over ``run_s``.
    """
    by_name = {}
    fft = {}
    coverage = 0.0
    for proc_i, rec in enumerate(records):
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, info) in enumerate(spans):
            dur = end - start
            agg = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "steps": 0, "samples": 0, "sample_bytes": 0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[i]
            if info:
                agg["steps"] += info["steps"] or 0
                agg["samples"] += info["samples"]
                agg["sample_bytes"] += info["samples"] * info["field_bytes"]
            if proc_i == 0:
                coverage += dur - child_time[i]
        for key, (calls, points, secs) in rec["fft"].items():
            acc = fft.setdefault(key, [0, 0, 0.0])
            acc[0] += calls
            acc[1] += points
            acc[2] += secs
    fwd = sum(v[0] for k, v in fft.items() if not _is_inverse(k.rsplit(".", 1)[1]))
    inv = sum(v[0] for k, v in fft.items() if _is_inverse(k.rsplit(".", 1)[1]))
    return {
        "spans": by_name,
        "fft": fft,
        "fft_forward_calls": fwd,
        "fft_inverse_calls": inv,
        "fft_points": sum(v[1] for v in fft.values()),
        "fft_s": sum(v[2] for v in fft.values()),
        "processes": len(records),
        "self_time_frac": coverage / run_s if run_s > 0 else math.nan,
    }
