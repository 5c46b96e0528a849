"""Transform counts of the benchmark workloads.

Runs the quick configuration of every workload in ``bench/workloads.py``
in this process, with counting wrappers around the ``numpy.fft`` entry
points, and compares the counts with the per-pass arithmetic below, on the
configs, step plan and sample count of that module.  An extra transform or
pass hidden in a refactor then fails the test suite, not only a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hypns.nlw as nlw
import hypns.ns as ns
from hypns import experiments

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# the transform entry points the benchmark counts
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
)
# the complex-to-complex passes; every other entry point is one transform
C2C_PASSES = ("fft", "ifft")


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = load_workloads()


def count_calls(monkeypatch, owner, name, counts, key):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def expected_counts(cfg, converge):
    """Counts of one run from the config alone.

    A forcing is one inverse transform of the dim components and one
    forward transform per trace-free product, dim(dim+1)/2 - 1 of them.
    Each of these real passes (``irfft``, ``rfft``) comes with dim-1
    complex passes, one per other axis, over the lines the 2/3-rule box
    reaches or keeps: the pass on spatial axis a (0-based) transforms an
    array of n^(a+1) (2c+1)^(dim-2-a) (c+1) points, c = (n-1)//3, in both
    directions.  NS takes 4 forcings per step, the wave scheme 2, and
    ``dt_v`` one per reference sample.  Each energy report takes one
    whole inverse transform (``linf_norm``): dim-1 ``ifft`` passes over
    the whole half spectrum, dim n^(dim-1) (n/2+1) points each, and one
    ``irfft``.  The reference field takes one whole forward transform.  A
    call's points are the larger of its input and output sizes.
    """
    dim, n = cfg["dim"], cfg["n"]
    c = (n - 1) // 3
    npts = n**dim
    steps = workloads.plan_steps(cfg["T"], cfg["dt"])
    samples = workloads.sample_count(steps, cfg["sample_stride"])
    n_eps = len(cfg["eps_list"])

    ns_steps = steps if converge else 0
    forcings = 4 * ns_steps + n_eps * 2 * steps + (n_eps * samples if converge else 0)
    reports = n_eps * samples
    products = dim * (dim + 1) // 2 - 1
    pass_points = sum(n ** (a + 1) * (2 * c + 1) ** (dim - 2 - a) * (c + 1) for a in range(dim - 1))
    return {
        "ns.steps": ns_steps,
        "nlw.steps": n_eps * steps,
        "diagnostics.report_calls": reports,
        "inverse_transforms": forcings + reports,
        "forward_transforms": 1 + products * forcings,
        "inverse_c2c_passes": (dim - 1) * (forcings + reports),
        "forward_c2c_passes": (dim - 1) * products * forcings,
        "points": (dim + products) * forcings * (npts + pass_points)
        + (reports + 1) * dim * npts
        + (dim - 1) * reports * dim * n ** (dim - 1) * (n // 2 + 1),
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_transform_counts_match_benchmark_arithmetic(name, monkeypatch):
    wl = workloads.WORKLOADS[name]
    cfg = workloads.experiment_config(name, wl["default_seed"], quick=True)
    want = expected_counts(cfg, wl["entry"] == "converge")
    counts = dict.fromkeys(want, 0)
    for fname in FFT_NAMES:
        kind = "c2c_passes" if fname in C2C_PASSES else "transforms"
        key = f"{'inverse' if fname.startswith('i') else 'forward'}_{kind}"

        def counted(*args, _fn=getattr(np.fft, fname), _key=key, **kwargs):
            out = _fn(*args, **kwargs)
            counts[_key] += 1
            counts["points"] += max(getattr(args[0], "size", 0) if args else 0, out.size)
            return out

        monkeypatch.setattr(np.fft, fname, counted)
    count_calls(monkeypatch, ns._NsStepper, "step", counts, "ns.steps")
    count_calls(monkeypatch, nlw._NlwStepper, "step", counts, "nlw.steps")
    count_calls(monkeypatch, experiments, "make_energy_report", counts, "diagnostics.report_calls")

    run = experiments.run_convergence if wl["entry"] == "converge" else experiments.run_existence_probe
    run(experiments.ExperimentConfig(**cfg), jobs=1)
    assert counts == want
