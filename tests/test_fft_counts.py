"""Transform counts of the benchmark workloads.

Runs the quick configuration of every workload in ``bench/workloads.py``
in this process, with counting wrappers around the ``numpy.fft`` entry
points, and compares the counts with that module's own arithmetic
(``expected_counts``).  An extra transform hidden in a refactor then fails
the test suite, not only a traced benchmark run.
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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_transform_counts_match_benchmark_arithmetic(name, monkeypatch):
    counts = dict.fromkeys(("inverse", "forward", "points", "ns", "nlw", "reports"), 0)
    for fname in FFT_NAMES:
        fn = getattr(np.fft, fname)

        def counted(*args, _fn=fn, _key="inverse" if fname.startswith("i") else "forward", **kwargs):
            out = _fn(*args, **kwargs)
            counts[_key] += 1
            # points as the benchmark counts them: the larger of input and output
            counts["points"] += max(getattr(args[0], "size", 0) if args else 0, out.size)
            return out

        monkeypatch.setattr(np.fft, fname, counted)
    count_calls(monkeypatch, ns._NsStepper, "step", counts, "ns")
    count_calls(monkeypatch, nlw._NlwStepper, "step", counts, "nlw")
    count_calls(monkeypatch, experiments, "make_energy_report", counts, "reports")

    wl = workloads.WORKLOADS[name]
    cfg = experiments.ExperimentConfig(**workloads.experiment_config(name, wl["default_seed"], quick=True))
    if wl["entry"] == "converge":
        experiments.run_convergence(cfg, jobs=1)
    else:
        experiments.run_existence_probe(cfg, jobs=1)

    got = {
        "ns.steps": counts["ns"],
        "nlw.steps": counts["nlw"],
        "diagnostics.report_calls": counts["reports"],
        "spectral.fft_inverse_calls": counts["inverse"],
        "spectral.fft_forward_calls": counts["forward"],
        "spectral.fft_calls": counts["inverse"] + counts["forward"],
        "spectral.fft_points": counts["points"],
    }
    assert got == workloads.expected_counts(name, quick=True)
