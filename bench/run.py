"""Benchmark of the hypns experiment layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout.  Every sample is a fresh interpreter
(``bench/worker.py``) that imports the checkout's ``src/hypns``, builds the
workload's inputs from the seed and makes the workload's entry call, so each
sample pays the set-up a command-line run pays.  Samples repeat until S
seconds have passed.  Every sample's output is checked (acceptance gates,
byte determinism across the samples, and, on the workload's default seed,
the pinned reference values); a sample that fails is counted and kept out
of the medians.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, from traced samples interleaved with untraced ones.
Human-readable lines come first; the last line of standard output is one
JSON object.  A full record, spans included, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# a run must end within 180 s; no sample round starts that would end later
HARD_LIMIT_S = 160.0

sys.path.insert(0, HERE)
from tracer import aggregate  # noqa: E402
from workloads import WORKLOADS, expected_counts, gate_failures, reference_mismatches  # noqa: E402


def environment() -> dict:
    """Versions, core count, BLAS and FFT backends, thread variables as found."""
    import platform

    import numpy as np

    try:
        import scipy
    except ImportError:
        scipy = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # the checkout may not be a repository
        try:
            proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy else None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fft_backend": "numpy.fft pocketfft" + (" (C++ ufunc)" if hasattr(np.fft, "_pocketfft_umath") else ""),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_child(name, seed, mode, quick, tmp, idx, hard_deadline) -> dict:
    """Start one worker process, wait for it, and return its result."""
    sample_dir = os.path.join(tmp, f"{idx:03d}-{mode}")
    os.mkdir(sample_dir)
    out = os.path.join(sample_dir, "result.json")
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed), "--mode", mode,
           "--out", out, "--tmp", sample_dir] + (["--quick"] if quick else [])
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, hard_deadline - t_spawn))
    except subprocess.TimeoutExpired:
        err = "timed out"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the sample, if any
        except ProcessLookupError:
            pass
        proc.wait()
    elapsed = time.monotonic() - t_spawn
    if proc.returncode != 0 or not os.path.exists(out):
        tail = (err or "").strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"mode": mode, "elapsed": elapsed, "error": tail[0]}
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    res.update(mode=mode, elapsed=elapsed, setup_s=res["ready"] - t_spawn)
    return res


def collect(name, seed, seconds, trace, quick, tmp) -> list:
    """Interleave sample modes until ``seconds`` have passed.

    Untraced runs: one set-up-only process per full run, so set-up is
    sampled twice as often as the run.  Traced runs: one microbenchmark
    process, then traced and untraced runs alternate so the tracing
    overhead is measured under the same conditions.
    """
    start = time.monotonic()
    hard = start + HARD_LIMIT_S
    samples = []
    if trace:
        samples.append(run_child(name, seed, "micro", quick, tmp, 0, hard + 10))
        pattern, minimum = ("plain", "trace"), 2
    else:
        pattern, minimum = ("setup", "plain"), 3
    rounds = 0
    last_round = 0.0
    while True:
        now = time.monotonic()
        if rounds >= minimum and now >= start + seconds:
            break
        if rounds > 0 and now + last_round > hard:
            break
        for mode in pattern:
            samples.append(run_child(name, seed, mode, quick, tmp, len(samples), hard + 10))
        rounds += 1
        last_round = time.monotonic() - now
    return samples


def judge(name, seed, quick, samples) -> None:
    """Mark samples whose output is wrong; sets ``error`` on each failure."""
    runs = [s for s in samples if s["mode"] in ("plain", "trace") and "error" not in s]
    if runs:
        common, _ = Counter(s["output_sha256"] for s in runs).most_common(1)[0]
    reference = None
    wl = WORKLOADS[name]
    if not quick and seed == wl["default_seed"] and os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh).get(name)
    for s in runs:
        problems = []
        if s["output_sha256"] != common:
            problems.append("output bytes differ from the other runs of this check")
        problems.extend(gate_failures(name, s["summary"]))
        if reference is not None:
            problems.extend(reference_mismatches(s["summary"], reference["summary"]))
        if problems:
            s["error"] = "; ".join(problems[:5])


def _median(values):
    return statistics.median(values) if values else None


def _per_call_ms(span):
    return 1e3 * span["total_s"] / span["calls"] if span and span["calls"] else 0.0


def layer_metrics(name, quick, samples) -> tuple:
    """Per-layer metrics, count check and absent names from traced samples."""
    wl = WORKLOADS[name]
    plain = [s for s in samples if s["mode"] == "plain" and "error" not in s]
    traced = [s for s in samples if s["mode"] == "trace" and "error" not in s]
    micro = [s for s in samples if s["mode"] == "micro" and "error" not in s]
    if not plain or not traced:
        return {}, {}, []

    expected = expected_counts(name, quick)
    per_sample = []
    counts = []
    for s in traced:
        agg = aggregate(s["trace"]["records"], s["run_s"])
        sp = agg["spans"]
        ns, nlw = sp.get("ns.ns_solve"), sp.get("nlw.nlw_solve")
        wave = [sp.get("initial_data.build_wave_data"), sp.get("initial_data.check_hypotheses")]
        n_eps = wave[0]["calls"] if wave[0] else 0
        m = {
            "spectral.fft_calls": agg["fft_forward_calls"] + agg["fft_inverse_calls"],
            "spectral.fft_points": agg["fft_points"],
            "spectral.fft_s": agg["fft_s"],
            "ns.solve_self_s": ns["self_s"] if ns else 0.0,
            "ns.steps": ns["steps"] if ns else 0,
            "nlw.solve_self_s": nlw["self_s"] if nlw else 0.0,
            "nlw.steps": nlw["steps"] if nlw else 0,
            "diagnostics.report_calls": sp.get("diagnostics.make_energy_report", {}).get("calls", 0),
            "diagnostics.report_ms": _per_call_ms(sp.get("diagnostics.make_energy_report")),
            "diagnostics.dt_v_ms": _per_call_ms(sp.get("ns.dt_v")),
            "diagnostics.decay_audit_ms": _per_call_ms(sp.get("diagnostics.energy_decay_audit")),
            "initial_data.reference_field_ms": _per_call_ms(sp.get("initial_data.build_reference_field")),
            "initial_data.wave_data_ms": (
                1e3 * sum(w["total_s"] for w in wave if w) / n_eps if n_eps else 0.0
            ),
            "experiments.ref_traj_mb": (ns["sample_bytes"] if ns else 0) / 2**20,
            "reporting.emit_ms": _per_call_ms(sp.get("reporting.emit_report")),
            "trace.self_time_frac": agg["self_time_frac"],
        }
        m["ns.step_ms"] = 1e3 * m["ns.solve_self_s"] / m["ns.steps"] if m["ns.steps"] else 0.0
        m["nlw.step_ms"] = 1e3 * m["nlw.solve_self_s"] / m["nlw.steps"] if m["nlw.steps"] else 0.0
        per_sample.append(m)
        observed = dict(m, **{"spectral.fft_inverse_calls": agg["fft_inverse_calls"],
                              "spectral.fft_forward_calls": agg["fft_forward_calls"]})
        counts.append({k: observed[k] for k in expected})

    metrics = {k: _median([m[k] for m in per_sample]) for k in per_sample[0]}
    run_plain = _median([s["run_s"] for s in plain])
    metrics["trace.overhead_frac"] = _median([s["run_s"] for s in traced]) / run_plain - 1.0
    cpu = [s["worker_cpu_s"] for s in plain]
    metrics["experiments.worker_cpu_s"] = _median(cpu)
    metrics["experiments.pool_busy_frac"] = _median([c / (wl["jobs"] * s["run_s"]) for c, s in zip(cpu, plain)])
    absent = sorted({a for s in traced for a in s["trace"]["absent"]})
    if micro:
        metrics.update(micro[0]["micro"])
        absent += micro[0]["absent"]

    check = {
        "repeat_exactly": all(c == counts[0] for c in counts),
        "observed": counts[0],
        "expected": expected,
        "match": counts[0] == expected,
    }
    return metrics, check, absent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=None, help="measuring time (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny grids and short times, for self-checks")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hypns", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'hypns')}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wl = WORKLOADS[args.workload]
    seed = wl["default_seed"] if args.seed is None else args.seed

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        samples = collect(args.workload, seed, seconds, args.trace, args.quick, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    judge(args.workload, seed, args.quick, samples)

    ok = [s for s in samples if "error" not in s]
    failed = len(samples) - len(ok)
    alias = sorted({s["numpy_trapz_alias"] for s in ok})
    env = environment()
    print(f"workload {args.workload} seed {seed} (default {wl['default_seed']}) "
          f"trace {args.trace} quick {args.quick}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"numpy_trapz_alias {json.dumps(alias[0] if len(alias) == 1 else alias)}")
    for s in samples:
        if "error" in s:
            print(f"FAILED {s['mode']} sample: {s['error']}")
    print(f"fail_frac {failed}/{len(samples)}")

    record = {"args": vars(args), "seed": seed, "environment": env, "failed": failed,
              "attempted": len(samples)}
    if args.trace:
        specs = spec["per_layer"]
        values, check, absent = layer_metrics(args.workload, args.quick, samples)
        record.update(count_check=check, absent=absent)
        if check:
            verdict = "match" if check["match"] else "MISMATCH"
            print(f"count_check repeat_exactly={check['repeat_exactly']} {verdict} "
                  f"observed={json.dumps(check['observed'])} expected={json.dumps(check['expected'])}")
        print(f"absent {json.dumps(absent)}")
        traced = [s for s in samples if s["mode"] == "trace" and "trace" in s]
        record["spans"] = traced[-1]["trace"]["records"] if traced else []
    else:
        specs = spec["end_to_end"]
        setup = [s["setup_s"] for s in ok if s["mode"] in ("setup", "plain")]
        plain = [s for s in ok if s["mode"] == "plain"]
        values = {
            "setup_s": _median(setup),
            "run_s": _median([s["run_s"] for s in plain]),
            "peak_rss_mb": _median([s["peak_rss_kib"] / 1024 for s in plain]),
        }
        counts = {"setup_s": len(setup), "run_s": len(plain), "peak_rss_mb": len(plain)}
        for m in specs:
            v = values.get(m["name"])
            shown = "n/a" if v is None else f"{v:.6g}"
            print(f"{m['name']} median {shown} {m['unit']} (n={counts[m['name']]})")

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in specs}
    record["metrics"] = metrics
    record["samples"] = [{k: v for k, v in s.items() if k not in ("trace", "summary")} for s in samples]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    correct = failed == 0 and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
