"""Quick self-check of the benchmark: schema of BENCHMARK.json, every
workload at a tiny size in both modes, the result line's schema, the traced
counters against the config arithmetic, and refusal in a bare directory.

    python3 bench/selfcheck.py

Exits 0 when every check passes.  Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

from run import ROOT, SPEC, WORK_DIR
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def spec_problems(spec: dict) -> list:
    """Violations of the BENCHMARK.json contract."""
    bad = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        bad.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return bad
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        bad.append("command must be 1..32 strings of <= 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        bad.append("command names an absolute path or leaves the repo")
    paths = spec["paths"]
    if not (1 <= len(paths) <= 16 and all(PATH.match(p) and ".." not in p.split("/") for p in paths)):
        bad.append("paths must be 1..16 relative directories")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        bad.append("run_seconds must be a whole number in 1..60")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        bad.append("need 2..8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            bad.append(f"workload {w.get('name')}: needs exactly name and a one-line why <= 200 chars")
        names.append(w["name"])
    if set(names) != set(WORKLOADS):
        bad.append(f"workloads {sorted(names)} differ from bench/workloads.py {sorted(WORKLOADS)}")
    for group, lo, hi, keys in (("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
                                ("per_layer", 1, 128, {"name", "unit", "better"})):
        if not lo <= len(spec[group]) <= hi:
            bad.append(f"{group}: need {lo}..{hi} metrics")
        for m in spec[group]:
            if set(m) != keys:
                bad.append(f"{group} {m.get('name')}: keys {sorted(m)} != {sorted(keys)}")
                continue
            names.append(m["name"])
            if not UNIT.match(m["unit"]):
                bad.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                bad.append(f"{m['name']}: better must be lower or higher")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                bad.append(f"{m['name']}: bound must lie in (0, 0.25]")
    bad.extend(f"bad name {n!r}" for n in names if not NAME.match(n))
    bad.extend(f"name {n!r} used twice" for n in sorted({n for n in names if names.count(n) > 1}))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad.append("end_to_end needs setup_s in s, lower is better")
    elif any(m["bound"] > setup[0]["bound"] for m in spec["end_to_end"]):
        bad.append("setup_s must have the largest bound")
    return bad


def result_problems(line: str, expected: dict) -> list:
    """Violations of the result-line contract; ``expected`` maps name -> unit."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:80]!r}"]
    bad = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(res)}"]
    if res["correct"] is not True:
        bad.append("correct is not true")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1 and res["failed"] == 0):
        bad.append(f"attempted {res['attempted']!r} failed {res['failed']!r}")
    if set(res["metrics"]) != set(expected):
        bad.append(f"metrics differ: missing {sorted(set(expected) - set(res['metrics']))}, "
                   f"extra {sorted(set(res['metrics']) - set(expected))}")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) or m["unit"] != expected.get(name):
            bad.append(f"{name}: {m!r}")
    return bad


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = [f"BENCHMARK.json: {p}" for p in spec_problems(spec)]

    for name in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"])
            where = f"{name} --trace {trace}"
            if code != 0 or not lines:
                failures.append(f"{where}: exit code {code}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[group]}
            failures.extend(f"{where}: {p}" for p in result_problems(lines[-1], expected))
            if trace:
                check = [ln for ln in lines if ln.startswith("count_check ")]
                if not check or "repeat_exactly=True match" not in check[0]:
                    failures.append(f"{where}: {check[0] if check else 'no count_check line'}")
            print(f"{where}: {'ok' if not any(f.startswith(where) for f in failures) else 'FAILED'}")

    os.makedirs(WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK_DIR)
    try:
        shutil.copy(SPEC, bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = next(iter(WORKLOADS))
        code, lines = run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            failures.append(f"bare directory: exit code {code} with output {lines[-1:]}")
        print(f"bare directory refused: {code != 0}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("selfcheck:", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
