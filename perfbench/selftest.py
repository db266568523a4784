"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py            # every workload, about 5 minutes
    python3 perfbench/selftest.py bp-resnet50

Checks that ``BENCHMARK.json`` is well formed, that one short run of each
workload with ``--trace 0`` and ``--trace 1`` is correct, with zero
failed batches, and emits exactly the end-to-end or per-layer metrics
``BENCHMARK.json`` names, each with its unit; and that the command
fails, printing no result, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_spec(spec: dict) -> list[str]:
    problems = []
    if set(spec) != KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for metric in metrics:
        if not UNIT.fullmatch(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction on {metric['name']}")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            problems.append(f"bad end-to-end entry {metric}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) missing")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("workload count or run_seconds out of range")
    return problems


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    command = spec["command"] + ["--workload", workload, "--seed", "1"]
    command += ["--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=180)
    where = f"{workload} --trace {trace}"
    result = last_json(done.stdout)
    if done.returncode != 0 or result is None:
        return [f"{where}: exit {done.returncode}, {done.stderr.strip()[-300:]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = result["metrics"]
    differ = set(emitted) ^ {m["name"] for m in wanted}
    if differ:
        problems.append(f"{where}: metric names differ: {sorted(differ)}")
    for metric in wanted:
        got = emitted.get(metric["name"], {})
        value = got.get("value")
        if got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {got.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {metric['name']} reads {value}")
    return problems


def check_bare(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        command = spec["command"] + ["--workload", spec["workloads"][0]["name"]]
        done = subprocess.run(command, capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        return ["bare directory: the command did not fail without printing a result"]
    return []


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec) + check_bare(spec)
    for workload in argv or [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
