"""Fast check of the benchmark itself: every workload at toy sizes.

    python3 perfbench/check.py

Runs ``run.py --tiny`` for each workload of BENCHMARK.json, untraced and
traced, through the same code as a full run.  Fails unless every run exits
0 with every operation answered and correct, and prints every metric that
BENCHMARK.json names, with its unit, both as a ``name = value unit`` line
and in the closing JSON object.  Takes about a minute on two cores.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    cmd = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr[-1500:]}")
    lines = proc.stdout.strip().splitlines() or ["{}"]
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed") != 0 or not result.get("attempted"):
        problems.append(f"result {lines[-1][:300]}")
    printed = result.get("metrics", {})
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        if printed.get(name, {}).get("unit") != unit:
            problems.append(f"{name} missing from the JSON or not in {unit}")
        if not any(line.startswith(f"{name} = ") and line.split()[3] == unit for line in lines):
            problems.append(f"no line '{name} = <value> {unit}'")
    extra = set(printed) - {m["name"] for m in metrics}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for problem in problems:
                print("   ", problem)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
