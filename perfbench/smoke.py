"""Smoke test of the benchmark at the shortest run length (--seconds 1).

Run it from the repository root (about two minutes for all workloads):

    python3 perfbench/smoke.py [workload ...]

For each workload it runs --trace 0 once and --trace 1 twice with one seed,
and checks that each run exits with 0; that the last line of output is the
result object; that every metric BENCHMARK.json declares is printed with
its declared unit; that failed_share is 0; and that the exact counts are
identical in the two traced runs.  It also checks that the benchmark exits
nonzero, printing no result, in a directory holding only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SEED = 5
EXACT_UNITS = ("count", "bits")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done, declared):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert "failed_share 0" in done.stdout, "failed_share is not 0"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    assert printed == expected, "metrics differ from BENCHMARK.json: %s" % sorted(
        set(printed.items()) ^ set(expected.items()))
    for name in expected:
        assert any(line.split()[:1] == [name] for line in lines[:-1]), \
            "%s missing from the summary" % name
    return result


def check_workload(workload, spec):
    result_of(run(workload, 0), spec["end_to_end"])
    first = result_of(run(workload, 1), spec["per_layer"])
    second = result_of(run(workload, 1), spec["per_layer"])
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    differ = [name for name in exact
              if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
    assert not differ, "exact counts differ between two runs: %s" % differ


def check_bare_directory(workload):
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(bare, os.path.basename(BENCH)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run(workload, 0, cwd=bare)
        assert done.returncode != 0, "benchmark succeeded without the program"
        assert '"metrics"' not in done.stdout, "benchmark printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = argv or [w["name"] for w in spec["workloads"]]
    check_bare_directory(names[0])
    print("ok  bare directory exits nonzero")
    for workload in names:
        check_workload(workload, spec)
        print("ok  %s" % workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
