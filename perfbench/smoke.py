"""Smoke test of the benchmark: python3 perfbench/smoke.py (from the repository root).

Runs every workload at a tiny size with --trace 0 and --trace 1 and
checks that the result line names exactly the metrics of BENCHMARK.json,
each with its unit; that the correctness gate fires on a corrupted
reference and on an invalid request answered with an error; and that the benchmark fails cleanly, without a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(args, cwd=ROOT):
    cmd = SPEC["command"] + args
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (lines[-1] if lines else ""), p


def check_result(line, expected, what):
    r = json.loads(line)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, what + ": keys"
    assert r["correct"] is True, what + ": not correct"
    assert isinstance(r["attempted"], int) and r["attempted"] >= 1, what + ": attempted"
    assert r["failed"] == 0, what + ": failed"
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, "%s: metrics %s, want %s" % (what, got, want)
    for k, v in r["metrics"].items():
        assert set(v) == {"value", "unit"}, what + ": " + k
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), what + ": " + k


def main():
    failures = 0
    for w in SPEC["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "1", "--seconds", "1"]
        for trace, expected in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            rc, line, p = run(base + ["--trace", trace])
            try:
                assert rc == 0, "exit %d: %s" % (rc, p.stderr[-400:])
                check_result(line, expected, "%s --trace %s" % (name, trace))
                print("ok   %s --trace %s" % (name, trace))
            except (AssertionError, ValueError) as e:
                failures += 1
                print("FAIL %s --trace %s: %s" % (name, trace, e))
        for flag, what in (("--corrupt-reference", "a corrupted reference"),
                           ("--corrupt-request", "an error answer")):
            rc, line, _ = run(base + ["--trace", "0", flag])
            fired = rc != 0 and '"correct": true' not in line
            print("%s %s: gate %s on %s" % ("ok  " if fired else "FAIL", name,
                                            "fires" if fired else "does not fire", what))
            failures += not fired
    # a directory with only the benchmark's own files: must fail, no result
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for d in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, d), os.path.join(bare, d))
    rc, line, _ = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
    clean = rc != 0 and not line.startswith("{")
    print("%s bare directory: exit %d" % ("ok  " if clean else "FAIL", rc))
    failures += not clean
    shutil.rmtree(bare, ignore_errors=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
