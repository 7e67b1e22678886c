#!/usr/bin/env python3
"""The benchmark's own smoke test.  Run from the repository root:

    python3 perfbench/smoke_test.py

At smoke scale (--tiny) it checks that every workload passes its outcome
check, prints every metric BENCHMARK.json names with the named unit (the
end-to-end set untraced, the per-layer set traced), and gives the same model
digest on two runs of one seed.  It also checks that the benchmark refuses,
with a non-zero exit and no result, to run where the simulator sources are
absent.  Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = "7"


def check(cond, msg):
    if not cond:
        print(f"smoke_test: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", SEED,
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    check(proc.returncode == 0, f"{workload} trace={trace} exited "
          f"{proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split("digest=")[1] for l in lines
                  if l.startswith("perfbench ") and "digest=" in l)
    return result, digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace in (0, 0, 1):
            result, digest = run(name, trace)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{name}: result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace}: outcome check failed")
            check(result["attempted"] >= 1, f"{name}: nothing attempted")
            got = result["metrics"]
            for m in wanted[trace]:
                check(m["name"] in got, f"{name}: missing {m['name']}")
                check(got[m["name"]]["unit"] == m["unit"],
                      f"{name}: {m['name']} unit {got[m['name']]['unit']}")
                check(isinstance(got[m["name"]]["value"], (int, float)),
                      f"{name}: {m['name']} value")
            check(len(got) == len(wanted[trace]), f"{name}: extra metrics")
            digests.append(digest)
        check(len(set(digests)) == 1,
              f"{name}: digests differ across runs of one seed: {digests}")
        print(f"smoke_test: {name} ok (digest {digests[0]})")

    # Without the simulator sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "ramp", "--seed", SEED, "--seconds", "1",
         "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "ran without the simulator sources")
    check('"correct"' not in proc.stdout, "printed a result without sources")
    print("smoke_test: refuses to run without sources ok")
    print("smoke_test: PASS")


if __name__ == "__main__":
    main()
