#!/usr/bin/env python3
"""Build and run the lanrepro benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/bench.exe with dune (inside the checkout,
dune's shared cache disabled) and runs one workload; its last stdout line is
the JSON result. The second runs every workload of BENCHMARK.json at toy
size, traced and untraced, and checks that each prints exactly the declared
metrics with their units and that every output verified.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("run from the root of a lanrepro checkout (missing %s)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e, 1)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 1)


def run_bench(args, capture):
    """Runs bench.exe; returns (exit code, stdout text or None)."""
    proc = subprocess.Popen(
        [EXE] + args, stdout=subprocess.PIPE if capture else None, text=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 1)
    return proc.returncode, out


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            args = ["--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", trace]
            code, out = run_bench(args, capture=True)
            label = "%s trace=%s" % (w["name"], trace)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s: last line is not JSON" % label)
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append("%s: exit %d, result %s" % (label, code, lines[-1][:200]))
            if got != declared[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json" % label)
            if result["attempted"] < 1:
                problems.append("%s: nothing attempted" % label)
            print("%-24s attempted=%d correct=%s metrics=%d"
                  % (label, result["attempted"], result["correct"], len(got)))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    code, _ = run_bench(sys.argv[1:], capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
