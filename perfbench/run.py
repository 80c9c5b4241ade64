#!/usr/bin/env python3
"""Run the repository benchmark from the root of a source checkout.

One workload in its own process:

    python3 perfbench/run.py --workload refine|observe|serve-churn \
        --seed N --seconds S --trace 0|1

Every workload, untraced then traced, with the correctness checks and a
table of every metric (per-layer metrics also go to
.bench_run/per_layer.json):

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Check the benchmark itself on the tiny world: every metric named in
BENCHMARK.json is emitted with its unit, and under full fault injection
the failures are counted:

    python3 perfbench/run.py --self-test

The benchmark program (perfbench/rdbench.ml) is built with dune from the
checkout first.  The last line of standard output is the result object.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "rdbench.exe")
WORKLOADS = ["refine", "observe", "serve-churn"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not the root of a source checkout (missing %s)" % need)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/rdbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def clean_env(extra=None):
    """The default configuration: no RD_* knob leaks in from outside."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RD_")}
    env.update(extra or {})
    return env


def run_one(args, env=None, echo=True):
    """Run one rdbench process; return (exit code, stdout lines)."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE,
                            stderr=None if echo else subprocess.PIPE,
                            text=True, env=env or clean_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("rdbench %s timed out" % " ".join(args))
    lines = out.splitlines()
    if not echo and proc.returncode != 0:
        sys.stderr.write(err)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) and set(res) == RESULT_KEYS else None


def provenance(lines):
    for line in lines:
        if line.startswith('{"provenance"'):
            return json.loads(line)["provenance"]
    return None


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def same_names_and_units(res, declared):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    return got == declared


def run_all(seed, seconds):
    e2e, layers = declared_metrics()
    ok = True
    per_layer = {}
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", str(seed), "--seconds", str(seconds)]
        runs = {}
        for trace in ("0", "1"):
            code, lines = run_one(base + ["--trace", trace], echo=False)
            res = parse_result(lines)
            runs[trace] = (code, res, provenance(lines))
            if code != 0 or res is None or not res["correct"]:
                print("%s --trace %s: FAILED (exit %d)" % (w, trace, code))
                ok = False
        (c0, r0, p0), (c1, r1, p1) = runs["0"], runs["1"]
        if p0 != p1:
            print("%s: provenance differs between runs of one seed" % w)
            ok = False
        if r0 and not same_names_and_units(r0, e2e):
            print("%s: end-to-end metrics differ from BENCHMARK.json" % w)
            ok = False
        if r1 and not same_names_and_units(r1, layers):
            print("%s: per-layer metrics differ from BENCHMARK.json" % w)
            ok = False
        print("== %s  %s" % (w, json.dumps(p0)))
        for res in (r0, r1):
            if res:
                print("   attempted %d, failed %d, failed_frac %.4g"
                      % (res["attempted"], res["failed"],
                         res["failed"] / res["attempted"]))
                for k, v in res["metrics"].items():
                    print("   %-34s %14.6g %s" % (k, v["value"], v["unit"]))
        if r1:
            per_layer[w] = {k: v for k, v in r1["metrics"].items()}
    os.makedirs(".bench_run", exist_ok=True)
    with open(os.path.join(".bench_run", "per_layer.json"), "w") as f:
        json.dump(per_layer, f, indent=1)
    print("per-layer metrics written to .bench_run/per_layer.json")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def self_test():
    e2e, layers = declared_metrics()
    ok = True
    for w in WORKLOADS:
        for trace, declared in (("0", e2e), ("1", layers)):
            args = ["--workload", w, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--world", "tiny"]
            code, lines = run_one(args, echo=False)
            res = parse_result(lines)
            good = code == 0 and res is not None and res["correct"] \
                and same_names_and_units(res, declared)
            print("%-12s trace %s  tiny world: %s" % (w, trace,
                                                     "ok" if good else "FAILED"))
            ok = ok and good
    # Full fault injection: every simulation fails, so prefixes are
    # quarantined and the failures must be counted.
    for trace, declared in (("0", e2e), ("1", layers)):
        args = ["--workload", "refine", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--world", "tiny", "--expect-failures"]
        code, lines = run_one(args, env=clean_env({"RD_FAULTS": "0.3:7:full"}),
                              echo=False)
        res = parse_result(lines)
        good = code == 0 and res is not None and res["failed"] > 0 \
            and same_names_and_units(res, declared)
        print("refine       trace %s  RD_FAULTS=0.3:7:full: %s"
              % (trace, "failed_frac %.3f ok" % (res["failed"] / res["attempted"])
                 if good else "FAILED"))
        ok = ok and good
    print("self-test passed" if ok else "SELF-TEST FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not (a.all or a.self_test or a.workload):
        ap.error("one of --workload, --all, --self-test is required")
    build()
    if a.all:
        return run_all(a.seed, a.seconds)
    if a.self_test:
        return self_test()
    code, lines = run_one(["--workload", a.workload, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace", a.trace])
    if code == 0 and parse_result(lines) is None:
        fail("rdbench printed no result line")
    return code


if __name__ == "__main__":
    sys.exit(main())
