#!/usr/bin/env python3
"""Self-checks and the steadiness report for the benchmark.

    python3 perfbench/check.py gate          # fault injection fails runs
    python3 perfbench/check.py determinism   # seeds fix inputs and counts
    python3 perfbench/check.py steady --workload sim-suite --runs 10 \
        [--sets 2] [--seconds 25]            # spread and two-set agreement
    python3 perfbench/check.py bare          # no sources: fails, no result

Every check drives perfbench/run.py in a fresh process, as a user of the
benchmark would, and exits nonzero when the check fails. Run from the
root of a checkout.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}

# Counts that must repeat exactly for one seed, and between two sets.
EXACT = ("compiler.stages", "compiler.queues", "compiler.ras",
         "runtime.instructions", "runtime.queue_ops",
         "sim.serial_cycles", "sim.pipeline_cycles", "sim.instructions")


def run(workload, seed, seconds, trace=0, inject=False, cwd=ROOT):
    """One benchmark run: (exit code, result dict or None, detail dict)."""
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = detail = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result, detail


def values(detail, kind):
    return {k: v["value"] for k, v in detail[kind].items()}


def check_gate(args):
    ok = True
    for w in args.workload or WORKLOADS:
        code, res, _ = run(w, args.seed, args.seconds)
        clean = code == 0 and res and res["correct"] and res["failed"] == 0
        code_f, res_f, _ = run(w, args.seed, args.seconds, inject=True)
        fired = (code_f != 0 and res_f is not None and not res_f["correct"]
                 and res_f["failed"] >= 1)
        ratio = res_f["failed"] / res_f["attempted"] if res_f else None
        print("%-13s clean run: %s; injected fault: exit %d, fail_ratio %s"
              " -> %s" % (w, "ok" if clean else "FAILED", code_f, ratio,
                          "gate fired" if fired else "GATE DID NOT FIRE"))
        ok &= bool(clean and fired)
    return ok


def check_determinism(args):
    ok = True
    for w in args.workload or WORKLOADS:
        details = [run(w, s, args.seconds)[2]
                   for s in (args.seed, args.seed, args.seed + 1)]
        if None in details:
            print("%-13s FAILED: a run printed no detail" % w)
            ok = False
            continue
        a, b, c = details
        same_digest = a["input_digest"] == b["input_digest"]
        new_digest = a["input_digest"] != c["input_digest"]
        la, lb = values(a, "per_layer"), values(b, "per_layer")
        drift = [k for k in EXACT if la[k] != lb[k]]
        print("%-13s same seed, same inputs: %s; other seed, other inputs: "
              "%s; exact counts repeat: %s" %
              (w, same_digest, new_digest, "yes" if not drift else
               "NO " + ", ".join("%s %s vs %s" % (k, la[k], lb[k])
                                 for k in drift)))
        ok &= same_digest and new_digest and not drift
    return ok


def quartiles(v):
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def steady_set(workload, seeds, seconds):
    runs = []
    for s in seeds:
        code, res, detail = run(workload, s, seconds)
        if code != 0 or res is None or not res["correct"]:
            print("seed %d: run failed (exit %d)" % (s, code))
            return None
        runs.append(detail)
        e = values(detail, "end_to_end")
        print("seed %-3d " % s + " ".join("%s=%.4g" % (k, e[k]) for k in E2E),
              flush=True)
    return runs


def report_set(runs):
    """Median, quartiles and spread per end-to-end metric; False when a
    spread exceeds its bound (setup_s is exempt)."""
    ok = True
    med = {}
    print("%-15s %12s %12s %12s %8s %6s  %s" %
          ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, m in E2E.items():
        v = [values(d, "end_to_end")[name] for d in runs]
        q1, q2, q3 = quartiles(v)
        spread = (q3 - q1) / q2
        med[name] = q2
        if spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"] or name == "setup_s":
            verdict = "within bound"
        else:
            verdict = "SPREAD EXCEEDS BOUND"
            ok = False
        print("%-15s %12.5g %12.5g %12.5g %8.4f %6.2f  %s" %
              (name, q1, q2, q3, spread, m["bound"], verdict))
    return ok, med


def check_steady(args):
    seeds = list(range(args.seed, args.seed + args.runs))
    sets = []
    ok = True
    for i in range(args.sets):
        print("== %s, set %d, seeds %d..%d, %gs per run" %
              (args.workload, i + 1, seeds[0], seeds[-1], args.seconds))
        runs = steady_set(args.workload, seeds, args.seconds)
        if runs is None:
            return False
        set_ok, med = report_set(runs)
        ok &= set_ok
        sets.append((runs, med))
    if len(sets) == 2:
        (ra, ma), (rb, mb) = sets
        print("== two-set agreement")
        for name, m in E2E.items():
            worse = (mb[name] - ma[name]) / ma[name]
            if m["better"] == "higher":
                worse = -worse
            agree = worse <= m["bound"]
            ok &= agree
            print("%-15s set1 %12.5g set2 %12.5g worse by %+.4f (bound %.2f)"
                  " %s" % (name, ma[name], mb[name], worse, m["bound"],
                           "ok" if agree else "DISAGREES"))
        drift = []
        for da, db in zip(ra, rb):
            la, lb = values(da, "per_layer"), values(db, "per_layer")
            drift += ["seed %d %s" % (da["seed"], k)
                      for k in EXACT if la[k] != lb[k]]
        print("exact counts identical between sets: %s" %
              ("yes" if not drift else "NO: " + ", ".join(drift)))
        ok &= not drift
    return ok


def check_bare(args):
    """Copy only BENCHMARK.json and the benchmark's paths: the run must
    fail, promptly and without printing a result."""
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p)
    code, res, _ = run(WORKLOADS[0], 1, 1, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    ok = code != 0 and res is None
    print("bare directory: exit %d, result printed: %s -> %s" %
          (code, res is not None, "ok" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("check", choices=("gate", "determinism", "steady",
                                      "bare"))
    ap.add_argument("--workload", action="append",
                    help="workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="per run (default: 2; steady: run_seconds)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"] if args.check == "steady" else 2
    if args.check == "steady":
        if not args.workload or len(args.workload) != 1:
            ap.error("steady takes exactly one --workload")
        args.workload = args.workload[0]
    ok = {"gate": check_gate, "determinism": check_determinism,
          "steady": check_steady, "bare": check_bare}[args.check](args)
    print("check %s: %s" % (args.check, "passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
