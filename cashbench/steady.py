#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated runs, quartiles, bound checks.

Run a workload several times, each with another seed, and print each
end-to-end metric's median, quartiles and spread (the distance between
the quartiles as a share of the median):

    python3 cashbench/steady.py run --workload suite --runs 10 \\
        --out .bench_build/steady/suite-a.json

With --seed-step 0 every run uses --seed0, so the spread shows the
host's noise alone, without the variation between seeds.

Compare two such sets against the bounds in BENCHMARK.json: every
spread must stay within its metric's bound, no median of the second
set may be worse than the first's by more than the bound, and the
share of failed operations must be identical:

    python3 cashbench/steady.py compare .bench_build/steady/suite-a.json \\
        .bench_build/steady/suite-b.json

Quartiles are Python's statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
from fractions import Fraction
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def cmd_run(args):
    spec, metrics = bounds()
    results = []
    for i in range(args.runs):
        seed = args.seed0 + i * args.seed_step
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds or spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("run %d (seed %d) failed with code %d"
                     % (i, seed, proc.returncode))
        res = json.loads(lines[-1])
        res["seed"] = seed
        results.append(res)
        print("seed %d: attempted %d failed %d correct %s"
              % (seed, res["attempted"], res["failed"], res["correct"]),
              file=sys.stderr)
    out = {"workload": args.workload, "runs": results}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    report(out, metrics)


def report(data, metrics):
    runs = data["runs"]
    print("%s: %d runs" % (data["workload"], len(runs)))
    print("%-22s %14s %14s %14s %8s %6s" % ("metric", "q1", "median", "q3",
                                            "spread", "bound"))
    for name, m in metrics.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        s = summarize(vals)
        print("%-22s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%"
              % (name, s["q1"], s["median"], s["q3"], 100 * s["spread"],
                 100 * m["bound"]))
    shares = sorted({Fraction(r["failed"], r["attempted"]) for r in runs})
    print("failed share: %s" % ", ".join(map(str, shares)))


def cmd_compare(args):
    _, metrics = bounds()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    ok = True
    print("%-22s %14s %14s %8s %8s %8s  %s"
          % ("metric", "median A", "median B", "spr A", "spr B", "change",
             "verdict"))
    for name, m in metrics.items():
        a, b = (summarize([r["metrics"][name]["value"] for r in s["runs"]])
                for s in sets)
        change = (b["median"] - a["median"]) / a["median"]
        worse = change if m["better"] == "lower" else -change
        verdict = []
        for label, s in (("A", a), ("B", b)):
            if s["spread"] > m["bound"]:
                verdict.append("spread %s over bound" % label)
        if worse > m["bound"]:
            verdict.append("median worse by more than the bound")
        ok = ok and not verdict
        print("%-22s %14.6g %14.6g %7.2f%% %7.2f%% %7.2f%%  %s"
              % (name, a["median"], b["median"], 100 * a["spread"],
                 100 * b["spread"], 100 * change,
                 "; ".join(verdict) or "ok"))
    shares = [{Fraction(r["failed"], r["attempted"]) for r in s["runs"]}
              for s in sets]
    if len(shares[0] | shares[1]) != 1:
        ok = False
        print("failed share differs: %s vs %s"
              % (sorted(map(str, shares[0])), sorted(map(str, shares[1]))))
    else:
        print("failed share: %s in every run" % shares[0].pop())
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seed-step", type=int, default=1,
                   help="seed increment between runs (0: one seed)")
    r.add_argument("--seconds", type=int, default=0,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    main()
