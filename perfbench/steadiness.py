#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload in separated sets of runs, each run on its own seed,
and prints per metric: the median, the interquartile range and the range
(both as a share of the median) of each set, and the set-vs-set median
delta in the metric's worse direction. Each is compared with the metric's
bound from BENCHMARK.json. A spread is "steady" below a third of the bound.

Run from the repository root:

    python3 perfbench/steadiness.py                 # 2 sets x 10 seeds, all workloads
    python3 perfbench/steadiness.py --sets 1 --runs 5 --workloads tcm8
    python3 perfbench/steadiness.py --load runs.json    # re-analyse saved runs

Set k uses seeds k*1000+1 .. k*1000+runs, so no two runs share a seed.
Raw results are written to --out (default perfbench-steadiness.json).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}): {' '.join(argv)}")
    result = json.loads(lines[-1])
    record = json.loads(lines[0]).get("run_record", {}) if len(lines) > 1 else {}
    return {"workload": workload, "seed": seed, "elapsed_s": time.monotonic() - t0,
            "result": result, "record": record}


def spread(values):
    """(median, IQR / median, range / median), as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med), (max(values) - min(values)) / abs(med)


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share of the first."""
    if first == 0:
        return 0.0
    delta = (second - first) / abs(first)
    return -delta if better == "higher" else delta


def analyse(bench, runs):
    bad = 0
    for r in runs:
        res = r["result"]
        if not res.get("correct") or res.get("failed") != 0:
            bad += 1
            print(f"INCORRECT: {r['workload']} seed {r['seed']}: {res} {r['record'].get('problems')}")
    sets = sorted({r["set"] for r in runs})
    for w in bench["workloads"]:
        name = w["name"]
        mine = [r for r in runs if r["workload"] == name]
        if not mine:
            continue
        secs = [r["elapsed_s"] for r in mine]
        print(f"\n== {name}: {len(mine)} runs, {min(secs):.1f}-{max(secs):.1f} s each")
        print(f"{'metric':<20} {'set':>3} {'median':>14} {'IQR%':>7} {'range%':>7} "
              f"{'bound%':>7} {'drift%':>7}  verdict")
        for m in bench["end_to_end"]:
            medians = []
            for s in sets:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in mine if r["set"] == s]
                if not vals:
                    continue
                med, iqr, rng = spread(vals)
                medians.append(med)
                drift = worse_by(medians[0], med, m["better"]) if len(medians) > 1 else None
                bound = m["bound"]
                gated = m["name"] != "setup_s"
                verdict = []
                if gated and iqr > bound:
                    verdict.append("SPREAD>BOUND")
                elif gated and iqr > bound / 3:
                    verdict.append("spread>bound/3")
                if drift is not None and drift > bound:
                    verdict.append("DRIFT>BOUND")
                elif drift is not None and drift > bound / 3:
                    verdict.append("drift>bound/3")
                if gated and all(v == vals[0] for v in vals) and m["unit"] in ("s", "ms"):
                    verdict.append("CONSTANT-TIME")
                print(f"{m['name']:<20} {s:>3} {med:>14.6g} {100 * iqr:>7.2f} {100 * rng:>7.2f} "
                      f"{100 * bound:>7.1f} "
                      f"{'' if drift is None else f'{100 * drift:7.2f}':>7}  "
                      f"{' '.join(verdict) or 'steady'}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per set and workload")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=0.0, help="seconds to wait between sets")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--out", default="perfbench-steadiness.json")
    ap.add_argument("--load", help="analyse saved runs instead of running")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    if args.load:
        with open(args.load) as f:
            runs = json.load(f)
    else:
        names = args.workloads or [w["name"] for w in bench["workloads"]]
        seconds = args.seconds or bench["run_seconds"]
        runs = []
        for s in range(args.sets):
            if s and args.gap:
                time.sleep(args.gap)
            for name in names:
                for i in range(args.runs):
                    r = run_once(bench["command"], name, s * 1000 + i + 1, seconds, 0)
                    r["set"] = s
                    runs.append(r)
                    print(f"set {s} {name} seed {r['seed']}: {r['elapsed_s']:.1f} s", file=sys.stderr)
                    with open(args.out, "w") as f:
                        json.dump(runs, f)
    sys.exit(1 if analyse(bench, runs) else 0)


if __name__ == "__main__":
    main()
