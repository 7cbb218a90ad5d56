#!/usr/bin/env python3
"""Steadiness report for the gridstratd benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, each time with another seed, and prints for every end-to-end
metric the median, the quartiles and the spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median. A metric is steady when its spread stays within
its bound; every gated metric, setup_s included, is checked.

Run from the repository root:

    python3 gridbench/steady.py --runs 10
    python3 gridbench/steady.py --runs 5 --workloads plan_sweep --seed-base 100
    python3 gridbench/steady.py --runs 10 --out a.json
    python3 gridbench/steady.py --compare a.json b.json

--compare checks that the second report's medians are no worse than
the first's by more than each metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed operations: {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def report(bench, args):
    metrics = bench["end_to_end"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    out = {}
    for wl in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            runs.append(run_once(bench, wl, seed))
            print(f"# {wl} seed {seed}: " + " ".join(
                f"{m['name']}={runs[-1][m['name']]:.6g}" for m in metrics), flush=True)
        out[wl] = {m["name"]: summarize([r[m["name"]] for r in runs]) for m in metrics}
    ok = True
    print(f"{'workload':<14} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for wl, ms in out.items():
        for m in metrics:
            s = ms[m["name"]]
            flag = ""
            if s["spread"] > m["bound"]:
                flag, ok = "  TOO NOISY", False
            elif s["spread"] > m["bound"] / 3:
                flag = "  above a third of its bound"
            print(f"{wl:<14} {m['name']:<16} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {m['bound']:>6}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    return ok


def compare(bench, a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ok = True
    for wl in a:
        for m in bench["end_to_end"]:
            ma, mb = a[wl][m["name"]]["median"], b[wl][m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "" if worse <= m["bound"] else "  DRIFT"
            ok = ok and not flag
            print(f"{wl:<14} {m['name']:<16} {ma:>12.6g} {mb:>12.6g} worse by {worse:+.4f} (bound {m['bound']}){flag}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    bench = load_bench()
    ok = compare(bench, *args.compare) if args.compare else report(bench, args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
