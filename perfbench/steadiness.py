#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--workloads verify,explore]
        [--seeds 10] [--first-seed 1] [--save FILE] [--against FILE]

Runs each workload once per seed (untraced, run_seconds from
BENCHMARK.json), one run at a time, and prints for every end-to-end metric
its median and its spread: the distance between the first and third
quartiles over the runs, as a share of the median. A metric, setup_s
included, is steady when its spread is under a third of its bound. With
--against, the medians are also compared with a saved earlier set, which
must not be worse by more than the bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    earlier = json.loads(pathlib.Path(args.against).read_text()) \
        if args.against else {}
    values = {}
    ok = True
    for w in workloads:
        runs = []
        for k in range(args.seeds):
            r = run_once(w, args.first_seed + k, bench["run_seconds"])
            if not r["correct"] or r["failed"]:
                print(f"{w} seed {args.first_seed + k}: "
                      f"{r['failed']} failed op(s)")
                ok = False
            runs.append(r)
        values[w] = {}
        print(f"\n{w}: {len(runs)} runs")
        print(f"  {'metric':<20} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            v = [r["metrics"][m["name"]]["value"] for r in runs]
            values[w][m["name"]] = v
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if spread > m["bound"] / 3:
                flag, ok = " UNSTEADY", False
            if w in earlier and m["name"] in earlier[w]:
                old = statistics.median(earlier[w][m["name"]])
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                flag += f"  vs earlier {worse:+.3f}"
                if worse > m["bound"]:
                    flag, ok = flag + " DRIFT", False
            print(f"  {m['name']:<20} {med:>14.6g} {spread:>8.4f} "
                  f"{m['bound']:>6}{flag}")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
