#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Runs the command in BENCHMARK.json once per seed for each workload, then
reports for every end-to-end metric the median, the quartiles and the
spread: the distance between the quartiles as a share of the median (as
Python's statistics.quantiles(values, n=4) gives them). A metric is steady
when its spread stays below a third of its bound. Run from the repository
root:

    python3 perfbench/steadiness.py --seeds 1-10 --smoke 11,12 --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --workloads tick-steady --seeds 11-15

--smoke runs further seeds once each after the measured ones and records
their values, so a workload tuned to one seed would show. --against takes
the summary of an earlier set of runs of the same code and records, for
every metric, how far its median has worsened since. The two sets agree
when the median moved by at most the bound either way, since either set
could have been the first:

    python3 perfbench/steadiness.py --seeds 1-10 --against first.json --out perfbench/steadiness.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    elapsed = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma-separated workloads (default: all)")
    ap.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 3,7,11")
    ap.add_argument("--smoke", default="", help="extra seeds run once each and recorded apart")
    ap.add_argument("--against", default="", help="summary of an earlier set of runs to compare medians with")
    ap.add_argument("--out", default="", help="write the summary here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    first = {}
    if args.against:
        with open(args.against) as f:
            first = json.load(f)
    seeds = seed_list(args.seeds)
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values, secs, failed = {}, [], 0
        for seed in seeds:
            res, elapsed = run_once(bench, name, seed)
            secs.append(elapsed)
            failed += res["failed"]
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: {elapsed:.1f}s " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        entry = {"runs": len(seeds), "failed_ops": failed, "wall_s_median": statistics.median(secs), "metrics": {}}
        if len(seeds) >= 2:
            for metric, vs in sorted(values.items()):
                if len(vs) == len(seeds):
                    entry["metrics"][metric] = summarise(vs, bounds.get(metric, 0))
        smoke = {}
        for seed in seed_list(args.smoke) if args.smoke else []:
            res, _ = run_once(bench, name, seed)
            entry["failed_ops"] += res["failed"]
            smoke[str(seed)] = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"{name} smoke seed {seed}: correct={res['correct']} failed={res['failed']}", flush=True)
        if smoke:
            entry["smoke"] = smoke
        summary["workloads"][name] = entry
        earlier = first.get("workloads", {}).get(name, {}).get("metrics", {})
        for metric, s in entry["metrics"].items():
            flag = "" if s["steady"] else "  <-- spread >= bound/3"
            if metric in earlier:
                before = earlier[metric]["median"]
                worse = (s["median"] - before) / before * (-1 if metric in higher else 1)
                s["first_median"], s["worse_by"] = before, worse
                s["agrees"] = abs(worse) <= s["bound"]
                flag += f"  worse than first by {worse:+.4f}" + ("" if s["agrees"] else "  <-- moved beyond bound")
            print(f"  {metric:18s} median {s['median']:12.5g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if first:
        summary["first"] = first
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
