#!/usr/bin/env python3
"""Run the serving benchmark over several seeds and summarise each metric.

Run from the root of a checkout:

    python3 perfbench/steady.py --workloads flow-churn,paced-update \
        --seeds 1-10 --trace 0 --out perfbench/baseline.json

For every workload and metric it prints the median, the quartiles as
Python's statistics.quantiles(values, n=4) gives them, and the spread
(interquartile range over the median) next to the metric's bound from
BENCHMARK.json ("ok" below a third of the bound), and exits non-zero when
a run fails or a spread is over its bound. With --out it writes the summary
and each workload's server configuration and provenance into that file,
keeping the file's other records (perfbench/baseline.json also holds the
map from per-layer metrics to the end-to-end metric each should move).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    provenance = None
    for line in lines:
        if line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, provenance, result


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}

    summary = {"run_seconds": seconds, "trace": args.trace,
               "seeds": seeds_of(args.seeds), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values, provenance, failed_runs = {}, None, 0
        for seed in summary["seeds"]:
            rc, prov, result = run_once(root, workload, seed, seconds,
                                        args.trace)
            provenance = provenance or prov
            good = rc == 0 and result is not None and result["correct"]
            failed_runs += 0 if good else 1
            print(f"{workload} seed {seed}: exit {rc}, "
                  f"correct {result and result['correct']}", flush=True)
            for name, m in (result or {}).get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        entry = {"why": whys.get(workload), "failed_runs": failed_runs,
                 "server": provenance, "metrics": {}}
        for name, vals in values.items():
            s = summarise(vals)
            entry["metrics"][name] = s
            bound = bounds.get(name)
            spread = s.get("spread")
            verdict = ""
            if bound is not None and spread is not None:
                verdict = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "OVER BOUND")
                ok = ok and spread <= bound
            print(f"  {name:36s} median {s['median']:16.6g} spread "
                  f"{spread if spread is None else round(spread, 4)} "
                  f"bound {bound} {verdict}")
        ok = ok and failed_runs == 0
        summary["workloads"][workload] = entry
    if args.out:
        record = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                record = json.load(f)
        record.update(summary)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
