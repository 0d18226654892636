"""Records the benchmark's baseline on this host.

Runs every workload of BENCHMARK.json on ten seeds with --trace 0 and once
(seed 1) with --trace 1, prints each end-to-end metric's median, quartiles
and spread (the distance between the quartiles as a share of the median),
and writes perfbench/baseline.json. Run it from the repository root:

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads genet-abr,serve-http]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="perfbench/baseline.json")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    end_to_end, per_layer = {}, {}
    for w in names:
        runs = [run(spec, w, s, 0) for s in range(lo, hi + 1)]
        row = {"runs_correct": sum(r["correct"] for r in runs),
               "failed_of_attempted": [sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)]}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            row[name] = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4), "values": vals}
            print(f"{w:12s} {name:14s} median {med:14.6g} spread {spread:.4f} (bound {bounds[name]})", flush=True)
        end_to_end[w] = row
        traced = run(spec, w, 1, 1)
        per_layer[w] = {k: v["value"] for k, v in sorted(traced["metrics"].items())}

    out = {
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(), "os": f"{platform.system()} {platform.release()}"},
        "command": " ".join(spec["command"]) + f" --workload <w> --seed <{lo}..{hi}> --seconds {spec['run_seconds']} --trace 0",
        "end_to_end": end_to_end,
        "per_layer_seed1": per_layer,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
