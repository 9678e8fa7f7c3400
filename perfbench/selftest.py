#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload twice in each mode and
checks that the machine-independent figures repeat exactly.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seed N]

For each workload and --trace mode the benchmark command runs twice with
the same seed (at --seconds 1, the shortest run). Each result must be
correct, carry exactly the metrics BENCHMARK.json declares with their
units, and agree bit-for-bit with its twin on every modelled metric and
every count (the `EXACT` names below). Wall times are not compared.
Exit status 0 = all checks passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Deterministic given the seed: modelled results and work counters.
EXACT = {
    "model_ttft_p50_ms", "model_ttft_p99_ms", "model_tpot_p50_ms",
    "model_tpot_p99_ms", "model_goodput_rps", "model_output_tokens_per_s",
    "model_marlin_speedup_b16", "model_marlin_speedup_b128",
    "cluster.route_imbalance", "sched.ticks", "sched.admit_calls",
    "sched.queue_depth_mean", "sched.queue_depth_max", "sched.batch_mean",
    "sched.preemptions", "sched.rejected", "sched.shed", "step_model.calls",
    "step_model.distinct_ratio", "kv.peak_util", "kv.prefix_hit_ratio",
    "kv.evictions", "kv.cow_forks", "kv.cow_copies",
    "engine.decode_linear_share", "engine.decode_attention_share",
    "engine.decode_overhead_share", "parallel.comm_share",
    "parallel.bubble_share", "core.traffic_mb", "ops.offered",
    "ops.completed", "ops.rejected", "ops.shed", "ops.unfinished",
}


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"selftest: `{' '.join(cmd)}` exited {out.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args().seed
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            a, b = (run_once(spec, w["name"], seed, trace) for _ in range(2))
            tag = f"{w['name']} --trace {trace}"
            before = len(failures)
            for r in (a, b):
                if set(r) != {"correct", "attempted", "failed", "metrics"}:
                    failures.append(f"{tag}: result keys {sorted(r)}")
                if not r["correct"] or r["attempted"] < 1:
                    failures.append(f"{tag}: run not correct")
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if got != declared:
                    failures.append(f"{tag}: metrics differ from "
                                    "BENCHMARK.json")
            for name in sorted(EXACT & set(declared)):
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                if va != vb:
                    failures.append(f"{tag}: {name} {va!r} != {vb!r}")
            print(f"selftest: {tag}",
                  "ok" if len(failures) == before else "FAILED")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
