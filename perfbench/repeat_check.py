#!/usr/bin/env python3
"""Check that the benchmark's exact counts repeat across runs of one seed.

Usage (from the repository root):

    python3 perfbench/repeat_check.py --seconds 4 --seeds 7 1234

For compile_cold and sim_long, each seed runs twice untraced and twice
traced. Every count metric (see METRICS.md, "Exact counts") must be equal
between the two runs of a pair. Exits 1 and names the metric on the first
difference, and 0 when every count repeats.
"""

import argparse
import json
import os
import subprocess
import sys

E2E_COUNTS = ["code_words", "sim_cycles"]
LAYER_COUNTS = [
    "frontend.calls", "frontend.mir_insts", "codegen.fixup_movs",
    "codegen.spill_ops", "codegen.optimized", "regalloc.spilled_vregs",
    "schedule.ops_per_word", "sim.words", "sim.fast_path_words",
    "sim.slow_path_words", "sim.mem_ops", "jit.native_words",
    "jit.entries", "jit.deopt_off_region", "jit.regions",
    "toolchain.cache_hits", "toolchain.cache_misses",
    "toolchain.cache_evictions",
]


def run(workload, seed, seconds, trace):
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, os.path.join(here, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=os.path.dirname(here), stdout=subprocess.PIPE, check=True,
        text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 1234])
    ap.add_argument("--workloads", nargs="+",
                    default=["compile_cold", "sim_long"])
    args = ap.parse_args()
    for w in args.workloads:
        for seed in args.seeds:
            for trace, names in ((0, E2E_COUNTS), (1, LAYER_COUNTS)):
                a = run(w, seed, args.seconds, trace)
                b = run(w, seed, args.seconds, trace)
                for n in names:
                    if a[n]["value"] != b[n]["value"]:
                        print(f"{w} seed {seed}: {n} differs: "
                              f"{a[n]['value']} vs {b[n]['value']}")
                        return 1
                print(f"{w} seed {seed} trace {trace}: "
                      f"{len(names)} counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
