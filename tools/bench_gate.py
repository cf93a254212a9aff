#!/usr/bin/env python3
"""Checks bench output against the CI floors and ceilings.

    tools/bench_gate.py perf FILE      # bench_exec --benchmark_format=json
    tools/bench_gate.py net FILE       # bench_net --gate output

Reads the gate's metrics from FILE, prints each next to its bound, and exits
0 when every bound of that gate holds, 1 when one fails or FILE lacks a
metric. Every bound is in BOUNDS.
"""

import json
import operator
import re
import statistics
import sys

OPS = {">=": operator.ge, "<": operator.lt}

# gate -> [(metric, op, bound)]
BOUNDS = {
    # Hot compute kernel, same-run wall-clock ratios of per-benchmark medians:
    # the full DBT must clear the interpreter, and the tier-2 optimizer must
    # pay for itself over the tier-1-only DBT.
    "perf": [
        ("dbt/interp", ">=", 2.0),
        ("tier-2/tier-1", ">=", 1.10),
    ],
    # Net data plane at the 256-byte payload point, in simulated time (exact):
    # batched virtio against the per-frame seed path.
    "net": [
        ("batched/per-frame", ">=", 3.0),
        ("intr_per_1k", "<", 50.0),
    ],
}


def perf_metrics(text):
    reps = {}
    for b in json.loads(text)["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        reps.setdefault(b["name"].split("/")[0], []).append(b["guest_mips"])
    names = ("BM_InterpreterHot", "BM_DbtTier1Hot", "BM_DbtHot")
    if any(n not in reps for n in names):
        return None
    interp, tier1, tier2 = (statistics.median(reps[n]) for n in names)
    print(f"perf smoke: interpreter {interp:.1f} MIPS, dbt tier-1 {tier1:.1f} MIPS, "
          f"dbt tier-2 {tier2:.1f} MIPS")
    return {"dbt/interp": tier2 / interp, "tier-2/tier-1": tier2 / tier1}


def net_metrics(text):
    m = re.search(r"gate: perframe_fps=(\S+) batched_fps=(\S+) ratio=(\S+) "
                  r"batched_intr_per_1k=(\S+)", text)
    if not m:
        return None
    return {"batched/per-frame": float(m.group(3)), "intr_per_1k": float(m.group(4))}


PARSERS = {"perf": perf_metrics, "net": net_metrics}


def main(argv):
    if len(argv) != 3 or argv[1] not in BOUNDS:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    gate, path = argv[1], argv[2]
    with open(path) as f:
        metrics = PARSERS[gate](f.read())
    if metrics is None:
        print(f"{gate} gate: summary missing from {path}")
        return 1
    ok = True
    for name, op, bound in BOUNDS[gate]:
        value = metrics[name]
        held = OPS[op](value, bound)
        ok = ok and held
        print(f"{gate} gate: {name} {value:.2f} (bound {op} {bound}) "
              f"{'ok' if held else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
