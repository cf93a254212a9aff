#!/usr/bin/env python3
"""Runs one workload of the Hyperion benchmark and reports it.

    python3 hvbench/run.py --workload fleet|compute|lifecycle|io|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
hvbench/ (the simulator's libraries from src/ plus the hvbench binary) in
.bench_build/, or in $CARGO_TARGET_DIR when that is set. The build log goes
to stderr.

The binary replays the seeded workload in closed batches for S seconds and
checks its outputs; this script labels every metric it reports with its
unit, kind and layer from hvbench/spec.py, writes the full record (machine,
metric metadata, failures) to .bench_out/, and prints as its last line one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1 (keyed <workload>/<metric> for "all").
The report above it lists every end-to-end metric, and with --trace 1
every per-layer one too. --trace 1 also writes the spans as Chrome
trace-event JSON to .bench_out/trace-<workload>-seed<N>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import spec  # noqa: E402

RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the hvbench binary; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("hvbench: no simulator sources under", os.path.join(ROOT, "src"))
        sys.exit(2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hvbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("hvbench: build step failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "hvbench")


def machine_record(result):
    """The machine a record was measured on, plus the tree it measured."""
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    src_lines += f.read().count(b"\n")
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    record = dict(result["machine"])
    record.update({"git_sha": sha, "src_lines": src_lines, "workers": result["workers"],
                   "lanes": result["lanes"], "validation": spec.VALIDATION})
    return record


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(binary, workload, args):
    """Runs one workload, prints its report and writes its record.

    Returns (correct, attempted, failed, contract metrics).
    """
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = os.path.join(out_dir, f"trace-{workload}-seed{args.seed}.json")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("hvbench: run exceeded", RUN_TIMEOUT_S, "s")
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("hvbench: binary failed with exit code", proc.returncode)
        sys.exit(1)
    result = json.loads(lines[-1])
    measured = {k: v for k, v in result["metrics"].items() if v is not None}

    # Every metric the spec says this workload produces must be there; a
    # count of a layer the workload never calls is 0.
    sections = [spec.END_TO_END] + ([spec.PER_LAYER] if args.trace else [])
    missing = []
    for m in (m for section in sections for m in section):
        if m["name"] in measured:
            continue
        if workload in m["workloads"]:
            missing.append(m["name"])
        elif m["contract"]:
            measured[m["name"]] = 0
    contract = [m for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)
                if m["contract"]]
    nonpositive = [m["name"] for m in spec.END_TO_END
                   if m["contract"] and not measured.get(m["name"], 0) > 0]
    failures = list(result["failures"])
    if missing:
        failures.append("metrics not reported: " + ", ".join(missing))
    if nonpositive:
        failures.append("end-to-end metrics not positive: " + ", ".join(nonpositive))
    # The two checks above count as operations too.
    attempted = result["attempted"] + 2
    failed = result["failed"] + len(failures) - len(result["failures"])
    correct = failed == 0 and result["consistent"] and result["deterministic"]

    machine = machine_record(result)
    print(f"hvbench {workload} seed={args.seed} trace={args.trace} "
          f"batches={result['batches']}+{result['traced_batches']} traced "
          f"workers={result['workers']} lanes={result['lanes']} nproc={machine['nproc']} "
          f"compiler={machine['compiler']} build={machine['build_type']} "
          f"git={machine['git_sha']} src_lines={machine['src_lines']}")
    about = next(w for w in spec.WORKLOADS if w["name"] == workload)
    print(f"why: {about['why']}")
    print(f"should move: {', '.join(about['moves'])}; "
          f"should not move: {', '.join(about['should_not_move'])}")
    print(f"model: {spec.VALIDATION}")
    print(f"checks: attempted={attempted} failed={failed} "
          f"consistent={result['consistent']} deterministic={result['deterministic']}")
    for failure in failures:
        print("  FAILED:", failure)
    metadata = {}
    for m in (m for section in sections for m in section):
        if m["name"] in measured:
            value = fmt(measured[m["name"]])
        elif workload in m["workloads"]:
            value = "missing"
        else:
            value = "n/a"
        links = (f"moves {', '.join(m['moves'])}" if m["moves"]
                 else f"on {', '.join(m['workloads'])}")
        print(f"  {m['name']:<30} {value:>14} {m['unit']:<13} {m['kind']:<4} "
              f"{m['better']:<6} {links}")
        metadata[m["name"]] = {k: m[k] for k in
                               ("unit", "better", "kind", "layer", "workloads", "moves")}
    extra = sorted(set(measured) - set(spec.METRICS))
    if extra:
        print("  also measured:", ", ".join(f"{k}={fmt(measured[k])}" for k in extra))
    if args.trace:
        print(f"  trace: {os.path.relpath(trace_path, ROOT)}")

    record = {"workload": workload, "about": about, "seed": args.seed, "trace": args.trace,
              "default_seed": spec.DEFAULT_SEED, "heldout_seed": spec.HELDOUT_SEED,
              "machine": machine, "correct": correct,
              "attempted": attempted, "failed": failed,
              "failures": failures, "digest": result["digest"],
              "metrics": measured, "metadata": metadata}
    record_path = os.path.join(
        out_dir, f"record-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return correct, attempted, failed, {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in contract}


def main():
    names = [w["name"] for w in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(binary, args.workload, args)
    else:
        # Every workload in turn; metrics are keyed <workload>/<metric>.
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            ok, tried, bad, measured = run_workload(binary, name, args)
            correct, attempted, failed = correct and ok, attempted + tried, failed + bad
            metrics.update({f"{name}/{k}": v for k, v in measured.items()})
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
