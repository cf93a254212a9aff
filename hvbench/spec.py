"""What the Hyperion benchmark measures: workloads, metrics and their links.

This table is the single description of the benchmark. run.py reads it to
check and label what the hvbench binary reports, and

    python3 hvbench/spec.py --write

regenerates BENCHMARK.json from it. BENCHMARK.json holds only the fields
its format allows; the rest (metric kind, layer, the end-to-end metric and
workload each metric should move, seeds, validation status) lives here and
goes into every record run.py writes.

Metric kinds:
  host  what the simulator costs its user, measured in host time or memory;
  sim   what the modelled VMM does, in simulated time; exact for a fixed
        seed and identical at every worker count.

A simulator-only speed-up must leave every sim metric unchanged.
"""

import json
import os
import sys

DEFAULT_SEED = 1
# Not used while tuning the benchmark; re-check claimed gains on it.
HELDOUT_SEED = 7919
RUN_SECONDS = 12

# The model is not validated against real hardware: the repository holds no
# reference measurements, so no accuracy figure is given.
VALIDATION = "unvalidated: no reference measurements in the repository"

WORKLOADS = [
    {
        "name": "fleet",
        "why": "T5 cluster lifecycle on the default interpreter: churn, "
               "CheckpointAll, drain, host crash and DRS over ~200 light "
               "guests; the scenario a user sees",
        "moves": ["core round overhead", "interpreter and isa decode",
                  "checkpoint CRC", "cluster control plane"],
        "should_not_move": ["DBT tiers", "KSM", "virtio-blk and storage"],
    },
    {
        "name": "compute",
        "why": "one host, 8 compute guests and a 4-vCPU MCS-lock guest on "
               "warmed DBT; heavy lanes, no snapshot, migration, KSM, fabric "
               "or interpreter",
        "moves": ["cpu tiers", "mmu fast path", "scheduler", "round barrier"],
        "should_not_move": ["CRC", "control plane", "interpreter",
                            "snapshot", "migrate", "ksm"],
    },
    {
        "name": "lifecycle",
        "why": "template save, clone and fork to halt, one KSM pass, pre- "
               "and post-copy migration of dirtying DBT guests; provisioning "
               "and mobility",
        "moves": ["snapshot", "migrate", "ksm", "mem copy-on-write", "CRC"],
        "should_not_move": ["interpreter", "cluster control plane", "virtio"],
    },
    {
        "name": "io",
        "why": "virtio-net stream/sink and ping/echo pairs on one switch, "
               "virtio-blk writer and reader on HVD overlays of one base; "
               "the device path",
        "moves": ["virtio", "net", "devices", "storage"],
        "should_not_move": ["snapshot", "migrate", "ksm", "cluster"],
    },
]

ALL = [w["name"] for w in WORKLOADS]


def _m(name, unit, better, kind, layer, workloads, moves, bound=None,
       contract=True):
    return {"name": name, "unit": unit, "better": better, "kind": kind,
            "layer": layer, "workloads": workloads, "moves": moves,
            "bound": bound, "contract": contract}


# End-to-end metrics. Those with contract=True are reported by every
# workload and carry the regression bound; the rest apply to some
# workloads only and appear in the report and the record. The throughput
# bounds are wide because a shared 4-core runner drifts by up to a fifth
# over minutes even for one seed; io's peak RSS tracks its switch backlog.
END_TO_END = [
    _m("setup_s", "s", "lower", "host", "e2e", ALL, [], bound=0.25),
    _m("sim_ms_per_s", "sim-ms/s", "higher", "host", "e2e", ALL, [],
       bound=0.25),
    _m("guest_mips", "instr/us", "higher", "host", "e2e", ALL, [],
       bound=0.25),
    _m("peak_rss_mib", "MiB", "lower", "host", "e2e", ALL, [], bound=0.2),
    _m("failed_frac", "ratio", "lower", "host", "e2e", ALL, [],
       contract=False),
    _m("clone_ready_ms_p50", "ms", "lower", "host", "e2e", ["lifecycle"], [],
       contract=False),
    _m("clone_ready_ms_p95", "ms", "lower", "host", "e2e", ["lifecycle"], [],
       contract=False),
    _m("blackout_ms_p50", "sim-ms", "lower", "sim", "e2e",
       ["fleet", "lifecycle"], [], contract=False),
    _m("blackout_ms_max", "sim-ms", "lower", "sim", "e2e",
       ["fleet", "lifecycle"], [], contract=False),
    _m("migration_ms_p50", "sim-ms", "lower", "sim", "e2e",
       ["fleet", "lifecycle"], [], contract=False),
    _m("busy_spread", "ratio", "lower", "sim", "e2e", ["fleet"], [],
       contract=False),
    _m("mem_saved_frac", "ratio", "higher", "sim", "e2e", ["lifecycle"], [],
       contract=False),
    _m("net_frames_per_sim_s", "frames/sim-s", "higher", "sim", "e2e", ["io"],
       [], contract=False),
    _m("net_rtt_us", "sim-us", "lower", "sim", "e2e", ["io", "fleet"], [],
       contract=False),
    _m("blk_mib_per_sim_s", "MiB/sim-s", "higher", "sim", "e2e", ["io"], [],
       contract=False),
]

# Per-layer metrics, named <module>.<metric>. `moves` names the end-to-end
# metric (and workload) a change to the layer should show up in. Time
# metrics of layers only some workloads call are report-only
# (contract=False): they have no value on the other workloads.
PER_LAYER = [
    _m("asm.build_ms", "ms", "lower", "host", "asm", ALL,
       ["nothing timed: input generation"]),
    _m("core.create_vm_us_p50", "us", "lower", "host", "core", ALL,
       ["setup_s@fleet"]),
    _m("core.rounds", "count", "lower", "sim", "core", ALL,
       ["sim_ms_per_s@fleet", "sim_ms_per_s@compute"]),
    _m("core.slices", "count", "lower", "sim", "core", ALL,
       ["sim_ms_per_s@fleet", "sim_ms_per_s@compute"]),
    _m("core.wall_per_round_us", "us", "lower", "host", "core", ALL,
       ["sim_ms_per_s@fleet", "sim_ms_per_s@compute"]),
    _m("core.cpu_per_wall", "ratio", "higher", "host", "core", ALL,
       ["sim_ms_per_s@fleet", "sim_ms_per_s@compute"]),
    _m("core.self_ms", "ms", "lower", "host", "core", ALL,
       ["sim_ms_per_s@fleet", "sim_ms_per_s@compute"]),
    _m("sched.context_switches", "count", "lower", "sim", "sched", ALL,
       ["guest_mips@compute"]),
    _m("sched.steal_frac", "ratio", "lower", "sim", "sched", ALL,
       ["guest_mips@compute"]),
    _m("sched.idle_frac", "ratio", "lower", "sim", "sched", ALL,
       ["guest_mips@compute"]),
    _m("cpu.interp_mips", "instr/us", "higher", "host", "cpu", ALL,
       ["guest_mips@fleet"]),
    _m("cpu.tier1_mips", "instr/us", "higher", "host", "cpu", ALL,
       ["guest_mips@compute"]),
    _m("cpu.tier2_mips", "instr/us", "higher", "host", "cpu", ALL,
       ["guest_mips@compute"]),
    _m("cpu.prewarmed_mips", "instr/us", "higher", "host", "cpu", ALL,
       ["clone_ready_ms_p50@lifecycle", "clone_ready_ms_p95@lifecycle"]),
    _m("cpu.integration_ratio", "ratio", "higher", "host", "cpu", ALL,
       ["sim_ms_per_s@compute"]),
    _m("cpu.blocks_translated", "count", "lower", "sim", "cpu", ALL,
       ["clone_ready_ms_p50@lifecycle"]),
    _m("cpu.tier2_promotions", "count", "higher", "sim", "cpu", ALL,
       ["guest_mips@compute"]),
    _m("cpu.deopts", "count", "lower", "sim", "cpu", ALL,
       ["guest_mips@compute"]),
    _m("cpu.persist_hit_frac", "ratio", "higher", "sim", "cpu", ALL,
       ["clone_ready_ms_p50@lifecycle", "clone_ready_ms_p95@lifecycle"]),
    _m("cpu.fastpath_hit_frac", "ratio", "higher", "sim", "cpu", ALL,
       ["guest_mips@compute"]),
    _m("cpu.exits_per_minstr", "exits/Minstr", "lower", "sim", "cpu", ALL,
       ["sim_ms_per_s@io"]),
    _m("isa.decode_ns", "ns", "lower", "host", "isa", ALL,
       ["guest_mips@fleet"]),
    _m("util.crc32_mib_s", "MiB/s", "higher", "host", "util", ALL,
       ["clone_ready_ms_p50@lifecycle", "sim_ms_per_s@fleet"]),
    _m("snapshot.save_ms_p50", "ms", "lower", "host", "snapshot",
       ["lifecycle"], ["clone_ready_ms_p50@lifecycle"], contract=False),
    _m("snapshot.clone_ms_p50", "ms", "lower", "host", "snapshot",
       ["lifecycle"], ["clone_ready_ms_p50@lifecycle"], contract=False),
    _m("snapshot.fork_ms_p50", "ms", "lower", "host", "snapshot",
       ["lifecycle"], ["clone_ready_ms_p50@lifecycle"], contract=False),
    _m("snapshot.bytes", "bytes", "lower", "sim", "snapshot", ["lifecycle"],
       ["clone_ready_ms_p50@lifecycle"]),
    _m("cluster.checkpoint_all_ms", "ms", "lower", "host", "snapshot",
       ["fleet"], ["sim_ms_per_s@fleet"], contract=False),
    _m("migrate.wall_ms_p50", "ms", "lower", "host", "migrate",
       ["lifecycle"], ["blackout_ms_p50@lifecycle"], contract=False),
    _m("migrate.pages_sent", "count", "lower", "sim", "migrate",
       ["fleet", "lifecycle"],
       ["blackout_ms_p50@lifecycle", "migration_ms_p50@fleet"]),
    _m("migrate.rounds", "count", "lower", "sim", "migrate",
       ["fleet", "lifecycle"],
       ["blackout_ms_max@lifecycle", "migration_ms_p50@lifecycle"]),
    _m("migrate.demand_fetches", "count", "lower", "sim", "migrate",
       ["fleet", "lifecycle"], ["migration_ms_p50@lifecycle"]),
    _m("migrate.retries", "count", "lower", "sim", "migrate",
       ["fleet", "lifecycle"], ["migration_ms_p50@fleet"]),
    _m("ksm.scan_ms", "ms", "lower", "host", "ksm", ["lifecycle"],
       ["mem_saved_frac@lifecycle"], contract=False),
    _m("ksm.pages_scanned", "count", "lower", "sim", "ksm", ["lifecycle"],
       ["mem_saved_frac@lifecycle"]),
    _m("ksm.merge_frac", "ratio", "higher", "sim", "ksm", ["lifecycle"],
       ["mem_saved_frac@lifecycle"]),
    _m("cluster.drs_tick_ms", "ms", "lower", "host", "cluster", ["fleet"],
       ["sim_ms_per_s@fleet"], contract=False),
    _m("cluster.rebalance_migrations", "count", "lower", "sim", "cluster",
       ["fleet"], ["busy_spread@fleet"]),
    _m("cluster.drain_migrations", "count", "lower", "sim", "cluster",
       ["fleet"], ["sim_ms_per_s@fleet"]),
    _m("cluster.evacuations_respawned", "count", "higher", "sim", "cluster",
       ["fleet"], ["failed_frac@fleet"]),
    _m("cluster.evacuations_lost", "count", "lower", "sim", "cluster",
       ["fleet"], ["failed_frac@fleet"]),
    _m("cluster.fabric_frames", "count", "higher", "sim", "cluster",
       ["fleet"], ["net_rtt_us@fleet"]),
    _m("virtio.intr_per_1k_frames", "count", "lower", "sim", "virtio", ALL,
       ["net_frames_per_sim_s@io", "sim_ms_per_s@io"]),
    _m("virtio.kicks_suppressed", "count", "higher", "sim", "virtio", ALL,
       ["net_frames_per_sim_s@io", "sim_ms_per_s@io"]),
    _m("net.bursts", "count", "higher", "sim", "net", ALL,
       ["net_frames_per_sim_s@io"]),
    _m("net.frames_dropped", "count", "lower", "sim", "net", ALL,
       ["net_frames_per_sim_s@io"]),
    _m("net.rx_backlog_hwm", "count", "lower", "sim", "net", ALL,
       ["net_frames_per_sim_s@io"]),
    _m("storage.blk_requests", "count", "higher", "sim", "storage", ALL,
       ["blk_mib_per_sim_s@io"]),
    _m("storage.cow_clusters", "count", "lower", "sim", "storage", ["io"],
       ["blk_mib_per_sim_s@io"]),
    _m("mem.frames_in_use", "count", "lower", "sim", "mem", ALL,
       ["peak_rss_mib@fleet", "mem_saved_frac@lifecycle"]),
    _m("trace.overhead_frac", "ratio", "lower", "host", "trace", ALL,
       ["nothing: traced sim_ms_per_s against untraced"]),
]

METRICS = {m["name"]: m for m in END_TO_END + PER_LAYER}


def benchmark_json():
    """The BENCHMARK.json document: only the fields its format allows."""
    return {
        "command": ["python3", "hvbench/run.py"],
        "paths": ["hvbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"],
             "bound": m["bound"]}
            for m in END_TO_END if m["contract"]
        ],
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"]}
            for m in PER_LAYER if m["contract"]
        ],
    }


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if sys.argv[1:] == ["--write"]:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
