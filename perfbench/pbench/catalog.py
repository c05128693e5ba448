"""The benchmark's workloads and metrics: names, units, directions.

BENCHMARK.json at the repository root states the manifest part of this
catalog (WORKLOADS, END_TO_END, PER_LAYER) for the harness that runs the
benchmark; tests/test_bench.py checks the two agree.  Every run of a
manifest workload reports every END_TO_END metric (--trace 0) or every
PER_LAYER metric (--trace 1), so the metrics are ones each workload has.
"""

WORKLOADS = {
    "verify-big4": "exhaustive verify of big4 on def2, ooo and spilled def2; DRF dominates, not exploration",
    "sim-64": "timing simulator at 64 cores, def1 vs def2-rs; engine, proto and cpu, no exploration",
}

# Runnable by hand with the same command, but outside BENCHMARK.json: no
# bound the harness allows holds their figures steady (see README.md).
EXTRA_WORKLOADS = {
    "serve-mix": "closed-loop daemon clients mixing cache misses, hits and big3 tails; fork, IPC and cache cost",
    "fleet-oracle": "sharded differential fuzz fleet over a seeded range; the only axiomatic path, heavy-tailed",
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.25),
    "max_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, the workload whose path holds the layer).  On the
# other workload the layer is never called, and the figure reads 0.
PER_LAYER = {
    "drf.share": ("ratio", "lower", "verify-big4"),
    "drf.sync_orders": ("count", "lower", "verify-big4"),
    "drf.alloc_mb": ("MB", "lower", "verify-big4"),
    "explore.share": ("ratio", "lower", "verify-big4"),
    "explore.states": ("count", "lower", "verify-big4"),
    "explore.sym_hits": ("count", "higher", "verify-big4"),
    "explore.suppressed": ("count", "higher", "verify-big4"),
    "explore.alloc_mb": ("MB", "lower", "verify-big4"),
    "sym.states_saved": ("count", "higher", "verify-big4"),
    "sym.saved_share": ("ratio", "higher", "verify-big4"),
    "sc.share": ("ratio", "lower", "verify-big4"),
    "sc.states": ("count", "lower", "verify-big4"),
    "spill.runs": ("count", "lower", "verify-big4"),
    "spill.keys": ("count", "lower", "verify-big4"),
    "spill.extra_share": ("ratio", "lower", "verify-big4"),
    "engine.events": ("count", "lower", "sim-64"),
    "proto.messages": ("count", "lower", "sim-64"),
    "proto.invalidations": ("count", "lower", "sim-64"),
    "proto.nacks": ("count", "lower", "sim-64"),
    "proto.deferrals": ("count", "lower", "sim-64"),
    "cpu.stall_cycles.counter": ("cycles", "lower", "sim-64"),
    "cpu.stall_cycles.gp": ("cycles", "lower", "sim-64"),
    "cpu.stall_cycles.acquire": ("cycles", "lower", "sim-64"),
    "cpu.stall_cycles.read": ("cycles", "lower", "sim-64"),
    "sim.def1_cycles": ("cycles", "lower", "sim-64"),
    "sim.def2rs_cycles": ("cycles", "lower", "sim-64"),
    "sanitizer.checks": ("count", "lower", "sim-64"),
    "sanitizer.share": ("ratio", "lower", "sim-64"),
    "trace.overhead_pct": ("%", "lower", None),  # every workload
}

# Figures the text report prints besides the manifest's: the layers'
# times (which would read exactly 0 on the workload that does not call
# the layer, so they are not manifest metrics), and the extra workloads'
# figures.  name -> unit
DETAIL = {
    "sim.sanitized_s": "s",
    "drf.obeys_ms": "ms",
    "drf.sync_orders_ms": "ms",
    "explore.ms": "ms",
    "explore.ns_per_state": "ns",
    "sym.ms_saved": "ms",
    "sc.ms": "ms",
    "spill.extra_ms": "ms",
    "sim.ns_per_event": "ns",
    "serve.p50_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.jobs_per_s": "1/s",
    "runner.materialize_ms": "ms",
    "runner.fork_ms": "ms",
    "worker.ms": "ms",
    "cache.find_us": "us",
    "cache.add_us": "us",
    "cache.hits": "count",
    "cache.misses": "count",
    "serve.hit_share": "ratio",
    "wire.ping_ms": "ms",
    "serve.overhead_ms": "ms",
    "fleet.seeds_per_s": "1/s",
    "fleet.hang_bisections": "count",
    "fleet.requeues": "count",
    "fleet.poison_share": "ratio",
    "axiomatic.ms": "ms",
    "axiomatic.seed_p99_ms": "ms",
    "axiomatic.seed_max_ms": "ms",
    "axiomatic.share": "ratio",
    "oracle.seed_p50_ms": "ms",
    "oracle.seed_max_ms": "ms",
}

# The result-line metrics of the extra workloads: (trace 0, trace 1).
EXTRA_METRICS = {
    "serve-mix": (
        ["setup_s", "serve.p50_ms", "serve.p99_ms", "serve.jobs_per_s"],
        ["runner.materialize_ms", "runner.fork_ms", "worker.ms", "cache.find_us",
         "cache.add_us", "cache.hits", "cache.misses", "serve.hit_share", "wire.ping_ms",
         "serve.overhead_ms", "serve.p50_ms", "serve.p99_ms", "serve.jobs_per_s",
         "trace.overhead_pct"],
    ),
    "fleet-oracle": (
        ["setup_s", "fleet.seeds_per_s"],
        ["fleet.seeds_per_s", "fleet.hang_bisections", "fleet.requeues", "fleet.poison_share",
         "axiomatic.ms", "axiomatic.seed_p99_ms", "axiomatic.seed_max_ms", "axiomatic.share",
         "oracle.seed_p50_ms", "oracle.seed_max_ms", "trace.overhead_pct"],
    ),
}


def metrics_for(workload, trace):
    """Names of the metrics one run reports on its result line."""
    if workload in EXTRA_METRICS:
        return list(EXTRA_METRICS[workload][1 if trace else 0])
    return list(PER_LAYER if trace else END_TO_END)


def on_path(name, workload):
    """Whether [workload] calls the layer that per-layer metric [name]
    measures (end-to-end and extra figures: always)."""
    row = PER_LAYER.get(name)
    return row is None or row[2] is None or row[2] == workload


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name in PER_LAYER:
        return PER_LAYER[name][0]
    return DETAIL[name]


def has_unit(name):
    return name in END_TO_END or name in PER_LAYER or name in DETAIL
