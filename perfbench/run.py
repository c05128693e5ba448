#!/usr/bin/env python3
"""weakord's benchmark: one command, seeded workloads, output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify-big4 or sim-64 (the workloads BENCHMARK.json lists), or
serve-mix or fleet-oracle (run by hand only).  Run from the root of a
checkout.  It builds weakord (and the probe) from
the checkout's sources, runs the workload for S seconds, checks the
outputs, and prints a text report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace under perfbench/_work/); a per-layer metric of
a layer the workload never calls reads 0.  The exit code is 1
when an output check fails, 2 when the sources are missing or a build
fails.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pbench import catalog, host, workloads  # noqa: E402


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS) + sorted(catalog.EXTRA_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return a


def span_table(path):
    """Per span name: count, total and self milliseconds.  Self time is a
    span's duration minus the part its child spans (nested in time on
    the same track) cover."""
    with open(path) as f:
        spans = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    spans.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], -e["dur"]))
    rows, stack = {}, []  # stack: (track, end, name) of the enclosing spans
    for e in spans:
        track, ms = (e["pid"], e["tid"]), e["dur"] / 1000.0
        while stack and (stack[-1][0] != track or stack[-1][1] <= e["ts"]):
            stack.pop()
        r = rows.setdefault(e["name"], [0, 0.0, 0.0])
        r[0], r[1], r[2] = r[0] + 1, r[1] + ms, r[2] + ms
        if stack:
            rows[stack[-1][2]][2] -= ms
        stack.append((track, e["ts"] + e["dur"], e["name"]))
    lines = ["%-22s %7s %12s %12s" % ("span", "count", "total_ms", "self_ms")]
    for name, (n, tot, self_) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append("%-22s %7d %12.1f %12.1f" % (name, n, tot, self_))
    return lines


def report(run, fp):
    """Print the text table, the samples/fingerprint line, and the
    result line; return the exit code."""
    ctx = run.ctx
    names = catalog.metrics_for(ctx.workload, ctx.trace)
    metrics, samples, rows = {}, {}, []

    def row(name, value, n, q):
        return "%-28s %14.6g  %-7s %7d  %s" % (name, value, catalog.unit(name), n,
                                               "%.6g..%.6g" % q if q else "")

    for name in names:
        if name in run.values:
            value, n, q = run.values[name]
        elif not catalog.on_path(name, ctx.workload):
            value, n, q = 0, 0, None  # the workload never calls this layer
        else:
            run.mismatch("metric %s was not measured" % name)
            continue
        if not math.isfinite(value):
            run.mismatch("metric %s is not finite" % name)
            continue
        metrics[name] = {"value": value, "unit": catalog.unit(name)}
        samples[name] = n
        rows.append(row(name, value, n, q))
    detail = [row(name, *v) for name, v in run.values.items()
              if name not in metrics and catalog.has_unit(name)]
    print("workload %s  seed %d  seconds %g  trace %d"
          % (ctx.workload, ctx.seed, ctx.seconds, ctx.trace))
    print("%-28s %14s  %-7s %7s  %s" % ("metric", "value", "unit", "samples", "q1..q3"))
    for line in rows:
        print(line)
    if detail:
        print("also measured (text only, not on the result line):")
        for line in detail:
            print(line)
    for note in run.notes:
        print("note: " + note)
    for msg in run.mismatches:
        print("MISMATCH: " + msg)
    print("failed %d of %d attempted" % (run.failed, run.attempted))
    if ctx.trace and os.path.exists(ctx.chrome):
        print("chrome trace: " + ctx.chrome)
        for line in span_table(ctx.chrome):
            print(line)
    print(json.dumps({"samples": samples, "fingerprint": fp}, sort_keys=True))
    correct = not run.mismatches
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv):
    a = parse(argv)
    host.adopt_orphans()
    try:
        weakord, probe = host.build()
    except host.Missing as e:
        sys.stderr.write("perfbench: run from the root of a weakord checkout (missing %s)\n" % e)
        return 2
    ctx = workloads.Ctx(a.workload, a.seed, a.seconds, a.trace, weakord, probe)
    fp = host.fingerprint(probe)
    fp.update({
        "verify_jobs": "auto (%d domains)" % fp["recommended_domain_count"],
        "serve_workers": ctx.width,
        "serve_connections": ctx.width,
        "fleet_shards": ctx.width,
    })
    if ctx.trace and os.path.exists(ctx.chrome):
        os.remove(ctx.chrome)
    run = workloads.Run(ctx)
    workloads.ALL[a.workload](run)
    run.finish()
    return report(run, fp)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
