"""Tests for the benchmark's own code.

    python3 perfbench/tests/test_bench.py

The Smoke tests build weakord and run every workload at minimal size
(about a minute).  To run only the fast tests, name their classes:

    python3 perfbench/tests/test_bench.py Stats Manifest Checks Host Bare
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

from pbench import catalog, host, stats, workloads  # noqa: E402


class Stats(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertRaises(ValueError, stats.median, [])

    def test_quartiles_match_statistics_quantiles(self):
        # statistics.quantiles' default (exclusive) method on 1..10.
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 8.25))
        self.assertEqual(stats.quartiles([10, 10, 10, 10]), (10, 10))
        self.assertRaises(ValueError, stats.quartiles, [1])

    def test_percentile_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertEqual(stats.percentile([5, 1, 3], 1), 1)

    def test_metric_names(self):
        for good in ("setup_s", "serve.p99_ms", "cpu.stall_cycles.gp", "0x", "a-b"):
            self.assertTrue(stats.valid_name(good), good)
        for bad in ("", ".lead", "_lead", "sp ace", "slash/no", "x" * 65, "µs"):
            self.assertFalse(stats.valid_name(bad), bad)


class Manifest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.b = json.load(f)

    def test_names_valid_and_unique(self):
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in self.b[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(stats.valid_name(n), n)

    def test_agrees_with_catalog(self):
        self.assertEqual({w["name"]: w["why"] for w in self.b["workloads"]}, catalog.WORKLOADS)
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"]) for m in self.b["end_to_end"]},
                         {k: v[:3] for k, v in catalog.END_TO_END.items()})
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in self.b["per_layer"]},
                         {k: v[:2] for k, v in catalog.PER_LAYER.items()})

    def test_every_workload_reports_setup_and_overhead(self):
        for w in list(catalog.WORKLOADS) + list(catalog.EXTRA_WORKLOADS):
            self.assertIn("setup_s", catalog.metrics_for(w, trace=False))
            self.assertIn("trace.overhead_pct", catalog.metrics_for(w, trace=True))

    def test_every_manifest_workload_reports_every_metric(self):
        for w in catalog.WORKLOADS:
            self.assertEqual(catalog.metrics_for(w, trace=False), list(catalog.END_TO_END))
            self.assertEqual(catalog.metrics_for(w, trace=True), list(catalog.PER_LAYER))

    def test_layers_belong_to_manifest_workloads(self):
        for name, (_, _, w) in catalog.PER_LAYER.items():
            self.assertTrue(w is None or w in catalog.WORKLOADS, name)
        self.assertFalse(catalog.on_path("drf.share", "sim-64"))
        self.assertTrue(catalog.on_path("drf.share", "verify-big4"))
        self.assertTrue(catalog.on_path("trace.overhead_pct", "sim-64"))

    def test_extra_workloads_stay_out_of_the_manifest(self):
        self.assertFalse(set(catalog.EXTRA_WORKLOADS) & set(catalog.WORKLOADS))
        for w, lists in catalog.EXTRA_METRICS.items():
            self.assertIn(w, catalog.EXTRA_WORKLOADS)
            for name in lists[0] + lists[1]:
                self.assertTrue(catalog.has_unit(name), name)
                self.assertTrue(stats.valid_name(name), name)


class Checks(unittest.TestCase):
    def test_pinned_rows_match_bench_file(self):
        path = os.path.join(ROOT, "BENCH_2026-08-08.json")
        if not os.path.exists(path):
            self.skipTest("no BENCH_2026-08-08.json")
        with open(path) as f:
            rows = json.load(f)["entries"]
        for (w, p, n), want in workloads.PINNED.items():
            row = [e for e in rows if e["kind"] == "sim" and e["name"] == w
                   and e["machine"] == p and e["domains"] == n]
            self.assertEqual(len(row), 1, (w, p, n))
            self.assertEqual((row[0]["total_cycles"], row[0]["finals_crc"], row[0]["stalls_crc"]), want)

    def test_golden_crcs(self):
        text = ('{"traceEvents":[\n]}\n=== stalls ===\nproc cause loc cycles\n'
                "P0   gp-wait          x         44\nP1   read-miss        y   3\n"
                "=== finals ===\nx=1\ny=2\n=== total_cycles ===\n99\n")
        self.assertEqual(workloads.golden_crcs(text),
                         (zlib.crc32(b"x=1;y=2"), zlib.crc32(b"0,gp-wait,x,44;1,read-miss,y,3")))

    def test_strip_record(self):
        rec = '{"job":17,"kind":"seed","states":4,"cached":true,"attempts":1,"ms":0.0}'
        self.assertEqual(workloads.strip_record(rec), '{"kind":"seed","states":4}')

    def test_big4_verdict_is_pinned(self):
        ok = "big4                 obeys=false appears-SC=false ok\n"
        self.assertTrue(workloads.BIG4_VERDICT.search(ok))
        for bad in ("big4                 obeys=true  appears-SC=true  ok\n",
                    "big4                 obeys=false appears-SC=true  ok\n",
                    "big4                 obeys=false appears-SC=false FAIL\n"):
            self.assertFalse(workloads.BIG4_VERDICT.search(bad), bad)

    def test_probe_metrics_keep_their_sample_counts(self):
        run = workloads.Run(None)
        run.take({"a.ms": [2.5, 7], "b": [1.0, 1]}, ["a.ms", "b", "absent"])
        self.assertEqual(run.values, {"a.ms": (2.5, 7, None), "b": (1.0, 1, None)})


class Host(unittest.TestCase):
    def test_timeout_kills_and_reaps_the_whole_group(self):
        host.adopt_orphans()
        d = tempfile.mkdtemp()
        try:
            # The shell's background child outlives the shell unless the
            # group is killed.
            x = host.run(["sh", "-c", "sleep 30 & echo $!; wait"], d, timeout=0.5)
            self.assertTrue(x.cut)
            self.assertLess(x.wall_s, 10)
            child = int(x.out.split()[0])
            self.assertRaises(ProcessLookupError, os.kill, child, 0)
        finally:
            shutil.rmtree(d)

    def test_no_cut_within_the_limit(self):
        d = tempfile.mkdtemp()
        try:
            x = host.run(["sh", "-c", "echo hi"], d, timeout=30)
            self.assertEqual((x.code, x.cut, x.out), (0, False, "hi\n"))
        finally:
            shutil.rmtree(d)


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


class Bare(unittest.TestCase):
    def test_fails_without_sources(self):
        d = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            r = bench(["--workload", "sim-64", "--seed", "1", "--seconds", "1"], cwd=d)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(d)


class Smoke(unittest.TestCase):
    def run_workload(self, w, trace):
        r = bench(["--workload", w, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)])
        self.assertEqual(r.returncode, 0, r.stdout[-2000:] + r.stderr[-2000:])
        last = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        self.assertEqual(list(last["metrics"]), catalog.metrics_for(w, trace))
        for name, m in last["metrics"].items():
            self.assertEqual(m["unit"], catalog.unit(name))

    def test_verify(self):
        self.run_workload("verify-big4", 0)
        self.run_workload("verify-big4", 1)

    def test_serve(self):
        self.run_workload("serve-mix", 0)
        self.run_workload("serve-mix", 1)

    def test_sim(self):
        self.run_workload("sim-64", 0)
        self.run_workload("sim-64", 1)

    def test_fleet(self):
        self.run_workload("fleet-oracle", 0)
        self.run_workload("fleet-oracle", 1)


if __name__ == "__main__":
    unittest.main()
