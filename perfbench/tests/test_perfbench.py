#!/usr/bin/env python3
"""The benchmark's own tests: output contract and failure accounting.

    python3 perfbench/tests/test_perfbench.py

Each test runs perfbench/run.py (building on first use) on the `explore`
workload with --seconds 1, so the suite takes about a minute once built.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = ROOT / ".bench_build" / "perfbench-runs"
# Per-layer metrics that read 0 on a clean traced explore run: explore never
# proves flow equivalence, a clean svc session never retries, and the svc
# engine's capacity holds the whole working set.
EXPLORE_ZERO = {"sim.flow_eq_ms", "svc.retries", "flow.evictions"}


def run(*extra, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "5", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None), out


class PerfbenchTest(unittest.TestCase):
    def test_clean_run_prints_every_end_to_end_metric_and_no_failure(self):
        rc, res, _ = run("--trace", "0")
        self.assertEqual(rc, 0)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = [m["name"] for m in BENCH["end_to_end"]]
        self.assertEqual(list(res["metrics"]), want)
        for m in BENCH["end_to_end"]:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertGreater(got["value"], 0, m["name"])
        report = json.loads((RUNS / "explore-seed5.report.json").read_text())
        prov = report["provenance"]
        for key in ("seed", "nproc", "cpu", "compiler", "build_type",
                    "commit", "source_digest"):
            self.assertIn(key, prov)
        self.assertEqual(prov["build_type"], "Release")
        # The determinism ledger is per source digest.
        self.assertTrue((RUNS / "ledger" /
                         f"explore-seed5-{prov['source_digest']}").exists())

    def test_armed_fault_is_counted_as_failed_ops(self):
        rc, res, out = run("--trace", "0", "--fault",
                           "site=engine.stage.synth,hit=1,count=1000")
        self.assertEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertIn("fail_ratio", out.stdout)
        self.assertNotIn("fail_ratio 0\n", out.stdout)

    def test_traced_run_prints_every_per_layer_metric_and_a_trace(self):
        rc, res, out = run("--trace", "1")
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(list(res["metrics"]),
                         [m["name"] for m in BENCH["per_layer"]])
        trace = json.loads((RUNS / "explore-seed5-traced.trace.json").read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        self.assertTrue({"core.optimize", "check.lint", "flow.mc",
                         "netlist.read", "sim.build", "svc.rtt",
                         "svc.handle"} <= names)
        zero = {name for name, m in res["metrics"].items() if m["value"] == 0}
        self.assertEqual(zero, EXPLORE_ZERO)
        self.assertTrue((RUNS / "explore-seed5-traced.selftime.txt").exists())
        self.assertIn("tracing overhead", out.stdout)

    def test_refuses_to_run_without_the_repository_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in (ROOT / "perfbench").rglob("*"):
            if f.is_file() and "__pycache__" not in f.parts:
                dst = bare / f.relative_to(ROOT)
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(f, dst)
        try:
            rc, res, _ = run("--trace", "0", cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(res)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
