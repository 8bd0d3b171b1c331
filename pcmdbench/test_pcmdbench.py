"""Tests of the benchmark itself, at tiny sizes (about half a minute).

    python3 -m unittest discover -s pcmdbench

They run pcmdbench/run.py the way the benchmark is run, with --tiny 1 so
every workload does a few steps or jobs, and check that every metric of
BENCHMARK.json is printed with its unit, that the count metrics repeat
exactly across runs and between traced and untraced runs, that a fabricated
bad output reaches the failure count, and that bad input is refused.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MD_WORKLOADS = ("fig5-seq", "paper36-heal")
COUNTS = ("md.pairs_per_step", "sim.msgs_per_step", "core.transfers_per_step",
          "vstep_ms")


def run(workload, trace, *extra, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "pcmdbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(stdout):
    """The result object and every printed metric/info line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("metric", "info"):
            printed[parts[1]] = (float(parts[2]), parts[3])
    return result, printed, lines


class Benchmark(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in MD_WORKLOADS + ("serve-mixed",):
            for name, trace in (("a", 0), ("b", 0), ("traced", 1)):
                done = run(workload, trace)
                if done.returncode != 0:
                    raise AssertionError(
                        f"{workload} trace={trace} exited {done.returncode}:\n"
                        f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
                cls.runs[(workload, name)] = parse(done.stdout)

    def check_metric_set(self, result, printed, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            entry = result["metrics"][m["name"]]
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            self.assertIsInstance(entry["value"], (int, float))
            self.assertIn(m["name"], printed)
            self.assertEqual(printed[m["name"]][1], m["unit"], m["name"])

    def test_end_to_end_metrics_printed_with_units(self):
        for (workload, name), (result, printed, _) in self.runs.items():
            if name != "traced":
                with self.subTest(workload=workload, run=name):
                    self.check_metric_set(result, printed, SPEC["end_to_end"])
                    for m in SPEC["end_to_end"]:
                        self.assertGreater(result["metrics"][m["name"]]["value"],
                                           0, m["name"])

    def test_per_layer_metrics_printed_with_units(self):
        for workload in MD_WORKLOADS + ("serve-mixed",):
            with self.subTest(workload=workload):
                result, printed, _ = self.runs[(workload, "traced")]
                self.check_metric_set(result, printed, SPEC["per_layer"])

    def test_counts_repeat_across_runs_and_tracing(self):
        for workload in MD_WORKLOADS:
            _, a, _ = self.runs[(workload, "a")]
            _, b, _ = self.runs[(workload, "b")]
            _, traced, _ = self.runs[(workload, "traced")]
            for name in COUNTS:
                with self.subTest(workload=workload, count=name):
                    self.assertEqual(a[name], b[name])
                    self.assertEqual(a[name], traced[name])

    def test_serve_state_repeats_across_runs_and_tracing(self):
        _, a, lines_a = self.runs[("serve-mixed", "a")]
        _, b, lines_b = self.runs[("serve-mixed", "b")]
        _, traced, lines_t = self.runs[("serve-mixed", "traced")]
        for name in ("vstep_ms", "serve.store_crc32", "serve.journal_crc32"):
            with self.subTest(value=name):
                self.assertEqual(a[name], b[name])
                self.assertEqual(a[name], traced[name])
        counters = [[l for l in lines if "SERVE-COUNTERS" in l]
                    for lines in (lines_a, lines_b, lines_t)]
        self.assertEqual(len(counters[0]), 1)
        self.assertEqual(counters[0], counters[1])
        self.assertEqual(counters[0], counters[2])

    def test_phase_split_sums_to_step(self):
        for workload in MD_WORKLOADS:
            with self.subTest(workload=workload):
                result, printed, _ = self.runs[(workload, "traced")]
                parts = sum(v["value"] for k, v in result["metrics"].items()
                            if k.startswith("ddm.phase_ms."))
                self.assertAlmostEqual(parts, printed["traced_step_ms_mean"][0],
                                       delta=1e-6 * parts + 1e-9)

    def test_fabricated_bad_output_is_counted(self):
        for workload in ("fig5-seq", "serve-mixed"):
            with self.subTest(workload=workload):
                done = run(workload, 0, "--fabricate-error", "1")
                self.assertEqual(done.returncode, 1)
                result, _, lines = parse(done.stdout)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(any(l.startswith("CHECK FAILED") for l in lines))

    def test_bad_command_line_exits_2(self):
        cases = (
            ["--workload", "bogus", "--seed", "1", "--seconds", "1", "--trace", "0"],
            ["--workload", "fig5-seq", "--seed", "-1", "--seconds", "1", "--trace", "0"],
            ["--workload", "fig5-seq", "--seed", "1", "--seconds", "0", "--trace", "0"],
            ["--workload", "fig5-seq", "--seed", "1", "--seconds", "1", "--trace", "2"],
            ["--workload", "fig5-seq", "--seed", "1", "--trace", "0"],
            ["--workload", "fig5-seq", "--seed", "1", "--seconds", "1", "--trace", "0", "--bogus", "1"],
        )
        for args in cases:
            with self.subTest(args=args):
                done = subprocess.run([sys.executable, "pcmdbench/run.py", *args],
                                      cwd=ROOT, capture_output=True, text=True)
                self.assertEqual(done.returncode, 2)
                self.assertIn("error:", done.stderr)
                self.assertEqual(done.stdout, "")

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "pcmdbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run("fig5-seq", 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
