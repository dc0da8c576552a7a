#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark binary like perfbench/run.py does, then run every workload on
shrunken inputs (--small) and check that:
  * the metric names and units printed with --trace 0 and --trace 1 are
    exactly the end_to_end and per_layer lists of BENCHMARK.json;
  * every layer a workload exercises reports a non-zero value;
  * an untouched run is correct with no failed operation;
  * each correctness check catches a deliberately corrupted answer, both a
    wrong match added ("extra") and a true match dropped ("missing"),
    the churn probe's check on its own too.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: build helpers)

SPEC = json.loads((run.REPO_DIR / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics each workload must measure (non-zero). Layers a
# workload does not exercise report 0 and are not listed.
EXERCISED = {
    "serve_scan": [
        "serving.queue_wait_p50_us", "serving.service_p50_us",
        "serving.batch_size_mean", "serving.e2e_p99_us",
        "serving.span.batch_form_us", "serving.span.kernel_us",
        "index.search_us_per_query", "index.knn_us_per_query",
        "index.candidates_per_query", "index.useful_ratio", "index.build_s",
        "kernels.multi_ns_per_code", "kernels.read_gbps",
        "kernels.roofline_frac",
    ],
    "join": [
        "hashing.train_s", "hashing.hash_us_per_tuple",
        # The churn probe in the join's traced pass.
        "serving.span.epoch_pin_us", "serving.span.kernel_us",
        "mutation_p50_us", "mutation_p90_us",
        "index.search_us_per_query", "index.knn_us_per_query",
        "index.candidates_per_query", "index.results_per_query",
        "index.useful_ratio", "index.insert_p50_us", "index.delete_p50_us",
        "index.rebuilds", "index.rebuild_stall_s", "index.epochs_published",
        "index.build_s", "kernels.within_ns_per_code",
        "network_mb", "mr.map_s", "mr.shuffle_s",
        "mr.reduce_s", "mr.reduce_input_max_over_mean", "mr.shuffle_mb",
        "mr.broadcast_mb", "mr.replication_rate", "mr.max_reducer_input",
        "mr.replication_lower_bound", "mrjoin.index_build_s",
        "mrjoin.join_s", "mrjoin.pairs",
    ],
}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build_dir()
        cls.binary = run.build(cls.out)

    def run_small(self, workload, trace="0", corrupt=None, stdout=None):
        cmd = [str(self.binary), "--workload", workload, "--seed", "7",
               "--seconds", "0.5", "--trace", trace, "--small",
               "--out-dir", str(self.out)]
        if corrupt:
            cmd += ["--corrupt", corrupt]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        if stdout is not None:
            stdout.append(proc.stdout)
        return result

    def test_metric_names_match_benchmark_json(self):
        for workload in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_small(workload, trace)
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(printed, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    values = {n: m["value"]
                              for n, m in result["metrics"].items()}
                    wanted = (declared if trace == "0"
                              else EXERCISED[workload])
                    for name in wanted:
                        self.assertGreater(values[name], 0, name)

    def test_checks_catch_corrupted_answers(self):
        for workload in WORKLOADS:
            for mode in ("extra", "missing"):
                with self.subTest(workload=workload, corrupt=mode):
                    result = self.run_small(workload, corrupt=mode)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_churn_probe_check_catches_corrupted_answers(self):
        for mode in ("extra", "missing"):
            with self.subTest(corrupt=mode):
                out = []
                result = self.run_small("join", "1", corrupt=mode, stdout=out)
                self.assertFalse(result["correct"])
                probe = re.search(r"^# churn probe: .* (\d+) wrong$", out[0],
                                  re.MULTILINE)
                self.assertIsNotNone(probe, out[0])
                self.assertGreaterEqual(int(probe.group(1)), 1)

    def test_rejects_unknown_workload(self):
        proc = subprocess.run(
            [str(self.binary), "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
