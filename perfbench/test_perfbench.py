#!/usr/bin/env python3
"""Tests of the benchmark itself, in quick mode (three small instances per
table, six stream jobs):

    python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1a_compiled", "table1b_optimized", "veriqcd_stream")
SEED = 7


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    verdicts = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 10 and fields[0].startswith("table1"):
            verdicts.setdefault(tuple(fields[0:1] + fields[4:6]), set()).add(fields[6])
    detail = json.loads(lines[-2].split(": ", 1)[1])
    return json.loads(lines[-1]), verdicts, detail


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}

    def test_every_metric_is_printed_with_its_unit(self):
        for (workload, trace), (result, _, _) in self.runs.items():
            declared = self.spec["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                for metric in declared:
                    printed = result["metrics"][metric["name"]]
                    self.assertEqual(printed["unit"], metric["unit"], metric["name"])
                    self.assertIsInstance(printed["value"], (int, float))

    def test_every_zero_layer_metric_gives_its_reason(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _, detail = self.runs[(workload, 1)]
                reasons = [entry.split(":", 1)[0] for entry in detail["absent"]]
                unexplained = [
                    name for name, printed in result["metrics"].items()
                    if printed["value"] == 0 and not any(
                        name == r or (r.endswith(".*") and name.startswith(r[:-1]))
                        for r in reasons)]
                self.assertEqual(unexplained, [])

    def test_traced_and_untraced_verdicts_agree(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced = self.runs[(workload, 0)][1]
                traced = self.runs[(workload, 1)][1]
                self.assertTrue(untraced)
                # The stream's jobs are keyed by pair; cells by pair and method.
                self.assertEqual(
                    {k: v for k, v in traced.items() if k in untraced}, untraced)
                for verdicts in list(untraced.values()) + list(traced.values()):
                    self.assertEqual(len(verdicts), 1, verdicts)

    def test_spans_nest_and_share_ids(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail = self.runs[(workload, 1)][2]
                spans = json.loads((ROOT / detail["trace_file"]).read_text())["spans"]
                self.assertTrue(spans)
                by_id = {span["id"]: span for span in spans}
                roots = 0
                for span in spans:
                    self.assertLessEqual(span["start"], span["end"], span)
                    if span["parent"] == 0:
                        roots += 1
                        continue
                    parent = by_id[span["parent"]]
                    self.assertEqual(span["trace"], parent["trace"], span)
                    self.assertGreaterEqual(span["start"], parent["start"], span)
                    self.assertLessEqual(span["end"], parent["end"], span)
                self.assertGreater(roots, 0)
                checks = [s for s in spans if s["name"] == "check"]
                self.assertTrue(checks)
                self.assertTrue(any(s["probe"] for s in spans))


if __name__ == "__main__":
    unittest.main()
