"""Smoke test of the benchmark at toy sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import unittest

import run
from workloads import WORKLOADS

MODULES = run.import_recindex()
TOY_SIZES = {
    "report-pareto-csv": 200,
    "report-long-jsonl": 40,
    "axioms-exhaustive": 4,
    "axioms-sampled": 10,
}


def toy(name: str):
    return dataclasses.replace(WORKLOADS[name], size=TOY_SIZES[name])


def prepare(name: str, work_dir):
    workload = toy(name)
    return workload.prepare(workload, work_dir, 7, MODULES)


class BenchmarkSmokeTest(unittest.TestCase):
    def setUp(self):
        self.work_dir = run.OUT / "inputs" / "smoke"
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def test_every_metric_is_emitted(self):
        for name in WORKLOADS:
            for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    record, _ = run.benchmark(toy(name), 7, 0, trace, MODULES)
                    result = json.loads(json.dumps(record["result"]))
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertEqual(list(result["metrics"]), list(names))
                    self.assertTrue(result["correct"], record["problems"])
                    self.assertGreater(result["attempted"], 0)
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                        continue
                    layer = {k: m["value"] for k, m in result["metrics"].items()}
                    if name.startswith("report"):
                        self.assertEqual(layer["core.conjugate_calls"], 3 * TOY_SIZES[name])
                        self.assertEqual(layer["ingest.records"], 3 * TOY_SIZES[name])
                    else:
                        self.assertEqual(layer["axioms.check_calls"], 104)
                        exhaustive = name == "axioms-exhaustive"
                        self.assertEqual(layer["enumeration.enumerate_calls"], 105 if exhaustive else 0)
                        self.assertEqual(layer["axioms.refused"], 0 if exhaustive else 8)

    def test_failed_rows_come_from_csv_outputs_and_repeat(self):
        for name in ("report-pareto-csv", "report-long-jsonl"):
            with self.subTest(workload=name):
                first, _ = run.benchmark(toy(name), 7, 0, False, MODULES)
                again, _ = run.benchmark(toy(name), 7, 0, False, MODULES)
                self.assertGreater(first["result"]["failed"], 0)
                for key in ("attempted", "failed"):
                    self.assertEqual(first["result"][key], again["result"][key])
                self.assertTrue(all("csv" in line.split(" row ")[0] for line in first["failures"]))

    def test_corrupted_rows_and_cells_are_counted(self):
        cli = MODULES["cli"]
        for name, corrupt in (
            ("report-pareto-csv", lambda text: text.replace('"rec": ', '"rec": 1', 1)),
            ("report-long-jsonl", lambda text: text.replace('"h": ', '"h": 9', 1)),
            ("axioms-exhaustive", lambda text: text.replace("satisfied-on-domain", "violated", 1)),
        ):
            with self.subTest(workload=name):
                prepared = prepare(name, self.work_dir)
                _, _, outputs = run.run_pass(cli, prepared.commands)
                clean = run.check_outputs(prepared, outputs)
                # the last jsonl output of each workload carries the corruption
                at = max(i for i, c in enumerate(prepared.commands) if "jsonl" in c.argv)
                code, text = outputs[at]
                outputs[at] = (code, corrupt(text))
                self.assertNotEqual(outputs[at][1], text)
                dirty = run.check_outputs(prepared, outputs)
                self.assertEqual(dirty.attempted, clean.attempted)
                self.assertEqual(dirty.failed, clean.failed + 1)

    def test_pinned_reference_matches_itself_and_catches_a_changed_witness(self):
        from workloads import check_axioms, reference_path

        reference = json.loads(reference_path(WORKLOADS["axioms-exhaustive"].size).read_text())
        self.assertEqual(reference["exit_code"], 2)  # the documented min_n_x1/UE mismatch
        lines = [json.dumps(line) for line in reference["lines"]]
        clean = check_axioms("pinned", 2, "\n".join(lines), MODULES, reference)
        self.assertEqual((clean.failed, clean.problems), (0, []))
        violated = next(i for i, line in enumerate(reference["lines"]) if line.get("status") == "violated")
        changed = dict(reference["lines"][violated], counterexample=None)
        lines[violated] = json.dumps(changed)
        dirty = check_axioms("pinned", 2, "\n".join(lines), MODULES, reference)
        self.assertEqual(dirty.failed, 1)


if __name__ == "__main__":
    unittest.main()
