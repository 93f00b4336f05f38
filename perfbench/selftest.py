"""The benchmark's own tests.  Run from the root of the checkout::

    python3 perfbench/selftest.py

They take about a minute: one untraced and two traced extcheck passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT, ROOT, check_pass, load_refs, run_worker  # noqa: E402
from speed import REFERENCE_S, to_reference, trimmed_mean  # noqa: E402
from worker import normalise_seed  # noqa: E402
from workloads import KNOWN_ANSWERS  # noqa: E402


class TracedExtcheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(OUT, exist_ok=True)
        cls.refs = load_refs()
        cls.plain = run_worker("extcheck", 0)
        cls.traced = [run_worker("extcheck", 0, trace_path=os.path.join(OUT, f"selftest-{i}.json"))
                      for i in range(2)]

    def test_untraced_pass_matches_references(self):
        self.assertEqual(check_pass(self.plain, "extcheck", self.refs), [])

    def test_speed_probe_runs_only_untraced(self):
        self.assertGreater(self.plain["pass_kernel_s"], 0)
        self.assertGreater(self.plain["setup_kernel_s"], 0)
        self.assertNotIn("pass_kernel_s", self.traced[0])

    def test_call_counts_repeat_exactly(self):
        a, b = (t["trace"] for t in self.traced)
        self.assertEqual({k: v["calls"] for k, v in a.items()}, {k: v["calls"] for k, v in b.items()})

    def test_traced_reports_are_byte_identical(self):
        for t in self.traced:
            self.assertEqual([(c["exit"], c["report"]) for c in t["commands"]],
                             [(c["exit"], c["report"]) for c in self.plain["commands"]])

    def test_trace_reproduces_profile_counts(self):
        trace = self.traced[0]["trace"]
        self.assertEqual(trace["modules.is_injective_module"]["calls"], 2096)
        self.assertEqual(trace["homology.cosyzygy"]["calls"], 332)

    def test_spans_file_is_written(self):
        with open(os.path.join(OUT, "selftest-0.json"), encoding="utf-8") as fh:
            dumped = json.load(fh)
        calls = sum(v["calls"] for v in self.traced[0]["trace"].values())
        self.assertEqual(len(dumped["spans"]), calls)

    def test_altered_reference_is_counted_as_failed(self):
        reports, codes = self.refs
        label = "extcheck.kronecker-m1"
        altered = dict(reports)
        altered[label] = reports[label].replace('"pairs_checked": 324', '"pairs_checked": 325')
        self.assertNotEqual(altered[label], reports[label])
        self.assertEqual(len(check_pass(self.plain, "extcheck", (altered, codes))), 1)
        self.assertEqual(len(check_pass(self.plain, "extcheck", (reports, {**codes, label: 1}))), 1)


class KnownAnswers(unittest.TestCase):
    def setUp(self):
        self.reports = {label: json.loads(text) for label, text in load_refs()[0].items()}

    def test_references_meet_known_answers(self):
        for label, check in KNOWN_ANSWERS.items():
            self.assertEqual(check(self.reports[label]), [], label)

    def test_known_answers_can_fail(self):
        wrong = [
            ("example34.golden", "gl_dim_end_M0", 4),
            ("domdim.a5-m2", "proof_bound_dom_ge_t_minus_1", True),
            ("bounds.a4-m3", "upper", 8),
            ("repdim.a3-m2", "gl_dim_end_M", 4),
        ]
        for label, key, value in wrong:
            report = self.reports[label]
            report["results"][0]["values"][key] = value
            self.assertNotEqual(KNOWN_ANSWERS[label](report), [], label)


class Harness(unittest.TestCase):
    def test_seed_field_is_normalised_and_checked(self):
        text = '{\n  "results": [],\n  "seed": 7\n}\n'
        self.assertEqual(normalise_seed(text, 7), ('{\n  "results": [],\n  "seed": 0\n}\n', None))
        self.assertIsNotNone(normalise_seed(text, 3)[1])

    def test_trimmed_mean_and_reference_speed(self):
        self.assertEqual(trimmed_mean([1.0] * 8 + [0.0, 100.0]), 1.0)
        self.assertAlmostEqual(to_reference(3.0, 2 * REFERENCE_S), 1.5)

    def test_fails_without_sources(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "resolve", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
