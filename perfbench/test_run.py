"""Tests of the benchmark's own logic: python3 -m unittest perfbench/test_run.py"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def span(i, parent, start, end, name="s", check=False, source="flow"):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end,
            "check": check, "source": source}


class Statistics(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_no_tail_percentile_without_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile([float(i) for i in range(39)]))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        xs = [float(i) for i in range(40)]
        self.assertEqual(run.tail_percentile(xs), (75, 29.0))
        xs = [float(i) for i in range(100)]
        self.assertEqual(run.tail_percentile(xs), (90, 89.0))
        xs = [float(i) for i in range(1000)]
        self.assertEqual(run.tail_percentile(xs), (99, 989.0))

    def test_ties_at_the_percentile_are_not_beyond_it(self):
        xs = [1.0] * 95 + [2.0] * 5
        self.assertIsNone(run.tail_percentile(xs))

    def test_summary_reports_quartiles_and_count(self):
        s = run.summary([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((s["n"], s["median"], s["q1"], s["q3"]), (5, 3.0, 1.5, 4.5))
        self.assertEqual(run.summary([7.0])["q1"], 7.0)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 1, 2.0, 3.0),
                 span(3, 0, 5.0, 6.0)]
        st = run.self_times(spans)
        self.assertAlmostEqual(st[0], 6.0)
        self.assertAlmostEqual(st[1], 2.0)
        self.assertAlmostEqual(st[2], 1.0)
        self.assertAlmostEqual(st[3], 1.0)

    def test_overlapping_children_count_once(self):
        # Two fleet jobs running side by side under one fan-out span.
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 6.0), span(2, 0, 2.0, 8.0)]
        self.assertAlmostEqual(run.self_times(spans)[0], 3.0)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span(0, None, 0.0, 4.0), span(1, 0, 3.0, 9.0), span(2, 0, 5.0, 6.0)]
        self.assertAlmostEqual(run.self_times(spans)[0], 3.0)

    def test_union_length(self):
        self.assertAlmostEqual(run.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]), 4.0)
        self.assertEqual(run.union_length([]), 0.0)

    def test_layer_metrics_separate_flow_checks_and_setup(self):
        spans = [
            span("a", None, 0.0, 5.0, "setup", source="setup"),
            span("b", "a", 0.0, 4.0, "scenario.run", source="setup"),
            span("c", None, 0.0, 1.0, "obtain"),
            span("d", "c", 0.0, 1.0, "obtain.world"),
            span("e", None, 1.0, 3.0, "render"),
            span("f", "e", 1.0, 2.0, "render.table1"),
            span("g", "e", 1.0, 3.0, "render.table2"),
            span("h", None, 3.0, 3.5, "snapshot.load", check=True),
        ]
        counts = {"fleet.obtain_workers": 1, "fleet.render_workers": 2,
                  "dataset.events": 8, "scenario.shard_busy_max_s": 3.0,
                  "scenario.shard_busy_mean_s": 2.0}
        m = run.layer_metrics(spans, counts, untraced_wall=3.25, traced_wall=4.0)
        self.assertEqual(m["scenario.events_per_s"], 2.0)
        self.assertEqual(m["scenario.merge_tail_s"], 1.0)
        self.assertEqual(m["scenario.shard_imbalance"], 1.5)
        self.assertEqual(m["render.s"], 3.0)
        self.assertEqual(m["fleet.parallel_efficiency"], 4.0 / 5.0)
        self.assertEqual(m["trace.unattributed_s"], 0.25)
        self.assertEqual(m["trace.overhead_s"], 0.25)
        self.assertEqual(m["snapshot.load_s"], 0.5)
        self.assertEqual(m["prefetch.rows_per_s"], 0.0)
        self.assertEqual(sorted(m), sorted(name for name, _ in run.PER_LAYER))


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("wall_s", "render.table1_s", "snapshot.verify_mb_per_s", "a-b.c_9"):
            self.assertTrue(run.valid_name(good), good)
        for bad in ("", ".lead", "sp ace", "slash/no", "x" * 65, "ünï", "a:b"):
            self.assertFalse(run.valid_name(bad), bad)

    def test_every_metric_name_is_valid_and_unique(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(run.valid_name(n), n)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))

    def test_exhibit_list_matches_the_golden_manifest(self):
        golden = run.parse_manifest((ROOT / run.MANIFEST).read_text())
        self.assertEqual(sorted(f"{n}.txt" for n in run.EXHIBITS), sorted(golden))


class Manifest(unittest.TestCase):
    A = "a" * 64
    B = "b" * 64

    def test_order_does_not_matter(self):
        one = run.parse_manifest(f"{self.A}  table1.txt\n{self.B}  table10.txt\n")
        two = run.parse_manifest(f"{self.B}  table10.txt\n\n{self.A}  table1.txt")
        self.assertEqual(one, two)
        self.assertEqual(one["table10.txt"], self.B)

    def test_binary_mode_marker(self):
        self.assertEqual(run.parse_manifest(f"{self.A} *all.txt"), {"all.txt": self.A})

    def test_malformed_lines_are_rejected(self):
        for bad in ("nothex  a.txt", f"{self.A}a.txt", f"{self.A[:-1]}  a.txt"):
            with self.assertRaises(ValueError):
                run.parse_manifest(bad)

    def test_checked_in_manifest_parses(self):
        self.assertEqual(len(run.parse_manifest((ROOT / run.MANIFEST).read_text())), 25)


class Failures(unittest.TestCase):
    def test_exit_codes_and_mismatches_both_fail(self):
        t = run.Tally()
        t.record(0, True)
        t.record(4, True)
        t.record(0, False)
        t.record(0, True)
        self.assertEqual((t.attempted, t.failed, t.failed_frac), (4, 2, 0.5))

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(run.Tally().failed_frac, 1.0)


if __name__ == "__main__":
    unittest.main()
