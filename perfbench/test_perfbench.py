"""Self-tests for the benchmark's own arithmetic and bookkeeping.

Run from the checkout root (no ``repro`` import needed)::

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import inputs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(measure.tail_percentile(19))
        self.assertEqual(measure.tail_percentile(20), 50.0)
        self.assertEqual(measure.tail_percentile(100), 90.0)
        self.assertEqual(measure.tail_percentile(199), 90.0)
        self.assertEqual(measure.tail_percentile(200), 95.0)
        self.assertEqual(measure.tail_percentile(999), 95.0)
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(measure.tail_percentile(10000), 99.9)

    def test_min_samples_matches_rule(self):
        for pct in measure.TAIL_PERCENTILES:
            n = measure.min_samples_for(pct)
            self.assertGreaterEqual(measure.samples_beyond(n, pct), 10)
            self.assertLess(measure.samples_beyond(n - 1, pct), 10)
        self.assertEqual(run.MIN_QUERIES, 200)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50.0), 50)
        self.assertEqual(measure.percentile(values, 95.0), 95)
        self.assertEqual(measure.percentile([3.0], 95.0), 3.0)

    def test_failures_count_as_infinite(self):
        values = [1.0] * 190 + [math.inf] * 10
        self.assertEqual(measure.percentile(values, 95.0), 1.0)
        values.append(math.inf)
        self.assertEqual(measure.percentile(values, 95.0), math.inf)

    def test_median(self):
        self.assertEqual(measure.median([3, 1, 2]), 2)
        self.assertEqual(measure.median([4, 1, 3, 2]), 2.5)


class SpearmanTest(unittest.TestCase):
    def test_monotone(self):
        self.assertAlmostEqual(measure.spearman([1, 2, 3, 4], [10, 20, 35, 80]), 1.0)
        self.assertAlmostEqual(measure.spearman([1, 2, 3, 4], [9, 7, 5, 1]), -1.0)

    def test_ties_share_ranks(self):
        self.assertEqual(measure._ranks([5, 1, 5, 2]), [3.5, 1.0, 3.5, 2.0])
        self.assertAlmostEqual(measure.spearman([1, 1, 2], [1, 2, 3]), math.sqrt(3) / 2)

    def test_constant_side_is_zero(self):
        self.assertEqual(measure.spearman([1, 1, 1], [1, 2, 3]), 0.0)


class SelfTimeTest(unittest.TestCase):
    # op [0,100] > a [10,40] > b [20,30]; op > c [50,60]; setup [200,260]
    ROWS = [
        ("op", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 20, 30, 1),
        ("c", 50, 60, 0),
        ("setup", 200, 260, -1),
        ("a", 210, 220, 4),
    ]

    def test_self_times(self):
        self.assertEqual(measure.self_times(self.ROWS), [60, 20, 10, 10, 50, 10])

    def test_self_times_add_up_to_root_wall(self):
        own = measure.self_times(self.ROWS)
        root = measure.roots_of(self.ROWS)
        under_op = sum(own[i] for i in range(len(own)) if root[i] == 0)
        self.assertEqual(under_op, 100)

    def test_by_name(self):
        self.assertEqual(
            measure.self_time_by_name(self.ROWS),
            {"op": 60, "a": 30, "b": 10, "c": 10, "setup": 50},
        )

    def test_recorder_wrappers_nest(self):
        recorder = spans.Recorder()

        def inner():
            return 1

        wrapped_inner = recorder.wrap("inner", inner)
        outer = recorder.wrap("outer", lambda: wrapped_inner() + wrapped_inner())
        root = recorder.open("op")
        self.assertEqual(outer(), 2)
        recorder.close(root)
        rows = recorder.rows()
        self.assertEqual([r[0] for r in rows], ["op", "outer", "inner", "inner"])
        self.assertEqual([r[3] for r in rows], [-1, 0, 1, 1])
        own = measure.self_times(rows)
        self.assertEqual(sum(own), rows[0][2] - rows[0][1])

    def test_recorder_closes_on_exception(self):
        recorder = spans.Recorder()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            recorder.wrap("boom", boom)()
        self.assertEqual(recorder._stack, [])
        self.assertGreaterEqual(recorder.spans[0][2], recorder.spans[0][1])


class NamesTest(unittest.TestCase):
    def test_engine_slugs(self):
        self.assertEqual(measure.engine_slug("Spar(k)ql"), "sparkql")
        self.assertEqual(measure.engine_slug("SPARQL-Hybrid"), "sparql-hybrid")
        self.assertEqual(measure.engine_slug("GraphFrames-RDF"), "graphframes-rdf")
        self.assertEqual(measure.engine_slug("Naive"), "naive")
        with self.assertRaises(ValueError):
            measure.engine_slug("()")

    def test_metric_names(self):
        for good in ("setup_s", "systems.sparql-hybrid.build_s", "9lives"):
            self.assertEqual(measure.check_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "spar(k)ql", "x" * 65, "p95%"):
            with self.assertRaises(ValueError):
                measure.check_metric_name(bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%"):
            measure.check_unit(good)
        with self.assertRaises(ValueError):
            measure.check_unit("per second")

    def test_catalog_names_are_valid_and_unique(self):
        names = [name for name, _u, _b in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in run.END_TO_END + run.PER_LAYER:
            measure.check_metric_name(name)
            measure.check_unit(unit)
            self.assertIn(better, ("lower", "higher"))

    def test_manifest_matches_catalog(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]],
            list(run.PER_LAYER),
        )
        self.assertIn("setup_s", [m["name"] for m in manifest["end_to_end"]])


class RelabelTest(unittest.TestCase):
    LINES = [
        "%s %s %s ." % (inputs.lubm("Student0_0_%d" % i), inputs.lubm("takesCourse"), inputs.lubm("Course0_0_%d" % (i % 2)))
        for i in range(6)
    ] + ['%s %s "Course 0" .' % (inputs.lubm("Course0_0_0"), inputs.lubm("name"))]

    def test_same_seed_same_lines(self):
        self.assertEqual(inputs.relabel_lines(self.LINES, 3), inputs.relabel_lines(self.LINES, 3))
        self.assertNotEqual(inputs.relabel_lines(self.LINES, 3), inputs.relabel_lines(self.LINES, 4))

    def test_renaming_keeps_structure(self):
        out = inputs.relabel_lines(self.LINES, 5)
        self.assertEqual(len(out), len(self.LINES))
        subjects = {line.split(" ")[0] for line in self.LINES if "takesCourse" in line}
        self.assertEqual({line.split(" ")[0] for line in out if "takesCourse" in line}, subjects)
        # Each course keeps its in-degree (3 students each) under renaming.
        degrees = sorted(
            sum(1 for line in out if line.endswith(course + " .") and "takesCourse" in line)
            for course in (inputs.lubm("Course0_0_0"), inputs.lubm("Course0_0_1"))
        )
        self.assertEqual(degrees, [3, 3])
        self.assertEqual(sum(1 for line in out if '"Course 0"' in line), 1)


class OracleTest(unittest.TestCase):
    EX = "<http://x/%s>"

    def triples(self):
        x = self.EX
        return [
            (x % "s1", x % "p", x % "o1"),
            (x % "s1", x % "p", x % "o2"),
            (x % "s2", x % "p", x % "o1"),
            (x % "s1", x % "q", '"7"'),
            (x % "s2", x % "q", '"9"'),
        ]

    def test_star_join_keeps_bag_semantics(self):
        x = self.EX
        oracle = inputs.Oracle(self.triples())
        query = inputs.BgpQuery(("s", "v"), (("?s", x % "p", "?o"), ("?s", x % "q", "?v")))
        self.assertEqual(
            oracle.select(query),
            [[x % "s1", '"7"'], [x % "s1", '"7"'], [x % "s2", '"9"']],
        )

    def test_object_object_join_and_constants(self):
        x = self.EX
        oracle = inputs.Oracle(self.triples())
        query = inputs.BgpQuery(
            ("a", "b"), (("?a", x % "p", "?o"), ("?b", x % "p", "?o"), ("?a", x % "q", '"7"'))
        )
        self.assertEqual(oracle.select(query), [[x % "s1", x % "s1"], [x % "s1", x % "s1"], [x % "s1", x % "s2"]])

    def test_parse_corpus_fragment(self):
        text = (
            "# Star: comment\n"
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT ?s ?n WHERE {\n  ?s lubm:name ?n .\n  ?s lubm:age ?a .\n}\n"
        )
        query = inputs.parse_bgp_query(text)
        self.assertEqual(query.variables, ("s", "n"))
        self.assertEqual(query.patterns[1], ("?s", inputs.lubm("age"), "?a"))
        self.assertEqual(inputs.parse_bgp_query(inputs.render_request(query)), query)

    def test_parse_rejects_other_operators(self):
        with self.assertRaises(ValueError):
            inputs.parse_bgp_query("SELECT ?s WHERE { ?s ?p ?o . FILTER (?o > 1) }")

    def test_payload_is_canonical_json(self):
        payload = inputs.bindings_payload(["s"], [["<a>"]])
        self.assertEqual(payload, '{"ordered":false,"rows":[["<a>"]],"type":"bindings","vars":["s"]}')


if __name__ == "__main__":
    unittest.main()
