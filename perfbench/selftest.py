"""Self-tests of the benchmark: corpus determinism, corpus facts and the tracer.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTED, SPANS, Tracer, TracerError  # noqa: E402

run.import_cli()
import trisys as ts  # noqa: E402

COUNT_METRICS = ("system.identity_tuples", "system.violations", "jideal.closure_rounds",
                 "exactnum.span_insert.useful_ratio", "cli.output_bytes")


def corpus_files(name: str, seed: int) -> list[tuple[str, str]]:
    """(file name, file bytes) of every generated input, in generation order."""
    return [(op.file, op.system.text()) for op in workloads.build_ops(workloads.WORKLOADS[name], seed)]


def as_trisys(s: corpus.System):
    return ts.construct_system(s.dim, s.entries)


class CorpusDeterminism(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(corpus_files(name, 7), corpus_files(name, 7))

    def test_other_seed_gives_other_corpus(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a, b = corpus_files(name, 7), corpus_files(name, 8)
                self.assertEqual([f for f, _ in a], [f for f, _ in b])
                self.assertNotEqual([t for _, t in a], [t for _, t in b])


class Layout(unittest.TestCase):
    def test_a_cycle_has_enough_ops_for_the_90th_percentile(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertGreaterEqual(len(workloads.build_ops(workload, 1)), 100)


class CorpusFacts(unittest.TestCase):
    """What the checks assume about the generated inputs, confirmed with trisys."""

    def test_blocks_are_verified_with_known_ideal(self):
        blocks = [corpus.jacobson_a(), corpus.jacobson_b(), corpus.mutual_pair(2, -1), corpus.zero(2)]
        blocks += [corpus.nf_lift(n) for n in range(3, 8)]
        for b in blocks:
            T = as_trisys(b)
            self.assertTrue(ts.check_identities(T).ok, b)
            self.assertEqual(ts.split_system(T).iset, b.iset, b)

    def test_nf_lift_matches_the_library_lift(self):
        for n in range(3, 8):
            bracket = ts.construct_bilinear(n, [(i, 1, 1, i + 1) for i in range(1, n)])
            self.assertEqual(ts.lift_from_leibniz(bracket), as_trisys(corpus.nf_lift(n)))

    def test_sparse_systems(self):
        rng = corpus.random.Random(3)
        for dim in (3, 4, 5, 6):
            for kind in workloads.SPARSE_KINDS:
                s = corpus.verified_system(rng, dim, kind)
                T = as_trisys(s)
                self.assertTrue(ts.check_identities(T).ok, s)
                S = ts.split_system(T)
                self.assertEqual(S.iset, s.iset, s)
                self.assertEqual(list(ts.partition(S).classes), s.components())

    def test_wide_systems_split_along_the_known_ideal(self):
        rng = corpus.random.Random(4)
        for dim, _ in workloads.WIDE_LAYOUT:
            s = corpus.relabel(rng, corpus.block_sum(corpus.random_blocks(rng, dim)))
            self.assertEqual(ts.split_system(as_trisys(s)).iset, s.iset, s)

    def test_dense_tables_fail_and_refuse_the_split(self):
        rng = corpus.random.Random(5)
        for dim in (3, 4):
            for entries in (dim * dim, dim**3 // 2):
                T = as_trisys(corpus.dense_table(rng, dim, entries))
                self.assertEqual(len(T.entries), entries)
                self.assertFalse(ts.check_identities(T).ok)
                self.assertEqual(ts.compute_jideal(T).subspace.rank, dim)
                with self.assertRaises(ts.NotAdmissible):
                    ts.split_system(T)


class TracerTests(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores(self):
        package, cli, home = (sys.modules[n] for n in ("trisys", "trisys.cli", "trisys.fileformat"))
        original = home.parse_system
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(home.parse_system, original)
            self.assertIs(cli.parse_system, home.parse_system)
            self.assertIs(package.parse_system, home.parse_system)
        finally:
            tracer.uninstall()
        for module in (package, cli, home):
            self.assertIs(module.parse_system, original)

    def test_missing_function_fails_loudly(self):
        with self.assertRaises(TracerError):
            Tracer().install(package="no_such_package")

    def test_metric_names_cover_every_listed_function(self):
        names = Tracer().metrics()
        for m, f in SPANS:
            self.assertIn(f"{m}.{f}.self_s", names)
        for m, f in COUNTED:
            self.assertIn(f"{m}.{f}.calls", names)

    def test_counts_repeat_exactly_across_traced_runs(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first, second = (self._traced_counts(workload) for _ in range(2))
                self.assertEqual(first, second)
                self.assertGreater(first["cli.run_command.calls"], 0)

    def _traced_counts(self, workload) -> dict:
        workdir = run.WORK_DIR / f"selftest-{workload.name}"
        try:
            cli, ops = run.set_up(workload, 7, workdir)
            ops = sorted(ops, key=lambda op: (op.system.dim, op.key))[:6]
            runner = run.Runner(cli, workdir, None)
            tracer = Tracer()
            run.traced_pass(runner, ops, tracer)
            self.assertEqual(runner.failures, [])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics = tracer.metrics()
        return {k: v for k, (v, _) in metrics.items() if k.endswith(".calls") or k in COUNT_METRICS}


if __name__ == "__main__":
    unittest.main()
