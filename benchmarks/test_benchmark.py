"""Tests of the benchmark itself, not of sudogen.

    python3 -m unittest discover -s benchmarks -p "test_*.py"
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_src()

import sudogen.sudoku as sudoku_mod  # noqa: E402
import workloads  # noqa: E402
from sudogen import is_sudoku  # noqa: E402
from tracing import HookError, StackProbe, Tracer  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def untraced_then_traced(workload, steps):
    workload.setup()
    base = run.run_phase(workload, workloads.Phase(), steps=steps)
    mismatches = []
    traced, values, _ = run.traced_metrics(workload, base, workload.seed, mismatches)
    return base, traced, values, mismatches


class TracedRunMatchesUntraced(unittest.TestCase):
    def test_layered_matrices_draws_and_candidates(self):
        base, traced, values, mismatches = untraced_then_traced(workloads.Layered(7), 40)
        self.assertEqual(mismatches, [])
        self.assertEqual(traced.outputs, base.outputs)
        self.assertEqual(values["rng.draws"], base.counts["rng.draws"])
        self.assertEqual(values["sudoku.candidates"], base.counts["sudoku.candidates"])
        self.assertEqual(
            sum(values[f"sudoku.layer{k}.candidates"] for k in range(1, 5)),
            base.counts["sudoku.candidates"],
        )

    def test_estimate_mix_accept_ratios(self):
        base, traced, values, mismatches = untraced_then_traced(workloads.EstimateMix(7), 3)
        self.assertEqual(mismatches, [])
        for gid, _, _ in workloads.EstimateMix.MIX:
            self.assertEqual(
                values[f"analysis.accept_ratio.{gid}"],
                base.counts[f"analysis.successes.{gid}"] / base.counts[f"analysis.samples.{gid}"],
            )

    def test_wrappers_are_removed_after_the_traced_phase(self):
        originals = (sudoku_mod.gen_pi_direct, sudoku_mod._phi_mask, sudoku_mod.DisjointStack.try_push)
        untraced_then_traced(workloads.Layered(3), 2)
        self.assertEqual(
            (sudoku_mod.gen_pi_direct, sudoku_mod._phi_mask, sudoku_mod.DisjointStack.try_push), originals
        )


class MissingHooksFail(unittest.TestCase):
    def test_a_missing_function_cannot_be_wrapped(self):
        with self.assertRaises(HookError):
            Tracer().wrap_attr(types.ModuleType("renamed"), "gen_pi_direct", "pi.gen_pi_direct")

    def test_a_stack_without_clear_cannot_be_probed(self):
        class Stack:
            def try_push(self, layer):
                return True

        with self.assertRaises(HookError):
            StackProbe(Tracer()).patch(Stack)

    def test_a_span_never_entered_is_a_mismatch(self):
        class Inlined(workloads.Layered):
            SPANS = workloads.Layered.SPANS + ("sudoku.inlined",)

        _, _, _, mismatches = untraced_then_traced(Inlined(3), 2)
        self.assertEqual(mismatches, ["traced spans never entered: sudoku.inlined"])


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 10] holds a [1, 3] and b [4, 9]; b holds c [5, 8].
        ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.enter("root", whole=True)
        tracer.enter("a")
        tracer.exit()
        tracer.enter("b", whole=True)
        tracer.enter("c")
        tracer.exit()
        tracer.exit()
        tracer.exit()
        self.assertEqual(tracer.self_s("root"), 3.0)
        self.assertEqual(tracer.self_s("a"), 2.0)
        self.assertEqual(tracer.self_s("b"), 2.0)
        self.assertEqual(tracer.self_s("c"), 3.0)
        self.assertEqual(tracer.total_s("root"), 10.0)
        spans = {s["name"]: s for s in tracer.dump()["spans"]}
        self.assertEqual(set(spans), {"root", "b"})
        self.assertEqual(spans["b"]["parent"], spans["root"]["id"])
        self.assertIsNone(spans["root"]["parent"])

    def test_repeated_spans_aggregate(self):
        ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 9.0])
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.enter("outer")
        for _ in range(2):
            tracer.enter("inner")
            tracer.exit()
        tracer.exit()
        self.assertEqual(tracer.count("inner"), 2)
        self.assertEqual(tracer.total_s("inner"), 3.0)
        self.assertEqual(tracer.self_s("outer"), 6.0)
        self.assertEqual(tracer.mean_s("inner"), 1.5)


class SeededInputs(unittest.TestCase):
    def test_cli_inputs_repeat_for_a_seed(self):
        first, again, other = (workloads.CliPipeline(s) for s in (5, 5, 6))
        for w in (first, again, other):
            w.setup()
        self.assertEqual(first.pi_inputs, again.pi_inputs)
        self.assertEqual(first.grids, again.grids)
        self.assertNotEqual(first.grids, other.grids)
        self.assertNotEqual(first.pi_inputs, other.pi_inputs)

    def test_seeded_grids_are_valid_and_seeded(self):
        for n in range(2, 9):
            grid = workloads.seeded_grid(n, 11)
            self.assertTrue(is_sudoku(grid), n)
            self.assertEqual(grid, workloads.seeded_grid(n, 11))
        self.assertNotEqual(workloads.seeded_grid(3, 11), workloads.seeded_grid(3, 12))

    def test_in_process_requests_repeat_for_a_seed(self):
        for cls in (workloads.Layered, workloads.EstimateMix):
            a, b = cls(9), cls(9)
            a.setup()
            b.setup()
            pa = run.run_phase(a, workloads.Phase(), steps=3)
            pb = run.run_phase(b, workloads.Phase(), steps=3)
            self.assertEqual(a.comparable(pa), b.comparable(pb))
            self.assertEqual(pa.counts, pb.counts)


class SetupSamples(unittest.TestCase):
    def test_pauses_are_spread_over_the_run_and_not_timed(self):
        workload = workloads.Layered(1)
        workload.setup()
        calls = []
        start = time.perf_counter()

        def pause():
            calls.append(time.perf_counter() - start)
            time.sleep(0.2)

        phase = run.run_phase(workload, workloads.Phase(), seconds=1.0, pause=pause, pauses=4)
        self.assertEqual(len(calls), 4)
        self.assertLess(phase.elapsed_s, 1.1)
        self.assertGreater(calls[-1] - calls[0], 0.6)


class OutputChecks(unittest.TestCase):
    def test_a_bad_grid_is_a_failure(self):
        workload = workloads.Layered(1)
        phase = run.run_phase(workload, workloads.Phase(), steps=3)
        self.assertEqual(workload.failures(phase), 0)
        phase.outputs[1] = [row[:] for row in phase.outputs[1]]
        phase.outputs[1][0][0], phase.outputs[1][0][1] = phase.outputs[1][0][1], phase.outputs[1][0][0]
        self.assertEqual(workload.failures(phase), 1)

    def test_estimates_off_the_closed_form_fail_every_round(self):
        workload = workloads.EstimateMix(1)
        workload.setup()
        phase = run.run_phase(workload, workloads.Phase(), steps=2)
        self.assertEqual(workload.failures(phase), 0)
        phase.counts["analysis.successes.perm-rejection"] = 0
        self.assertEqual(workload.failures(phase), 2)

    def test_cli_chain_checks(self):
        ok = subprocess.CompletedProcess([], 0, b"x\n", b"")
        bad_exit = subprocess.CompletedProcess([], 1, b"x\n", b"")
        chain = workloads.CliPipeline._chain_failures
        self.assertEqual(chain("pi", b"x\n", [ok, ok]), 0)
        self.assertEqual(chain("pi", b"y\n", [ok, ok]), 1)
        self.assertEqual(chain("pi", b"x\n", [ok, bad_exit]), 1)
        valid = subprocess.CompletedProcess([], 0, b"valid\n", b"")
        self.assertEqual(chain("sudoku", b"x\n", [ok, ok, valid]), 0)
        self.assertEqual(chain("sudoku", b"x\n", [ok, ok, ok]), 1)


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_workloads_are_the_declared_ones(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))

    def test_workloads_produce_exactly_the_declared_per_layer_metrics(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        produced = set()
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(3)
            workload.setup()
            base = run.run_phase(workload, workloads.Phase(), steps=1)
            mismatches = []
            _, values, tracer = run.traced_metrics(workload, base, 3, mismatches)
            self.assertEqual(mismatches, [])
            self.assertTrue(cls.SPANS, name)
            for span in cls.SPANS:
                self.assertGreater(tracer.count(span), 0, span)
            self.assertLessEqual(set(values), declared, name)
            produced |= set(values)
        self.assertEqual(produced, declared)

    def test_run_prints_one_json_result_line(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "layered",
                 "--seed", "3", "--steps", "2", "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[key]})
            for metric in result["metrics"].values():
                self.assertEqual(set(metric), {"value", "unit"})


if __name__ == "__main__":
    unittest.main()
