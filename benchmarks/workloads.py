"""The benchmark's workloads: inputs, timed steps, output checks, traces.

Every per-item seed is ``derive_seed(workload_seed, i)``.  A workload is
driven by ``run.py`` in steps; a step issues one or more requests (a
public call or a CLI invocation), each timed from call to return or
from spawn to exit.  Outputs are kept and checked after the timed
phase.  Importing this module needs ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import sudogen.analysis as analysis_mod
import sudogen.sigma as sigma_mod
import sudogen.sudoku as sudoku_mod
from sudogen import (
    RandomSource,
    SigmaMatrix,
    closed_form_p,
    derive_seed,
    estimate_p,
    format_layers,
    format_pi,
    format_sigma,
    format_sudoku,
    gen_perm_direct,
    is_sudoku,
    parse_binary_matrix,
    parse_cells,
    parse_layers,
    parse_pi,
    phi,
    phi_inverse,
)
from tracing import StackProbe, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Item-index ranges, so warm-up and probe items never repeat timed ones.
WARMUP_BASE = 1 << 32
PROBE_BASE = 1 << 33

CLI_TIMEOUT_S = 120


@dataclass
class Phase:
    """Everything one timed pass over the workload records."""

    tracer: Tracer | None = None
    latencies: list = field(default_factory=list)  # seconds, one per request
    outputs: list = field(default_factory=list)  # checked after the phase
    counts: Counter = field(default_factory=Counter)  # exact, seed-determined
    errors: list = field(default_factory=list)  # exceptions raised by steps
    steps: int = 0
    elapsed_s: float = 0.0

    def call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        with self.tracer.span(name, whole=True):
            return fn(*args)


def microbench(body, calls: int, repeats: int = 5) -> float:
    """Median seconds per call of ``body(calls)`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        body(calls)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def module_microbenchmarks(seed: int) -> dict:
    """Per-call cost of ``uniform_int`` and ``gen_perm_direct`` at n = 3."""
    source = RandomSource(derive_seed(seed, PROBE_BASE))
    uniform = source.uniform_int

    def draws(calls):
        for _ in range(calls // 3):
            uniform(3)
            uniform(2)
            uniform(1)

    def perms(calls):
        for _ in range(calls):
            gen_perm_direct(3, source)

    return {
        "rng.uniform_int_ns": microbench(draws, 60_000) * 1e9,
        "perm.gen_perm_direct_us": microbench(perms, 10_000) * 1e6,
    }


class Workload:
    name = ""
    MIN_STEPS = 0
    # Spans the traced phase must enter at least once: a wrapped function
    # the program no longer calls fails the run instead of reading zero.
    SPANS = ()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build inputs and warm up; timed as ``setup_s``."""

    def step(self, i: int, phase: Phase) -> None:
        raise NotImplementedError

    def failures(self, phase: Phase) -> int:
        """Requests whose outputs fail validation."""
        raise NotImplementedError

    def replacements(self, tracer: Tracer) -> list:
        """Wrappers to install for the traced phase."""
        return []

    def trace_metrics(self, tracer: Tracer, phase: Phase) -> dict:
        return {}

    def comparable(self, phase: Phase):
        """Outputs that must match exactly between untraced and traced phases."""
        return phase.outputs


def _span_metrics(tracer: Tracer, span: str) -> dict:
    """Calls, mean microseconds per call and total self time of a span."""
    return {
        f"{span}_calls": tracer.count(span),
        f"{span}_us": tracer.mean_s(span) * 1e6,
        f"{span}_self_s": tracer.self_s(span),
    }


class Layered(Workload):
    """``gen_sudoku`` (the paper's layered generator) over a seed panel."""

    name = "layered"
    WARMUP = 50
    SPANS = ("sudoku.gen_sudoku", "pi.gen_pi_direct", "sigma.phi_mask", "sudoku.try_push", "sudoku.compose")

    def __init__(self, seed: int, order: int = 2):
        super().__init__(seed)
        self.order = order
        self.probe = None

    def setup(self) -> None:
        # Order 2 runs every function an order-3 matrix runs, in milliseconds.
        for j in range(self.WARMUP):
            sudoku_mod.gen_sudoku(2, RandomSource(derive_seed(self.seed, WARMUP_BASE + j)))

    def step(self, i: int, phase: Phase) -> None:
        source = RandomSource(derive_seed(self.seed, i))
        if self.probe is not None:
            self.probe.new_run()
        t0 = time.perf_counter()
        cells, stats = phase.call("sudoku.gen_sudoku", sudoku_mod.gen_sudoku, self.order, source)
        phase.latencies.append(time.perf_counter() - t0)
        phase.outputs.append(cells)
        phase.counts["rng.draws"] += source.draws
        phase.counts["sudoku.candidates"] += stats.candidates
        phase.counts["sudoku.restarts"] += stats.restarts

    def failures(self, phase: Phase) -> int:
        side = self.order * self.order
        return sum(1 for cells in phase.outputs if len(cells) != side or not is_sudoku(cells))

    def replacements(self, tracer: Tracer) -> list:
        self.probe = StackProbe(tracer)
        return [
            tracer.wrap_attr(sudoku_mod, "gen_pi_direct", "pi.gen_pi_direct"),
            tracer.wrap_attr(sudoku_mod, "_phi_mask", "sigma.phi_mask"),
            tracer.wrap_attr(sudoku_mod, "compose", "sudoku.compose"),
            *self.probe.patch(sudoku_mod.DisjointStack),
        ]

    def trace_metrics(self, tracer: Tracer, phase: Phase) -> dict:
        probe = self.probe
        pushes = tracer.count("sudoku.try_push")
        out = {
            **_span_metrics(tracer, "pi.gen_pi_direct"),
            **_span_metrics(tracer, "sigma.phi_mask"),
            **_span_metrics(tracer, "sudoku.try_push"),
            "sudoku.loop_self_s": tracer.self_s("sudoku.gen_sudoku"),
            "sudoku.compose_ms": tracer.mean_s("sudoku.compose") * 1e3,
            "sudoku.candidates": phase.counts["sudoku.candidates"],
            "sudoku.restarts": phase.counts["sudoku.restarts"],
            "sudoku.accept_ratio": probe.accepted / pushes if pushes else 0.0,
            "sudoku.restart_waste_frac": probe.wasted / pushes if pushes else 0.0,
        }
        for k in range(1, self.order**2 + 1):
            out[f"sudoku.layer{k}.candidates"] = probe.per_layer.get(k, 0)
        return out


class EstimateMix(Workload):
    """``estimate_p`` over the acceptance-criterion mix, scaled down.

    One request is a round of four calls with samples in the ratio
    1:1:10:10, all drawing from one source seeded for that round.
    """

    name = "estimate-mix"
    MIX = (
        ("perm-rejection", 3, 1),
        ("pi-rejection", 2, 1),
        ("sigma-rejection", 2, 10),
        ("sudoku-rejection", 2, 10),
    )
    SAMPLES_PER_UNIT = 100
    MAX_SIGMAS = 5.0
    SPANS = ("analysis.estimate_p", "pi.gen_pi_direct", "sigma.phi_mask", "sigma.is_sigma")

    def setup(self) -> None:
        self.reference = {
            gid: closed_form_p(gid, n) for gid, n, _ in self.MIX
        }
        self.step(WARMUP_BASE, Phase())

    def step(self, i: int, phase: Phase) -> None:
        source = RandomSource(derive_seed(self.seed, i))
        t0 = time.perf_counter()
        reports = [
            phase.call("analysis.estimate_p", estimate_p, gid, n, units * self.SAMPLES_PER_UNIT, source)
            for gid, n, units in self.MIX
        ]
        phase.latencies.append(time.perf_counter() - t0)
        phase.outputs.append(reports)
        phase.counts["rng.draws"] += source.draws
        for report in reports:
            phase.counts[f"analysis.samples.{report.generator_id}"] += report.samples
            phase.counts[f"analysis.successes.{report.generator_id}"] += report.successes

    def off_reference(self, phase: Phase) -> list:
        """Generator ids whose pooled acceptance is over 5 standard errors
        from the closed form (pooled, because one round's rare-event
        counts are far from normal)."""
        bad = []
        for gid, n, _ in self.MIX:
            samples = phase.counts[f"analysis.samples.{gid}"]
            successes = phase.counts[f"analysis.successes.{gid}"]
            p = float(self.reference[gid])
            std_error = (p * (1.0 - p) / samples) ** 0.5
            if abs(successes / samples - p) > self.MAX_SIGMAS * std_error:
                bad.append(gid)
        return bad

    def failures(self, phase: Phase) -> int:
        expected = [(gid, n, units * self.SAMPLES_PER_UNIT) for gid, n, units in self.MIX]
        malformed = sum(
            1
            for reports in phase.outputs
            if [(r.generator_id, r.n, r.samples) for r in reports] != expected
            or any(not 0 <= r.successes <= r.samples for r in reports)
        )
        if phase.outputs and self.off_reference(phase):
            return len(phase.outputs)
        return malformed

    def comparable(self, phase: Phase):
        return [[(r.generator_id, r.samples, r.successes) for r in reports] for reports in phase.outputs]

    def replacements(self, tracer: Tracer) -> list:
        return [
            tracer.wrap_attr(analysis_mod, "gen_pi_direct", "pi.gen_pi_direct"),
            tracer.wrap_attr(analysis_mod, "_phi_mask", "sigma.phi_mask"),
            tracer.wrap_attr(analysis_mod, "is_sigma", "sigma.is_sigma"),
        ]

    def trace_metrics(self, tracer: Tracer, phase: Phase) -> dict:
        attempt_s = Counter()
        for reports in phase.outputs:
            for r in reports:
                attempt_s[r.generator_id] += r.mean_iteration_time_s * r.samples
        out = {
            **_span_metrics(tracer, "pi.gen_pi_direct"),
            **_span_metrics(tracer, "sigma.phi_mask"),
            "sigma.is_sigma_calls": tracer.count("sigma.is_sigma"),
            "sigma.is_sigma_us": tracer.mean_s("sigma.is_sigma") * 1e6,
            "analysis.driver_self_s": tracer.total_s("analysis.estimate_p") - sum(attempt_s.values()),
        }
        for gid, _, _ in self.MIX:
            samples = phase.counts[f"analysis.samples.{gid}"]
            out[f"analysis.attempt_us.{gid}"] = attempt_s[gid] / samples * 1e6
            out[f"analysis.accept_ratio.{gid}"] = phase.counts[f"analysis.successes.{gid}"] / samples
        return out


def seeded_grid(n: int, seed: int) -> list[list[int]]:
    """Canonical order-n Sudoku pattern under seeded digit, band, stack,
    row and column permutations (each preserves validity)."""
    rnd = random.Random(seed)
    side = n * n

    def shuffled(k):
        values = list(range(k))
        rnd.shuffle(values)
        return values

    digits = [d + 1 for d in shuffled(side)]
    rows = [band * n + r for band in shuffled(n) for r in shuffled(n)]
    cols = [stack * n + c for stack in shuffled(n) for c in shuffled(n)]
    return [[digits[(n * (r % n) + r // n + c) % side] for c in cols] for r in rows]


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(args, stdin: bytes = b"") -> tuple[float, subprocess.CompletedProcess]:
    """One ``python -m sudogen.cli`` invocation, timed from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sudogen.cli", *args],
        input=stdin,
        capture_output=True,
        env=cli_env(),
        timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


class CliPipeline(Workload):
    """Sequential CLI chains, one child at a time, stdout fed to stdin.

    A step is one round of ten invocations: the bijection round trip
    ``map --phi | map --phi-inverse`` at a small and a large order, and
    ``decompose | compose | check --kind sudoku`` at a small and a large
    order.  The two order-8 Sudoku commands are a fifth of all
    invocations and are the slowest, so the 90th percentile falls in
    the middle of them and p50 in the middle of the start-up-bound rest.
    """

    name = "cli-pipeline"
    # Ten rounds are 100 invocations, so op_p90_ms has ten samples beyond
    # it even when the machine is slow.
    MIN_STEPS = 10
    PI_ORDERS = (2, 6)
    GRID_ORDERS = (3, 8)
    VARIANTS = 2
    PARALLEL_ORDER = 2
    PARALLEL_RUNS = 2
    # Entered by the in-process replay of the commands' work.
    SPANS = ("sigma.is_sigma", "sudoku.is_sudoku")
    ARGS = {
        "map-phi": ["map", "--phi"],
        "map-phi-inverse": ["map", "--phi-inverse"],
        "decompose": ["decompose"],
        "compose": ["compose"],
        "check": ["check", "--kind", "sudoku"],
    }

    def setup(self) -> None:
        self.pi_inputs = {}
        self.grids = {}
        index = 0
        for n in self.PI_ORDERS:
            for v in range(self.VARIANTS):
                _, proc = run_cli(["gen-pi", "--n", str(n), "--seed", str(derive_seed(self.seed, index))])
                if proc.returncode != 0:
                    raise RuntimeError(f"gen-pi --n {n} exited {proc.returncode}: {proc.stderr!r}")
                self.pi_inputs[n, v] = proc.stdout
                index += 1
        for n in self.GRID_ORDERS:
            for v in range(self.VARIANTS):
                cells = seeded_grid(n, derive_seed(self.seed, index))
                if not is_sudoku(cells):
                    raise RuntimeError(f"seeded order-{n} grid is not a Sudoku matrix")
                self.grids[n, v] = (format_sudoku(cells) + "\n").encode()
                index += 1
        run_cli(["--help"])

    def _invoke(self, phase: Phase, command: str, stdin: bytes) -> subprocess.CompletedProcess:
        wall, proc = phase.call(f"cli.{command}", run_cli, self.ARGS[command], stdin)
        phase.latencies.append(wall)
        phase.counts[f"cli.invocations.{command}"] += 1
        phase.counts[f"cli.bytes_out.{command}"] += len(proc.stdout)
        return proc

    def step(self, i: int, phase: Phase) -> None:
        v = i % self.VARIANTS
        for n in self.PI_ORDERS:
            source = self.pi_inputs[n, v]
            forward = self._invoke(phase, "map-phi", source)
            back = self._invoke(phase, "map-phi-inverse", forward.stdout)
            phase.outputs.append(("pi", source, [forward, back]))
        for n in self.GRID_ORDERS:
            grid = self.grids[n, v]
            layers = self._invoke(phase, "decompose", grid)
            composed = self._invoke(phase, "compose", layers.stdout)
            verdict = self._invoke(phase, "check", composed.stdout)
            phase.outputs.append(("sudoku", grid, [layers, composed, verdict]))

    @staticmethod
    def _chain_failures(kind, source, procs) -> int:
        failed = sum(1 for p in procs if p.returncode != 0)
        if failed:
            return failed
        if kind == "pi":
            return int(procs[-1].stdout != source)
        return int(procs[1].stdout != source) + int(procs[2].stdout != b"valid\n")

    def failures(self, phase: Phase) -> int:
        return sum(self._chain_failures(*chain) for chain in phase.outputs)

    def comparable(self, phase: Phase):
        return [[p.stdout for p in procs] for _, _, procs in phase.outputs]

    def trace_metrics(self, tracer: Tracer, phase: Phase) -> dict:
        startup_s = statistics.median(run_cli(["--help"])[0] for _ in range(5))
        out = {
            "cli.startup_ms": startup_s * 1e3,
            "cli.import_ms": statistics.median(self._import_s() for _ in range(3)) * 1e3,
        }
        for command in self.ARGS:
            out[f"cli.work_ms.{command}"] = (tracer.mean_s(f"cli.{command}") - startup_s) * 1e3
        out.update(self._parallel_probe(phase))
        out.update(self._replay(tracer))
        return out

    @staticmethod
    def _import_s() -> float:
        """Cumulative import time of ``sudogen.cli`` in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sudogen.cli"],
            capture_output=True,
            text=True,
            env=cli_env(),
            timeout=CLI_TIMEOUT_S,
        )
        match = re.search(r"\|\s*(\d+)\s*\|\s*sudogen\.cli\s*$", proc.stderr, re.MULTILINE)
        if proc.returncode != 0 or match is None:
            raise RuntimeError(f"could not time 'import sudogen.cli': {proc.stderr[-500:]!r}")
        return int(match.group(1)) / 1e6

    def _parallel_probe(self, phase: Phase) -> dict:
        """``gen-sudoku --parallel 2 --stats``: the only process-pool path."""
        waits, winners, cpu = [], 0, 0.0
        for k in range(self.PARALLEL_RUNS):
            seed = derive_seed(self.seed, PROBE_BASE + k)
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            wall, proc = run_cli(
                ["gen-sudoku", "--n", str(self.PARALLEL_ORDER), "--parallel", "2", "--stats", "--seed", str(seed)]
            )
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            stats_text = proc.stderr.decode().rsplit("seed:", 1)[0]
            ok = proc.returncode == 0
            if ok:
                stats = json.loads(stats_text)
                cells = parse_cells(proc.stdout.decode())
                ok = len(cells) == self.PARALLEL_ORDER**2 and is_sudoku(cells)
            if not ok:
                phase.errors.append(f"gen-sudoku --parallel 2 --seed {seed} failed: {proc.stderr[-300:]!r}")
                continue
            waits.append(wall - stats["wall_time_s"])
            winners += stats["attempt_index"] == 0
        return {
            "cli.parallel.wait_s": statistics.median(waits) if waits else 0.0,
            "cli.parallel.winner_index0_frac": winners / self.PARALLEL_RUNS,
            "cli.parallel.child_cpu_s": cpu / self.PARALLEL_RUNS,
        }

    def _replay(self, tracer: Tracer) -> dict:
        """The in-process work of each CLI command, on the same inputs."""
        span = tracer.span
        with installed(
            [
                tracer.wrap_attr(sigma_mod, "is_sigma", "sigma.is_sigma"),
                tracer.wrap_attr(sudoku_mod, "is_sigma", "sigma.is_sigma"),
                tracer.wrap_attr(sudoku_mod, "is_sudoku", "sudoku.is_sudoku"),
            ]
        ):
            for text in self.pi_inputs.values():
                with span("formats.parse.pi"):
                    rows = parse_pi(text.decode())
                sigma = phi(rows)
                with span("formats.format.sigma"):
                    sigma_text = format_sigma(sigma)
                with span("formats.parse.sigma"):
                    bits = parse_binary_matrix(sigma_text)
                with span("sigma.from_rows"):
                    sigma = SigmaMatrix.from_rows(bits)
                with span("sigma.phi_inverse"):
                    rows = phi_inverse(sigma)
                with span("formats.format.pi"):
                    format_pi(rows)
            for text in self.grids.values():
                with span("formats.parse.cells"):
                    cells = parse_cells(text.decode())
                with span("sudoku.decompose"):
                    layers = sudoku_mod.decompose(cells)
                with span("formats.format.layers"):
                    layers_text = format_layers(layers)
                with span("formats.parse.layers"):
                    blocks = parse_layers(layers_text)
                layers = []
                for block in blocks:
                    with span("sigma.from_rows"):
                        layers.append(SigmaMatrix.from_rows(block))
                with span("sudoku.compose"):
                    cells = sudoku_mod.compose(layers)
                with span("formats.format.sudoku"):
                    format_sudoku(cells)
                sudoku_mod.is_sudoku(cells)
        out = {
            "sigma.from_rows_ms": tracer.mean_s("sigma.from_rows") * 1e3,
            "sigma.phi_inverse_ms": tracer.mean_s("sigma.phi_inverse") * 1e3,
            "sigma.is_sigma_calls": tracer.count("sigma.is_sigma"),
            "sigma.is_sigma_us": tracer.mean_s("sigma.is_sigma") * 1e6,
            "sudoku.decompose_ms": tracer.mean_s("sudoku.decompose") * 1e3,
            "sudoku.compose_ms": tracer.mean_s("sudoku.compose") * 1e3,
            "sudoku.is_sudoku_ms": tracer.mean_s("sudoku.is_sudoku") * 1e3,
        }
        for kind in ("pi", "sigma", "cells", "layers"):
            out[f"formats.parse_ms.{kind}"] = tracer.mean_s(f"formats.parse.{kind}") * 1e3
        for kind in ("pi", "sigma", "sudoku", "layers"):
            out[f"formats.format_ms.{kind}"] = tracer.mean_s(f"formats.format.{kind}") * 1e3
        return out


WORKLOADS = {cls.name: cls for cls in (Layered, EstimateMix, CliPipeline)}
