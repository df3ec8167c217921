"""sudogen benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload layered --seed 1 --seconds 30 --trace 0

Run from the root of a sudogen checkout; the package is imported from
its ``src`` directory (nothing is installed).  A run issues requests
for ``--seconds`` seconds, finishing the step in flight, and checks
every output after the timed phase.  ``setup_s`` is the median time a
fresh interpreter takes to import the package and the workloads plus
the median time to set the workload up; the samples are taken before
and during the timed phase, and the time they take is not timed.

With ``--trace 1`` the same steps run a second time with pass-through
span wrappers installed, and the run reports the per-layer metrics, the
tracing overhead (traced minus untraced phase) and a check that both
phases produced the same outputs and exact counts.  Spans are written
to ``.bench_out/`` at the end.

A report goes to stderr; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) entries
of ``BENCHMARK.json``.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 10  # import and set-up samples per run, for setup_s
MAX_STEP_ERRORS = 20


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_checkout_src() -> None:
    """Put this checkout's ``src`` first on ``sys.path``; exit 1 without it."""
    if not (SRC / "sudogen" / "__init__.py").is_file():
        sys.exit(f"error: no sudogen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sudogen

    if not Path(sudogen.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported sudogen from {sudogen.__file__}, not from {SRC}")


def import_time() -> float:
    """Seconds a fresh interpreter takes to import sudogen and the workloads."""
    code = (
        "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
        "import workloads; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"error: importing the workloads failed:\n{proc.stderr}")
    return float(proc.stdout)


def set_up(cls, seed: int, kwargs: dict):
    """A new workload, set up, and the seconds its set-up took."""
    start = time.perf_counter()
    workload = cls(seed, **kwargs)
    workload.setup()
    return workload, time.perf_counter() - start


def run_phase(workload, phase, seconds: float | None = None, steps: int | None = None,
              pause=None, pauses: int = 0):
    """Issue steps until ``seconds`` of timed work have passed and at
    least the workload's ``MIN_STEPS`` are done, or exactly ``steps`` steps.

    A run of ``seconds`` calls ``pause`` up to ``pauses`` times, evenly
    spread over the timed work; time spent in ``pause`` is not timed."""
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    interval = seconds / (pauses + 1) if steps is None and pause is not None else None
    done = 0
    i = 0
    while i < steps if steps is not None else clock() - start - paused < seconds or i < workload.MIN_STEPS:
        try:
            workload.step(i, phase)
        except Exception:
            phase.errors.append(traceback.format_exc())
            if len(phase.errors) >= MAX_STEP_ERRORS:
                break
        i += 1
        if interval is not None and done < pauses and clock() - start - paused >= (done + 1) * interval:
            pause_start = clock()
            pause()
            done += 1
            paused += clock() - pause_start
    phase.elapsed_s = clock() - start - paused
    phase.steps = i
    return phase


def end_to_end(phase, setup_s: float) -> dict:
    lat = phase.latencies
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / phase.elapsed_s,
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1 else 0.0,
    }


def traced_metrics(workload, base, seed: int, mismatches: list):
    """Rerun ``base``'s steps under tracing; return per-layer values."""
    import workloads
    from tracing import Tracer, installed

    tracer = Tracer()
    traced = workloads.Phase(tracer=tracer)
    with installed(workload.replacements(tracer)):
        run_phase(workload, traced, steps=base.steps)
    if workload.comparable(traced) != workload.comparable(base):
        mismatches.append("traced outputs differ from untraced outputs")
    if traced.counts != base.counts:
        mismatches.append("traced exact counts differ from untraced counts")
    overhead = traced.elapsed_s - base.elapsed_s
    values = {
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / base.elapsed_s,
        **workloads.module_microbenchmarks(seed),
        **workload.trace_metrics(tracer, traced),
    }
    if "rng.draws" in traced.counts:  # the workloads that draw in-process
        values["rng.draws"] = traced.counts["rng.draws"]
        values["rng.draws_per_op"] = traced.counts["rng.draws"] / max(len(traced.latencies), 1)
    silent = [name for name in workload.SPANS if tracer.count(name) == 0]
    if silent:
        mismatches.append(f"traced spans never entered: {', '.join(silent)}")
    return traced, values, tracer


def report(lines, label, values, units):
    lines.append(label)
    for name in sorted(values):
        lines.append(f"  {name:<40} {values[name]:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None, help="fixed step count instead of --seconds")
    parser.add_argument("--order", type=int, default=None, help="block order for the layered workload (default 2)")
    args = parser.parse_args(argv)

    spec = load_spec()
    use_checkout_src()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    kwargs = {}
    if args.order is not None:
        if cls is not workloads.Layered:
            parser.error("--order applies to the layered workload only")
        kwargs["order"] = args.order

    imports, setups = [], []

    def sample_setup():
        imports.append(import_time())
        workload, seconds = set_up(cls, args.seed, kwargs)
        setups.append(seconds)
        return workload

    # One sample before the timed phase and the rest spread through it,
    # so that the medians, like the timed phase, span the machine's
    # changes of speed during the run.
    workload = sample_setup()
    base = run_phase(workload, workloads.Phase(), seconds=args.seconds, steps=args.steps,
                     pause=sample_setup, pauses=SETUP_SAMPLES - 1)
    while len(setups) < SETUP_SAMPLES:
        sample_setup()
    setup_s = statistics.median(imports) + statistics.median(setups)

    attempted = len(base.latencies) + len(base.errors)
    failed = workload.failures(base) + len(base.errors)
    errors, mismatches = list(base.errors), []

    lines = [
        f"workload {args.workload}  seed {args.seed}  steps {base.steps}  "
        f"requests {len(base.latencies)}  timed {base.elapsed_s:.3f} s"
    ]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(base, setup_s)
    report(lines, "end to end", e2e, units)
    lines.append(f"  {'error_rate':<40} {failed / max(attempted, 1):>14.6g} ({failed}/{attempted})")
    beyond = int(len(base.latencies) * 0.1)
    if beyond < 10:
        lines.append(f"  note: op_p90_ms has only {beyond} samples beyond it")
    report(lines, "exact counts", dict(base.counts), {})

    wanted, values = spec["end_to_end"], e2e
    if args.trace:
        from tracing import HookError

        try:
            traced, values, tracer = traced_metrics(workload, base, args.seed, mismatches)
        except HookError as exc:
            sys.exit(f"error: {exc}")
        attempted += len(traced.latencies) + len(traced.errors)
        failed += workload.failures(traced) + len(traced.errors)
        errors.extend(traced.errors)
        wanted = spec["per_layer"]
        report(lines, "per layer (traced)", values, units)
        extra = sorted(set(values) - {m["name"] for m in wanted})
        if extra:
            lines.append(f"  not in BENCHMARK.json: {', '.join(extra)}")
        # A module this workload never calls (cli on layered, say) has
        # nothing to measure; its metrics read 0 and are named here.
        idle = [m["name"] for m in wanted if m["name"] not in values]
        if idle:
            lines.append(f"  not exercised by {args.workload}, reported as 0: {', '.join(idle)}")
        values = {**dict.fromkeys(idle, 0), **values}
        OUT.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "metrics": values, **tracer.dump()}
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(dump))

    # A traced/untraced mismatch counts as one more failed operation.
    failed += len(mismatches)
    correct = failed == 0
    for problem in errors + mismatches:
        lines.append(f"FAILED: {problem.rstrip()}")
    print("\n".join(lines), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
