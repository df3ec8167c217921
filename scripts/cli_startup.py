"""Paired start-up timing of the CLI: one workload's children on two trees.

Replays the ten invocations of one ``cli-pipeline`` benchmark round
(``map --phi | map --phi-inverse`` at orders 2 and 6, ``decompose |
compose | check --kind sudoku`` at orders 3 and 8) as ``python -m
sudogen.cli`` children of two sudogen source trees, interleaved per
invocation: each child of tree A runs next to the same child of tree B,
and which goes first alternates by round, so both see the same machine
state.  Each tree feeds its own chain, and every stage's stdout must be
byte-identical across the trees; the script exits 1 if one differs or a
child fails.

    python3 scripts/cli_startup.py PARENT_TREE CHANGED_TREE --rounds 25

A tree is a checkout root, whose ``src`` goes on ``PYTHONPATH``.  The
report gives per-command medians, and the mean and the 90th percentile
of all children, in milliseconds.  Children inherit the environment:
with ``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__`` in a tree, each
child compiles every sudogen module it imports.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

PI_ORDERS = (2, 6)
GRID_ORDERS = (3, 8)
TIMEOUT_S = 120


def pattern_grid(n: int, seed: int) -> str:
    """A seeded order-n Sudoku grid as text: the canonical pattern under
    random digit, band, stack, row and column permutations."""
    rnd = random.Random(seed)
    side = n * n

    def shuffled(k):
        return rnd.sample(range(k), k)

    digits = [d + 1 for d in shuffled(side)]
    rows = [band * n + r for band in shuffled(n) for r in shuffled(n)]
    cols = [stack * n + c for stack in shuffled(n) for c in shuffled(n)]
    lines = (
        " ".join(str(digits[(n * (r % n) + r // n + c) % side]) for c in cols) for r in rows
    )
    return "\n".join(lines) + "\n"


def run(tree: Path, args: list[str], stdin: bytes) -> tuple[float, subprocess.CompletedProcess]:
    """One ``python -m sudogen.cli`` child of ``tree``, timed from spawn to exit."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sudogen.cli", *args],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


def chains(tree: Path, seed: int) -> list[tuple[bytes, list[tuple[str, list[str]]]]]:
    """The round's chains: each chain's input and its (label, argv) stages."""
    out = []
    for n in PI_ORDERS:
        _, proc = run(tree, ["gen-pi", "--n", str(n), "--seed", str(seed + n)], b"")
        if proc.returncode:
            sys.exit(f"error: gen-pi --n {n} failed: {proc.stderr.decode()}")
        out.append((proc.stdout, [
            (f"map-phi n={n}", ["map", "--phi"]),
            (f"map-phi-inverse n={n}", ["map", "--phi-inverse"]),
        ]))
    for n in GRID_ORDERS:
        out.append((pattern_grid(n, seed + n).encode(), [
            (f"decompose n={n}", ["decompose"]),
            (f"compose n={n}", ["compose"]),
            (f"check n={n}", ["check", "--kind", "sudoku"]),
        ]))
    return out


def p90(values: list[float]) -> float:
    # as the benchmark's op_p90_ms computes it
    return statistics.quantiles(values, n=10)[8]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="first source tree (the baseline)")
    parser.add_argument("tree_b", type=Path, help="second source tree")
    parser.add_argument("--rounds", type=int, default=25, help="rounds of ten children")
    parser.add_argument("--seed", type=int, default=1, help="seed of the chains' inputs")
    args = parser.parse_args(argv)
    trees = [args.tree_a.resolve(), args.tree_b.resolve()]
    for tree in trees:
        if not (tree / "src" / "sudogen" / "cli.py").is_file():
            sys.exit(f"error: no sudogen sources under {tree / 'src'}")

    times = [{}, {}]  # per tree: label -> seconds of each run
    mismatches = failures = 0
    work = chains(trees[0], args.seed)
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for source, stages in work:
            stdin = [source, source]
            for label, argv in stages:
                procs = [None, None]
                for side in order:
                    wall, procs[side] = run(trees[side], argv, stdin[side])
                    times[side].setdefault(label, []).append(wall)
                    failures += procs[side].returncode != 0
                if procs[0].stdout != procs[1].stdout:
                    mismatches += 1
                    print(f"stdout differs: round {r}, {label}", file=sys.stderr)
                stdin = [p.stdout for p in procs]

    print(f"{args.rounds} rounds, PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    for tree in trees:
        cached = any((tree / "src" / "sudogen" / "__pycache__").glob("*.pyc"))
        print(f"  {tree}: {'a' if cached else 'no'} bytecode cache")
    print(f"{'command':<24}{'A median ms':>13}{'B median ms':>13}{'change':>9}")
    for label in times[0]:
        a, b = (statistics.median(t[label]) * 1e3 for t in times)
        print(f"{label:<24}{a:>13.1f}{b:>13.1f}{(b - a) / a:>+9.1%}")
    for name, stat in (("mean", statistics.fmean), ("p90", p90)):
        a, b = (stat([x for runs in t.values() for x in runs]) * 1e3 for t in times)
        print(f"{'all ' + name:<24}{a:>13.1f}{b:>13.1f}{(b - a) / a:>+9.1%}")
    print(f"{mismatches} stdout difference(s), {failures} failed child(ren)")
    return 1 if mismatches or failures else 0


if __name__ == "__main__":
    sys.exit(main())
