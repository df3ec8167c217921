"""Golden-output check for the CLI examples in README.md.

Every line of a README ``sh`` block that starts with ``sudogen`` is run
as a pipeline, one ``python -m sudogen.cli`` process per stage, each
stage reading the previous stage's stdout.  Randomized commands without
``--seed`` get ``--seed 0``, so every run is reproducible.  For every
stage the argv, exit code, stdout and stderr are recorded, with timing
fields masked, so two records of the same code compare byte for byte.

    python3 scripts/cli_golden.py record scripts/cli_golden.json
    python3 scripts/cli_golden.py diff scripts/cli_golden.json

``record`` writes the golden file; ``diff`` reruns the examples, prints a
unified diff for every field that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SEEDED = {"gen-perm", "gen-pi", "gen-sigma", "gen-sudoku", "estimate", "bench"}
TIMEOUT_S = 900

# (pattern, replacement) pairs applied to stdout and stderr
MASKS = [
    # --stats JSON and estimate/bench JSON: "wall_time_s": 0.0123
    (re.compile(r'("\w*(?:time_s|median_s|mad_s)":\s*)[-+0-9.eE]+'), r"\1<masked>"),
    # estimate text: "mean-iteration-time  1.234e-05 s"
    (re.compile(r"^(mean-\w+-time\s+)\S+ s$", re.MULTILINE), r"\1<masked> s"),
    # bench text: one row of n, median_s and mad_s per size
    (re.compile(r"^(\s*\d+)\s+\S+e[-+]\d+\s+\S+e[-+]\d+$", re.MULTILINE), r"\1  <masked>  <masked>"),
    # bench text: fitted slope, its standard error and confidence interval
    (re.compile(r"^slope: .*$", re.MULTILINE), "slope: <masked>"),
]


def mask(text: str) -> str:
    for pattern, replacement in MASKS:
        text = pattern.sub(replacement, text)
    return text


def readme_examples(readme: Path) -> list[str]:
    """The ``sudogen`` command lines of the README's ``sh`` blocks."""
    lines, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
        elif in_sh and line.startswith("sudogen "):
            lines.append(line.split("#", 1)[0].strip())
    return lines


def stage_args(stage: str) -> list[str]:
    args = shlex.split(stage)
    if args[0] != "sudogen":
        raise ValueError(f"pipeline stage does not run sudogen: {stage!r}")
    args = args[1:]
    if args[0] in SEEDED and "--seed" not in args:
        args += ["--seed", "0"]
    return args


def run_example(line: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    stdin, stages = b"", []
    for stage in line.split("|"):
        args = stage_args(stage.strip())
        proc = subprocess.run(
            [sys.executable, "-m", "sudogen.cli", *args],
            input=stdin,
            capture_output=True,
            env=env,
            timeout=TIMEOUT_S,
        )
        stages.append(
            {
                "args": args,
                "exit": proc.returncode,
                "stdout": mask(proc.stdout.decode()),
                "stderr": mask(proc.stderr.decode()),
            }
        )
        stdin = proc.stdout
    return {"command": line, "stages": stages}


def run_all() -> list[dict]:
    records = []
    for line in readme_examples(README):
        print(f"running: {line}", file=sys.stderr)
        records.append(run_example(line))
    return records


def diff_records(golden: list[dict], current: list[dict]) -> list[str]:
    """Human-readable differences; empty when the records match."""
    out = []
    old = {r["command"]: r for r in golden}
    new = {r["command"]: r for r in current}
    for command in old.keys() - new.keys():
        out.append(f"missing from this run: {command}")
    for command in new.keys() - old.keys():
        out.append(f"not in the golden file: {command}")
    for command in [c for c in new if c in old]:
        a, b = old[command]["stages"], new[command]["stages"]
        for k, (sa, sb) in enumerate(zip(a, b), start=1):
            for field in ("args", "exit", "stdout", "stderr"):
                if sa[field] == sb[field]:
                    continue
                label = f"{command} [stage {k} {field}]"
                if isinstance(sa[field], str):
                    body = difflib.unified_diff(
                        sa[field].splitlines(),
                        sb[field].splitlines(),
                        "golden",
                        "current",
                        lineterm="",
                    )
                    out.append(label + "\n" + "\n".join(body))
                else:
                    out.append(f"{label}: {sa[field]!r} -> {sb[field]!r}")
        if len(a) != len(b):
            out.append(f"{command}: {len(a)} stages in the golden file, {len(b)} now")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("mode", choices=["record", "diff"])
    parser.add_argument("golden", type=Path, help="golden JSON file")
    args = parser.parse_args(argv)
    current = run_all()
    if args.mode == "record":
        args.golden.write_text(json.dumps(current, indent=1) + "\n")
        print(f"recorded {len(current)} examples to {args.golden}", file=sys.stderr)
        return 0
    differences = diff_records(json.loads(args.golden.read_text()), current)
    for text in differences:
        print(text)
    print(f"{len(differences)} difference(s) in {len(current)} examples", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
