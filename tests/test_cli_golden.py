"""The golden-output script for the README's CLI examples."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import cli_golden  # noqa: E402

GOLDEN = ROOT / "scripts" / "cli_golden.json"

# fast examples, replayed against the golden file on every test run
CHEAP = [
    "sudogen gen-perm --n 8 --seed 42",
    "sudogen gen-perm --n 5 --seed 42 --algorithm rejection",
    "sudogen gen-pi --n 4 --seed 5",
    "sudogen gen-pi --n 3 --seed 1 --max-iterations 5",
    "sudogen gen-sigma --n 3 --algorithm rejection",
    "sudogen gen-sudoku --n 3 --seed 7 --pretty --stats",
    "sudogen gen-sudoku --n 3 --seed 3 --parallel 2 --max-restarts 0 --stats",
    "sudogen gen-pi --n 2 --seed 1 | sudogen map --phi | sudogen check --kind sigma",
    "sudogen gen-pi --n 8 --seed 3 | sudogen map --phi | sudogen map --phi-inverse",
    "sudogen gen-sudoku --n 4 --seed 2 | sudogen check --kind sudoku",
    "sudogen gen-perm --n 4 --seed 1 | sudogen check --kind pi",
    "sudogen gen-sudoku --n 2 --seed 5 | sudogen decompose | sudogen compose",
    "sudogen gen-sudoku --n 4 --seed 2 | sudogen decompose | sudogen compose",
    "sudogen estimate --generator sudoku-rejection --n 2 --samples 200000 --seed 1",
    "sudogen bench --generator perm-direct --sizes 64,128,256,512 --repetitions 30",
]


@pytest.fixture(scope="module")
def golden():
    return {record["command"]: record for record in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_the_readme_examples(golden):
    assert list(golden) == cli_golden.readme_examples(cli_golden.README)
    assert set(CHEAP) <= set(golden)


def readme_python_blocks():
    # the README's ``python`` blocks, read as readme_examples reads ``sh`` ones
    blocks, block = [], None
    for line in cli_golden.README.read_text().splitlines():
        if line.startswith("```"):
            if block is not None:
                blocks.append("\n".join(block))
            block = [] if line.strip() == "```python" else None
        elif block is not None:
            block.append(line)
    return blocks


def test_readme_library_block_runs():
    blocks = readme_python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_unseeded_commands_get_a_fixed_seed():
    assert cli_golden.stage_args("sudogen bench --generator perm-direct --sizes 4,8")[-2:] == [
        "--seed",
        "0",
    ]
    assert cli_golden.stage_args("sudogen gen-pi --n 2 --seed 1")[-2:] == ["--seed", "1"]
    assert cli_golden.stage_args("sudogen enumerate --n 2") == ["enumerate", "--n", "2"]


def test_mask_hides_timings_only():
    text = "\n".join(
        [
            '  "wall_time_s": 0.0123,',
            '  "candidates": 11,',
            "mean-iteration-time  1.234e-05 s",
            "samples              200000",
            "      64    1.2340e-06    3.0000e-08",
            "slope: 1.021   stderr: 0.010   ci95: [1.0, 1.1]",
            "1 2 3 4",
        ]
    )
    assert cli_golden.mask(text).splitlines() == [
        '  "wall_time_s": <masked>,',
        '  "candidates": 11,',
        "mean-iteration-time  <masked> s",
        "samples              200000",
        "      64  <masked>  <masked>",
        "slope: <masked>",
        "1 2 3 4",
    ]


def test_diff_reports_changed_fields(golden):
    record = golden[CHEAP[0]]
    assert cli_golden.diff_records([record], [record]) == []
    changed = json.loads(json.dumps(record))
    changed["stages"][0]["stdout"] = "1,2,3\n"
    changed["stages"][0]["exit"] = 1
    differences = cli_golden.diff_records([record], [changed])
    assert len(differences) == 2
    assert "[stage 1 exit]: 0 -> 1" in differences[0]
    assert "+1,2,3" in differences[1]


@pytest.mark.parametrize("command", CHEAP)
def test_cheap_examples_match_golden(golden, command):
    current = cli_golden.run_example(command)
    assert cli_golden.diff_records([golden[command]], [current]) == []
