"""End-to-end CLI coverage: commands, pipelines, formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from sudogen import (
    RandomSource,
    SigmaMatrix,
    derive_seed,
    format_pi,
    format_sigma,
    format_sudoku,
    gen_sudoku,
    is_permutation,
    is_pi,
    is_sigma,
    is_sudoku,
    iter_sudoku,
    parse_binary_matrix,
    parse_cells,
    parse_perm,
    parse_pi,
    phi,
)
from sudogen import analysis, cli, draw
from sudogen.cli import _BOUNDS, _COMMANDS, _UNREAD_RULES, main
from sudogen.errors import BENCH_IDS, GENERATOR_IDS

EXAMPLE = [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]

SRC = Path(__file__).resolve().parent.parent / "src"


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run(*args, input=None):
    """Run ``main(args)`` in-process with stdin fed and stdout/stderr captured."""
    saved = sys.stdin, sys.stdout, sys.stderr
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), stdout, stderr
    try:
        main(list(args))
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(code, stdout.getvalue(), stderr.getvalue())


def unreachable(*args):
    raise AssertionError("a refused request got past its guard")


def ok(*args, input=None):
    result = run(*args, input=input)
    assert result.exit_code == 0, result.stdout + result.stderr
    return result


class TestGenPerm:
    def test_text_output(self):
        result = ok("gen-perm", "--n", "5", "--seed", "42")
        values = parse_perm(result.stdout)
        assert is_permutation(values) and len(values) == 5
        assert "seed: 42" in result.stderr

    def test_deterministic(self):
        a = ok("gen-perm", "--n", "8", "--seed", "9")
        b = ok("gen-perm", "--n", "8", "--seed", "9")
        assert a.stdout == b.stdout

    def test_seeds_differ(self):
        a = ok("gen-perm", "--n", "8", "--seed", "1")
        b = ok("gen-perm", "--n", "8", "--seed", "2")
        assert a.stdout != b.stdout

    def test_entropy_seed_is_reported_and_replayable(self):
        first = ok("gen-perm", "--n", "6")
        seed_line = [l for l in first.stderr.splitlines() if l.startswith("seed: ")]
        assert len(seed_line) == 1
        seed = seed_line[0].split()[1]
        replay = ok("gen-perm", "--n", "6", "--seed", seed)
        assert replay.stdout == first.stdout

    def test_json_output(self):
        result = ok("gen-perm", "--n", "4", "--seed", "7", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["n"] == 4
        assert payload["seed"] == 7
        assert is_permutation(payload["values"])

    def test_rejection_reports_iterations(self):
        text = ok("gen-perm", "--n", "3", "--seed", "1", "--algorithm", "rejection")
        assert any(l.startswith("iterations: ") for l in text.stderr.splitlines())
        as_json = ok(
            "gen-perm", "--n", "3", "--seed", "1",
            "--algorithm", "rejection", "--format", "json",
        )
        payload = json.loads(as_json.stdout)
        assert payload["iterations"] >= 1

    def test_variant_option_is_gone(self):
        result = run("gen-perm", "--n", "6", "--seed", "3", "--variant", "swap")
        assert result.exit_code == 2
        assert "error: unrecognized arguments: --variant swap" in result.stderr

    def test_usage_errors(self):
        assert run("gen-perm").exit_code == 2  # missing --n
        assert run("gen-perm", "--n", "0").exit_code == 2
        assert run("gen-perm", "--n", "3", "--seed", "-1").exit_code == 2
        assert run("gen-perm", "--n", "3", "--algorithm", "magic").exit_code == 2

    def test_rejection_budget_exhausted(self):
        result = run(
            "gen-perm", "--n", "12", "--seed", "0",
            "--algorithm", "rejection", "--max-iterations", "1",
        )
        assert result.exit_code == 3
        assert "error:" in result.stderr


class TestGenPi:
    def test_text_output(self):
        result = ok("gen-pi", "--n", "3", "--seed", "5")
        rows = parse_pi(result.stdout)
        assert is_pi(rows)
        assert len(rows) == 6

    def test_json_round_trip(self):
        result = ok("gen-pi", "--n", "2", "--seed", "5", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["n"] == 2
        assert is_pi(payload["rows"])

    def test_rejection_algorithm(self):
        result = ok("gen-pi", "--n", "2", "--seed", "5", "--algorithm", "rejection")
        assert is_pi(parse_pi(result.stdout))


class TestGenSigma:
    def test_direct(self):
        result = ok("gen-sigma", "--n", "2", "--seed", "8")
        rows = parse_binary_matrix(result.stdout)
        assert is_sigma(rows)

    def test_json_ones(self):
        result = ok("gen-sigma", "--n", "2", "--seed", "8", "--format", "json")
        payload = json.loads(result.stdout)
        assert len(payload["ones"]) == 4
        assert payload["seed"] == 8

    def test_rejection_small_order(self):
        result = ok("gen-sigma", "--n", "1", "--seed", "8", "--algorithm", "rejection")
        assert parse_binary_matrix(result.stdout) == [[1]]

    def test_rejection_refused_large_order(self):
        result = run("gen-sigma", "--n", "3", "--seed", "8", "--algorithm", "rejection")
        assert result.exit_code == 3

    @pytest.mark.parametrize("algorithm", ["direct", "rejection"])
    def test_extreme_order_refused_before_anything_is_built(self, monkeypatch, algorithm):
        for name in ("gen_pi_direct", "phi"):
            monkeypatch.setattr(draw, name, unreachable)
        n = 10**9
        result = run("gen-sigma", "--n", str(n), "--seed", "1", "--algorithm", algorithm)
        assert result.exit_code == 3
        assert f"order {n} has n^4 = {n**4} entries" in result.stderr


@pytest.mark.parametrize(
    "command,n", [("gen-perm", 3), ("gen-pi", 3), ("gen-sigma", 3), ("gen-sigma", 49)]
)
def test_max_iterations_under_direct_is_a_usage_error(monkeypatch, command, n):
    # refused before gen-sigma's order bound and before any draw
    for name in ("gen_perm_direct", "gen_pi_direct", "phi"):
        monkeypatch.setattr(draw, name, unreachable)
    result = run(command, "--n", str(n), "--seed", "1", "--max-iterations", "5")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"usage: sudogen {command}")
    assert "error: --max-iterations does not apply to --algorithm direct" in result.stderr


# gen-perm and gen-pi: what the largest order builds, as the refusal names it
ORDER_BOUNDS = {
    "gen-perm": (_BOUNDS["perm"][0], "a permutation", "n", lambda n: n),
    "gen-pi": (_BOUNDS["pi"][0], "a pi matrix", "2n^2", lambda n: 2 * n * n),
}


@pytest.mark.parametrize("algorithm", ["direct", "rejection"])
@pytest.mark.parametrize("command", list(ORDER_BOUNDS))
def test_extreme_order_refused_before_drawing(monkeypatch, command, algorithm):
    # no source is seeded and nothing is drawn or allocated
    for name in ("RandomSource", "gen_perm_direct", "gen_pi_direct"):
        monkeypatch.setattr(draw, name, unreachable)
    bound, matrix, entries, count = ORDER_BOUNDS[command]
    n = 10**9
    result = run(command, "--n", str(n), "--seed", "1", "--algorithm", algorithm)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == (
        f"error: {matrix} of order {n} has {entries} = {count(n)} entries, "
        f"more than the {count(bound)} of order {bound}, the largest this command builds\n"
    )


@pytest.mark.parametrize("command", list(ORDER_BOUNDS))
def test_the_order_bound_itself_is_drawn(monkeypatch, command):
    bound = ORDER_BOUNDS[command][0]
    drawn = []
    monkeypatch.setattr(draw, "gen_perm_direct", lambda n, source: drawn.append(n) or [1])
    monkeypatch.setattr(draw, "gen_pi_direct", lambda n, source: drawn.append(n) or [[1], [1]])
    ok(command, "--n", str(bound), "--seed", "1")
    assert drawn == [bound]
    assert run(command, "--n", str(bound + 1), "--seed", "1").exit_code == 3
    assert drawn == [bound]


class TestGenSudoku:
    def test_layered_text(self):
        result = ok("gen-sudoku", "--n", "2", "--seed", "21")
        assert is_sudoku(parse_cells(result.stdout))

    def test_deterministic(self):
        a = ok("gen-sudoku", "--n", "2", "--seed", "4")
        b = ok("gen-sudoku", "--n", "2", "--seed", "4")
        assert a.stdout == b.stdout

    def test_pretty_reparses_identically(self):
        plain = ok("gen-sudoku", "--n", "2", "--seed", "4")
        pretty = ok("gen-sudoku", "--n", "2", "--seed", "4", "--pretty")
        assert parse_cells(pretty.stdout) == parse_cells(plain.stdout)
        assert "" in pretty.stdout.splitlines()  # block separator present

    def test_stats_in_json_payload(self):
        result = ok(
            "gen-sudoku", "--n", "2", "--seed", "4", "--stats", "--format", "json"
        )
        payload = json.loads(result.stdout)
        stats = payload["stats"]
        assert stats["schema_version"] == 4
        assert stats["n"] == 2
        assert stats["seed"] == 4
        assert stats["candidates"] >= 4

    def test_stats_on_stderr_in_text_mode(self):
        result = ok("gen-sudoku", "--n", "2", "--seed", "4", "--stats")
        assert '"schema_version": 4' in result.stderr

    def test_rejection_algorithm(self):
        result = ok(
            "gen-sudoku", "--n", "2", "--seed", "3",
            "--algorithm", "rejection", "--stats", "--format", "json",
        )
        payload = json.loads(result.stdout)
        assert is_sudoku(payload["cells"])
        assert payload["stats"]["iterations"] >= 1

    def test_rejection_refused_large_order(self):
        result = run("gen-sudoku", "--n", "3", "--algorithm", "rejection")
        assert result.exit_code == 3
        assert "error:" in result.stderr

    def test_rejection_budget_exhausted(self):
        result = run(
            "gen-sudoku", "--n", "2", "--seed", "0",
            "--algorithm", "rejection", "--max-iterations", "1",
        )
        assert result.exit_code == 3

    def test_layered_restarts_exhausted(self):
        # the first order-3 stack of seed 0 dead-ends
        result = run("gen-sudoku", "--n", "3", "--seed", "0", "--max-restarts", "0")
        assert result.exit_code == 3
        assert "gave up after 0 full restarts" in result.stderr

    def test_layered_refused_above_order_four(self):
        result = run("gen-sudoku", "--n", "5", "--seed", "0")
        assert result.exit_code == 3
        assert "order 5 is out of reach" in result.stderr

    def test_restart_budget_option_is_gone(self):
        assert run("gen-sudoku", "--n", "2", "--restart-budget", "1").exit_code == 2

    @pytest.mark.parametrize(
        "options,message",
        [
            pytest.param(
                ["--algorithm", "rejection", "--parallel", "3"],
                "--parallel does not apply to --algorithm rejection",
                id="rejection---parallel-3",
            ),
            pytest.param(
                ["--algorithm", "rejection", "--policy", "backtrack"],
                "--policy does not apply to --algorithm rejection",
                id="rejection---policy-backtrack",
            ),
            pytest.param(
                ["--algorithm", "rejection", "--max-restarts", "0"],
                "--max-restarts does not apply to --algorithm rejection",
                id="rejection---max-restarts-0",
            ),
            pytest.param(
                ["--algorithm", "layered", "--max-iterations", "1"],
                "--max-iterations does not apply to --algorithm layered",
                id="layered---max-iterations-1",
            ),
            # Several at once: the --algorithm rules win over --policy's and
            # --policy's over --format's; within a rule, the first option
            # in its list, whatever the order on the command line.
            pytest.param(
                ["--algorithm", "layered", "--max-iterations", "3",
                 "--policy", "backtrack", "--max-restarts", "0"],
                "--max-iterations does not apply to --algorithm layered",
                id="layered-max-iterations-before-backtrack-max-restarts",
            ),
            pytest.param(
                ["--algorithm", "rejection", "--parallel", "2", "--pretty", "--format", "json"],
                "--parallel does not apply to --algorithm rejection",
                id="rejection-parallel-before-json-pretty",
            ),
            pytest.param(
                ["--algorithm", "rejection", "--parallel", "2", "--max-restarts", "0",
                 "--policy", "backtrack"],
                "--policy does not apply to --algorithm rejection",
                id="rejection-policy-before-max-restarts-and-parallel",
            ),
            pytest.param(
                ["--pretty", "--format", "json", "--policy", "backtrack", "--max-restarts", "0"],
                "--max-restarts does not apply to --policy backtrack",
                id="backtrack-max-restarts-before-json-pretty",
            ),
        ],
    )
    def test_option_the_algorithm_does_not_read_is_a_usage_error(
        self, monkeypatch, options, message
    ):
        monkeypatch.setattr(draw, "RandomSource", unreachable)
        result = run("gen-sudoku", "--n", "2", "--seed", "1", *options)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: sudogen gen-sudoku")
        assert result.stderr.endswith(f"error: {message}\n")

    def test_pretty_json_is_a_usage_error_and_draws_nothing(self, monkeypatch):
        # --pretty shapes text output only, so JSON output would leave it unread
        monkeypatch.setattr(draw, "RandomSource", unreachable)
        result = run("gen-sudoku", "--n", "2", "--seed", "1", "--pretty", "--format", "json")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: sudogen gen-sudoku")
        assert "error: --pretty does not apply to --format json" in result.stderr

    def test_max_restarts_under_backtracking_is_a_usage_error(self):
        # backtracking never restarts, so the bound would go unread
        result = run(
            "gen-sudoku", "--n", "3", "--seed", "0", "--policy", "backtrack", "--max-restarts", "0"
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: sudogen gen-sudoku")
        assert "error: --max-restarts does not apply to --policy backtrack" in result.stderr

    def test_unread_options_at_their_defaults_are_accepted(self):
        plain = ok("gen-sudoku", "--n", "2", "--seed", "1", "--algorithm", "rejection")
        spelled = ok(
            "gen-sudoku", "--n", "2", "--seed", "1", "--algorithm", "rejection",
            "--parallel", "1", "--policy", "restart",
        )
        assert spelled.stdout == plain.stdout
        layered = ok("gen-sudoku", "--n", "2", "--seed", "1")
        assert layered.stdout == ok("gen-sudoku", "--n", "2", "--seed", "1", "--policy", "restart").stdout

    def test_parallel_deterministic(self):
        a = ok("gen-sudoku", "--n", "2", "--seed", "5", "--parallel", "2")
        b = ok("gen-sudoku", "--n", "2", "--seed", "5", "--parallel", "2")
        assert a.stdout == b.stdout
        assert is_sudoku(parse_cells(a.stdout))

    def test_parallel_stats_name_the_winner(self):
        result = ok(
            "gen-sudoku", "--n", "2", "--seed", "5", "--parallel", "2",
            "--stats", "--format", "json",
        )
        stats = json.loads(result.stdout)["stats"]
        assert stats["root_seed"] == 5
        # order 2 never dead-ends, so attempt 0 always wins
        assert stats["attempt_index"] == 0

    def test_parallel_winner_is_the_first_attempt_within_budget(self):
        # attempt 0 of root seed 3 dead-ends at order 3; attempt 1 does not
        result = ok(
            "gen-sudoku", "--n", "3", "--seed", "3", "--parallel", "2",
            "--max-restarts", "0", "--stats", "--format", "json",
        )
        payload = json.loads(result.stdout)
        cells, _ = gen_sudoku(3, RandomSource(derive_seed(3, 1)), max_restarts=0)
        assert payload["cells"] == cells
        assert payload["seed"] == 3
        assert payload["stats"]["attempt_index"] == 1
        assert payload["stats"]["seed"] == derive_seed(3, 1)

    def test_parallel_attempts_all_exhausted(self):
        result = run(
            "gen-sudoku", "--n", "3", "--seed", "4", "--parallel", "3", "--max-restarts", "0"
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: all 3 parallel attempts exhausted their restart budgets\n"

    def test_parallel_stops_at_the_first_success(self, monkeypatch):
        # with no restart limit every attempt succeeds, so one is run
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gen_sudoku(*args, **kwargs)

        monkeypatch.setattr("sudogen.sudoku.gen_sudoku", counted)
        ok("gen-sudoku", "--n", "2", "--seed", "5", "--parallel", "3")
        assert len(calls) == 1
        assert calls[0][1].seed == derive_seed(5, 0)


class TestOnlyThePrintedFormatIsBuilt:
    @pytest.mark.parametrize(
        "writer,args",
        [
            ("perm_json", ["gen-perm", "--n", "5", "--seed", "1"]),
            ("perm_json", ["gen-perm", "--n", "3", "--seed", "1", "--algorithm", "rejection"]),
            ("pi_json", ["gen-pi", "--n", "3", "--seed", "1"]),
            ("sigma_json", ["gen-sigma", "--n", "3", "--seed", "1"]),
            ("sudoku_json", ["gen-sudoku", "--n", "2", "--seed", "1", "--stats"]),
        ],
    )
    def test_text_mode_builds_no_json_payload(self, monkeypatch, writer, args):
        def refuse(*_):
            raise AssertionError(f"{writer} called")

        monkeypatch.setattr(f"sudogen.draw.{writer}", refuse)
        result = ok(*args)
        assert result.stdout
        assert result.stderr.endswith("seed: 1\n")
        # the patched writer is the one JSON mode uses
        with pytest.raises(AssertionError, match=f"{writer} called"):
            run(*args, "--format", "json")


class TestCheck:
    def test_valid_perm(self):
        result = run("check", "--kind", "perm", input="3,1,2\n")
        assert result.exit_code == 0
        assert result.stdout.strip() == "valid"

    def test_invalid_perm(self):
        result = run("check", "--kind", "perm", input="1,1,3\n")
        assert result.exit_code == 1
        assert result.stdout.strip() == "invalid"

    def test_out_of_range_gives_reason(self):
        result = run("check", "--kind", "perm", input="1,2,4\n")
        assert result.exit_code == 1
        assert result.stdout.strip() == "invalid"
        assert "reason:" in result.stderr

    def test_malformed_is_a_parse_error(self):
        result = run("check", "--kind", "perm", input="1,x,3\n")
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_valid_pi(self):
        text = format_pi([[1, 2], [2, 1], [1, 2], [2, 1]])
        assert run("check", "--kind", "pi", input=text).exit_code == 0

    def test_invalid_pi(self):
        # a repeated value is a plain verdict, as for perm
        text = format_pi([[1, 1], [2, 1], [1, 2], [2, 1]])
        result = run("check", "--kind", "pi", input=text)
        assert (result.exit_code, result.stdout, result.stderr) == (1, "invalid\n", "")

    @pytest.mark.parametrize(
        "rows,reason",
        [
            ([[1, 4, 3, 2]], "pi matrix needs an even, positive row count, got 1"),
            ([[1], [1, 2]], "row 2 has length 2, expected 1"),
            ([[1, 2], [2, 1], [1, 3], [2, 1]], "tuple value 3 outside range 1..2"),
        ],
    )
    def test_malformed_pi_gives_reason(self, rows, reason):
        result = run("check", "--kind", "pi", input=format_pi(rows))
        assert (result.exit_code, result.stdout) == (1, "invalid\n")
        assert result.stderr == f"reason: {reason}\n"

    def test_valid_sigma(self):
        text = format_sigma(phi([[1, 2], [1, 2], [1, 2], [1, 2]]))
        assert run("check", "--kind", "sigma", input=text).exit_code == 0

    def test_invalid_sigma(self):
        identity = "\n".join(
            " ".join("1" if i == j else "0" for j in range(4)) for i in range(4)
        )
        assert run("check", "--kind", "sigma", input=identity).exit_code == 1

    def test_valid_sudoku(self):
        assert (
            run("check", "--kind", "sudoku", input=format_sudoku(EXAMPLE)).exit_code
            == 0
        )

    def test_invalid_sudoku(self):
        latin = "1 2 3 4\n2 3 4 1\n3 4 1 2\n4 1 2 3\n"
        assert run("check", "--kind", "sudoku", input=latin).exit_code == 1


class TestEnumerate:
    def test_count(self):
        assert ok("enumerate", "--n", "2").stdout.strip() == "288"
        assert ok("enumerate", "--n", "1").stdout.strip() == "1"

    def test_list_streams_every_matrix(self):
        result = ok("enumerate", "--n", "2", "--list")
        lines = [l for l in result.stdout.splitlines() if l.strip()]
        assert len(lines) == 288 * 4
        grids = [
            [[int(v) for v in line.split()] for line in lines[i : i + 4]]
            for i in range(0, len(lines), 4)
        ]
        assert grids[0] == next(iter_sudoku(2))
        assert all(is_sudoku(g) for g in grids[:10])

    def test_large_order_refused(self):
        assert run("enumerate", "--n", "3").exit_code == 3


class TestMapAndLayers:
    def test_phi_matches_library(self):
        rows = [[1, 2], [1, 2], [2, 1], [2, 1]]
        result = ok("map", "--phi", input=format_pi(rows))
        assert result.stdout.strip() == format_sigma(phi(rows))

    def test_phi_then_inverse_is_identity(self):
        pi_text = ok("gen-pi", "--n", "3", "--seed", "17").stdout
        sigma_text = ok("map", "--phi", input=pi_text).stdout
        back = ok("map", "--phi-inverse", input=sigma_text).stdout
        assert back.strip() == pi_text.strip()

    def test_direction_required(self):
        assert run("map", input="1\n").exit_code == 2

    def test_phi_rejects_invalid_pi(self):
        assert run("map", "--phi", input="1,1\n1,2\n1,2\n2,1\n").exit_code == 1

    def test_phi_refuses_an_order_past_the_bound_before_mapping(self, monkeypatch):
        monkeypatch.setattr(cli, "phi", unreachable)
        n = _BOUNDS["sigma"][0] + 1
        result = run("map", "--phi", input=format_pi([list(range(1, n + 1))] * (2 * n)))
        assert result.exit_code == 3
        assert f"order {n} has n^4 = {n**4} entries" in result.stderr

    def test_phi_inverse_rejects_non_block_matrix(self):
        identity = "\n".join(
            " ".join("1" if i == j else "0" for j in range(4)) for i in range(4)
        )
        assert run("map", "--phi-inverse", input=identity).exit_code == 1

    def test_decompose_compose_round_trip(self):
        grid = ok("gen-sudoku", "--n", "2", "--seed", "33").stdout
        layers = ok("decompose", input=grid).stdout
        rebuilt = ok("compose", input=layers).stdout
        assert rebuilt.strip() == grid.strip()

    def test_decompose_rejects_invalid(self):
        latin = "1 2 3 4\n2 3 4 1\n3 4 1 2\n4 1 2 3\n"
        assert run("decompose", input=latin).exit_code == 1

    def test_compose_rejects_overlap(self):
        layer = format_sigma(phi([[1, 2], [1, 2], [1, 2], [1, 2]]))
        text = "\n\n".join([layer] * 4)
        result = run("compose", input=text)
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_compose_rejects_wrong_layer_count(self):
        layer = format_sigma(phi([[1, 2], [1, 2], [1, 2], [1, 2]]))
        assert run("compose", input=layer).exit_code == 1

    # the layers of EXAMPLE, as decompose writes them
    EXAMPLE_LAYERS = [
        ["1 0 0 0", "0 0 1 0", "0 1 0 0", "0 0 0 1"],
        ["0 1 0 0", "0 0 0 1", "1 0 0 0", "0 0 1 0"],
        ["0 0 1 0", "1 0 0 0", "0 0 0 1", "0 1 0 0"],
        ["0 0 0 1", "0 1 0 0", "0 0 1 0", "1 0 0 0"],
    ]

    @staticmethod
    def _layers_text(layers):
        return "\n\n".join("\n".join(rows) for rows in layers) + "\n"

    def test_example_layers_are_what_decompose_writes(self):
        text = self._layers_text(self.EXAMPLE_LAYERS)
        assert ok("decompose", input=format_sudoku(EXAMPLE)).stdout == text
        assert ok("compose", input=text).stdout == format_sudoku(EXAMPLE) + "\n"

    @pytest.mark.parametrize(
        "edit, code, stderr",
        [
            # a non-binary token in the last layer: a parse error, with its place
            ({(3, 2): "0 0 2 0"}, 2, "error: line 18, token 3: expected 0 or 1, got 2\n"),
            # a parse error anywhere wins over an invalid block before it
            ({(0, 2): "1 0 0 0", (3, 0): "0 0 0 x"}, 2, "error: line 16, token 4: invalid integer 'x'\n"),
            # a block of side 3
            ({(1, 3): None}, 1, "error: side 3 is not a positive perfect square\n"),
            # a row with two 1s
            ({(1, 0): "0 1 0 1"}, 1, "error: matrix is not a block permutation matrix\n"),
            # a column used twice
            ({(2, 3): "1 0 0 0"}, 1, "error: matrix is not a block permutation matrix\n"),
            # two layers share a cell
            ({(3, r): row for r, row in enumerate(EXAMPLE_LAYERS[0])}, 1,
             "error: layer 4 overlaps an earlier layer at (1, 1)\n"),
        ],
        ids=["token-2", "parse-error-wins", "non-square", "two-ones", "repeated-column", "overlap"],
    )
    def test_compose_errors_are_pinned(self, edit, code, stderr):
        layers = [list(rows) for rows in self.EXAMPLE_LAYERS]
        for (k, r), row in edit.items():
            if row is None:
                del layers[k][r]
            else:
                layers[k][r] = row
        assert run("compose", input=self._layers_text(layers)) == (code, "", stderr)

    def test_compose_wrong_layer_count_is_pinned(self):
        text = self._layers_text(self.EXAMPLE_LAYERS[:3])
        assert run("compose", input=text) == (1, "", "error: expected 4 layers for order 2, got 3\n")


class TestEstimate:
    def test_text_output(self):
        result = ok(
            "estimate", "--generator", "perm-rejection",
            "--n", "2", "--samples", "1000", "--seed", "3",
        )
        assert "empirical" in result.stdout
        assert "theoretical" in result.stdout
        assert "(1/2)" in result.stdout

    def test_json_output(self):
        result = ok(
            "estimate", "--generator", "perm-rejection",
            "--n", "2", "--samples", "1000", "--seed", "3", "--format", "json",
        )
        payload = json.loads(result.stdout)
        assert payload["theoretical_acceptance"] == {
            "numerator": "1",
            "denominator": "2",
            "float": 0.5,
        }
        assert 0 <= payload["successes"] <= 1000

    def test_csv_matches_json(self):
        common = [
            "--generator", "perm-rejection",
            "--n", "2", "--samples", "1000", "--seed", "3",
        ]
        payload = json.loads(ok("estimate", *common, "--format", "json").stdout)
        rows = list(csv.DictReader(io.StringIO(ok("estimate", *common, "--format", "csv").stdout)))
        assert len(rows) == 1
        assert int(rows[0]["successes"]) == payload["successes"]
        assert float(rows[0]["theoretical_p"]) == 0.5

    @pytest.mark.parametrize(
        "generator,samples,seed,pinned",
        [
            ("perm-rejection", 1000, 3, ["490", "0.49", "0.5", "0.0158082257068907"]),
            ("sudoku-rejection", 2000, 1, ["12", "0.006", "0.00439453125", "0.0017268468374467957"]),
        ],
    )
    def test_csv_pinned(self, generator, samples, seed, pinned):
        # recorded before estimate's CSV and text rows came from one list;
        # the two mean times are left out
        result = ok(
            "estimate", "--generator", generator, "--n", "2",
            "--samples", str(samples), "--seed", str(seed), "--format", "csv",
        )
        header, row, end = result.stdout.split("\r\n")
        assert header == (
            "generator_id,n,samples,successes,empirical_p,theoretical_p,std_error,"
            "mean_iteration_time_s,mean_check_time_s,seed"
        )
        fields = row.split(",")
        assert fields[:7] + fields[9:] == [generator, "2", str(samples), *pinned, str(seed)]
        assert end == ""

    def test_deterministic(self):
        args = (
            "estimate", "--generator", "pi-rejection",
            "--n", "2", "--samples", "500", "--seed", "12", "--format", "json",
        )
        assert (
            json.loads(ok(*args).stdout)["successes"]
            == json.loads(ok(*args).stdout)["successes"]
        )

    def test_too_few_samples_is_usage_error(self):
        result = run(
            "estimate", "--generator", "perm-rejection",
            "--n", "2", "--samples", "50",
        )
        assert result.exit_code == 2

    def test_infeasible_combination(self):
        result = run(
            "estimate", "--generator", "sigma-rejection", "--n", "3",
            "--samples", "1000",
        )
        assert result.exit_code == 3

    def test_unknown_generator(self):
        assert run("estimate", "--generator", "magic", "--n", "2").exit_code == 2


class TestBench:
    def test_text_output(self):
        result = ok(
            "bench", "--generator", "perm-direct",
            "--sizes", "8,16", "--repetitions", "3", "--seed", "1",
        )
        assert "slope:" in result.stdout
        assert "median_s" in result.stdout

    def test_json_output(self):
        result = ok(
            "bench", "--generator", "perm-check",
            "--sizes", "16,32,64", "--repetitions", "3", "--seed", "1",
            "--format", "json",
        )
        payload = json.loads(result.stdout)
        assert [p["n"] for p in payload["points"]] == [16, 32, 64]
        assert payload["slope"] is not None
        assert payload["slope_ci95"] is not None

    def test_csv_output(self):
        result = ok(
            "bench", "--generator", "perm-direct",
            "--sizes", "8,16", "--repetitions", "2", "--seed", "1",
            "--format", "csv",
        )
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        assert [r["n"] for r in rows] == ["8", "16"]
        assert all(float(r["median_s"]) > 0 for r in rows)

    @pytest.mark.parametrize("sizes,has_slope", [("8,16", True), ("8", False)])
    def test_csv_pinned(self, sizes, has_slope):
        # recorded before bench shared estimate's report writer; median_s,
        # mad_s and a fitted slope are timings and are left out
        result = ok(
            "bench", "--generator", "perm-direct", "--sizes", sizes,
            "--repetitions", "2", "--seed", "1", "--format", "csv",
        )
        header, *rows, end = result.stdout.split("\r\n")
        assert header == "generator_id,n,median_s,mad_s,repetitions,slope,slope_stderr,seed"
        assert end == ""
        fields = [row.split(",") for row in rows]
        # generator_id, n, repetitions, slope_stderr (none below three sizes), seed
        assert [[f[0], f[1], f[4], f[6], f[7]] for f in fields] == [
            ["perm-direct", n, "2", "", "1"] for n in sizes.split(",")
        ]
        assert [f[5] != "" for f in fields] == [has_slope] * len(fields)

    def test_bad_sizes(self):
        assert run("bench", "--generator", "perm-direct", "--sizes", "x").exit_code == 2
        assert run("bench", "--generator", "perm-direct", "--sizes", "0").exit_code == 2
        assert run("bench", "--generator", "perm-direct", "--sizes", "").exit_code == 2

    def test_unknown_generator(self):
        assert run("bench", "--generator", "magic", "--sizes", "8").exit_code == 2


# What estimate and bench are told one order past each bound, written out
PAST_THE_BOUND = {
    "perm": "error: a permutation of order 8193 has n = 8193 entries, more than the "
    "8192 of order 8192, the largest this command builds\n",
    "pi": "error: a pi matrix of order 385 has 2n^2 = 296450 entries, more than the "
    "294912 of order 384, the largest this command builds\n",
    "sigma": "error: a block permutation matrix of order 49 has n^4 = 5764801 entries, "
    "more than the 5308416 of order 48, the largest this command builds\n",
}
BOUND = {"perm": 8192, "pi": 384, "sigma": 48}
# the kind of matrix each estimate and bench generator builds
GENERATOR_KINDS = {
    "perm-rejection": "perm", "perm-direct": "perm", "perm-check": "perm",
    "pi-rejection": "pi", "pi-direct": "pi",
    "sigma-rejection": "sigma", "sigma-check": "sigma", "sudoku-rejection": "sigma",
}


@pytest.mark.parametrize("generator", GENERATOR_IDS)
def test_estimate_past_the_order_bound_is_refused_before_drawing(monkeypatch, generator):
    monkeypatch.setattr(draw, "RandomSource", unreachable)
    kind = GENERATOR_KINDS[generator]
    n = str(BOUND[kind] + 1)
    result = run("estimate", "--generator", generator, "--n", n, "--samples", "100", "--seed", "1")
    assert result == (3, "", PAST_THE_BOUND[kind])


@pytest.mark.parametrize("generator", BENCH_IDS)
def test_bench_past_the_order_bound_is_refused_before_drawing(monkeypatch, generator):
    # the largest size is refused before the first one is timed
    monkeypatch.setattr(draw, "RandomSource", unreachable)
    kind = GENERATOR_KINDS[generator]
    sizes = f"2,{BOUND[kind] + 1},3"
    result = run("bench", "--generator", generator, "--sizes", sizes, "--repetitions", "1")
    assert result == (3, "", PAST_THE_BOUND[kind])


@pytest.mark.parametrize("generator", BENCH_IDS)
def test_estimate_and_bench_accept_the_order_bound(monkeypatch, generator):
    # the library calls are stubbed: they record the order asked for and
    # run at order 1
    asked = []
    estimate_p, bench_tau = analysis.estimate_p, analysis.bench_tau
    monkeypatch.setattr(
        analysis, "estimate_p",
        lambda g, n, samples, source: asked.append(n) or estimate_p(g, 1, samples, source),
    )
    monkeypatch.setattr(
        analysis, "bench_tau",
        lambda g, sizes, reps, source: asked.append(sizes) or bench_tau(g, [1], reps, source),
    )
    bound = BOUND[GENERATOR_KINDS[generator]]
    if generator in GENERATOR_IDS:
        ok("estimate", "--generator", generator, "--n", str(bound), "--samples", "100")
        assert asked == [bound]
        asked.clear()
    ok("bench", "--generator", generator, "--sizes", f"2,{bound}", "--repetitions", "1")
    assert asked == [[2, bound]]


def test_unread_rules_name_real_options():
    # main skips a rule's options that a command lacks, so a misspelt name
    # would switch the rule off without a word
    commands = [dict(options) for _, options in _COMMANDS.values()]
    for choice, reader, options in _UNREAD_RULES:
        for option in (choice, *options):
            assert any(option in command for command in commands), option
        applies = [c for c in commands if choice in c and any(o in c for o in options)]
        assert applies, (choice, reader, options)
        for command in applies:
            assert reader in command[choice]["choices"], (choice, reader)


class TestPipelinesViaShell:
    """In-process equivalents of documented shell pipelines."""

    def test_gen_pi_map_phi_check_sigma(self):
        pi_text = ok("gen-pi", "--n", "2", "--seed", "77").stdout
        sigma_text = ok("map", "--phi", input=pi_text).stdout
        verdict = run("check", "--kind", "sigma", input=sigma_text)
        assert verdict.exit_code == 0

    def test_gen_sudoku_check(self):
        grid = ok("gen-sudoku", "--n", "3", "--seed", "1").stdout
        assert run("check", "--kind", "sudoku", input=grid).exit_code == 0

    def test_pretty_output_feeds_check(self):
        grid = ok("gen-sudoku", "--n", "2", "--seed", "2", "--pretty").stdout
        assert run("check", "--kind", "sudoku", input=grid).exit_code == 0


class TestEntryPoint:
    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        # the console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["sudogen", "enumerate", "--n", "1"])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == "1\n"

    def test_no_command_is_a_usage_error(self):
        result = run()
        assert result.exit_code == 2
        assert "error: the following arguments are required: COMMAND" in result.stderr

    def test_usage_error_names_the_problem(self):
        result = run("map", input="1\n")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: sudogen map")
        assert "error: one of --phi / --phi-inverse is required" in result.stderr

    def test_extra_arguments_show_the_command_usage(self):
        result = run("decompose", "x", input=format_sudoku(EXAMPLE))
        assert result.exit_code == 2
        assert result.stderr.startswith("usage: sudogen decompose")
        assert "error: unrecognized arguments: x" in result.stderr

    def test_both_map_directions_take_the_last(self):
        rows = [[1, 2], [1, 2], [2, 1], [2, 1]]
        result = ok("map", "--phi-inverse", "--phi", input=format_pi(rows))
        assert result.stdout.strip() == format_sigma(phi(rows))

    def test_seed_range(self):
        top = str(2**64 - 1)
        assert run("gen-perm", "--n", "3", "--seed", top).exit_code == 0
        assert run("gen-perm", "--n", "3", "--seed", str(2**64)).exit_code == 2

    def test_option_names_are_not_abbreviated(self):
        assert run("gen-sudoku", "--n", "2", "--max-r", "1").exit_code == 2
        assert run("gen-perm", "-h").exit_code == 2

    def test_help(self):
        result = run("gen-sudoku", "--help")
        assert result.exit_code == 0
        assert "--max-restarts" in result.stdout
        assert "[default: restart]" in result.stdout
        # each option says which algorithm reads it, however the help wraps
        text = " ".join(result.stdout.split())
        for option, algorithm in [
            ("--policy {restart,backtrack}", "Layered"),
            ("--max-restarts MAX_RESTARTS", "Layered"),
            ("--parallel WORKERS", "Layered"),
            ("--max-iterations MAX_ITERATIONS", "Rejection"),
        ]:
            assert f"{option} {algorithm} only." in text
        for command in ("gen-perm", "gen-pi", "gen-sigma"):
            text = " ".join(run(command, "--help").stdout.split())
            assert "--max-iterations MAX_ITERATIONS Rejection only." in text
        listing = run("--help")
        assert listing.exit_code == 0
        for name in ("gen-perm", "gen-sudoku", "map", "decompose", "bench"):
            assert f"\n    {name}" in listing.stdout


    def test_n_and_seed_have_one_help_line(self):
        found = {"--n": {}, "--seed": {}}
        for command in _COMMANDS:
            options = run(command, "--help").stdout.split("\noptions:\n")[1]
            for line in options.splitlines():
                words = line.split()
                if words and words[0] in found:
                    found[words[0]][command] = " ".join(words)
        generators = ["gen-perm", "gen-pi", "gen-sigma", "gen-sudoku"]
        assert sorted(found["--n"]) == sorted([*generators, "enumerate", "estimate"])
        assert set(found["--n"].values()) == {"--n N Order."}
        assert sorted(found["--seed"]) == sorted([*generators, "estimate", "bench"])
        assert set(found["--seed"].values()) == {"--seed SEED RNG seed."}


def test_closed_stdout_exits_1_without_a_traceback():
    # The reader of a streaming command goes away after one line.  The
    # pipe is shrunk below the 10 kB the command prints, so the command is
    # still writing when the reader closes.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe size cannot be set on this platform")
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sudogen.cli", "enumerate", "--n", "2", "--list"],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        assert reader.readline() == b"1 2 3 4\n"
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in stderr
    assert stderr == b""


def _child(*flags_and_args, input=None):
    proc = subprocess.run(
        [sys.executable, *flags_and_args],
        input=input,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    return proc.returncode, proc.stdout


def _without_summaries(listing):
    # The bare --help listing with each command's docstring summary taken
    # out: a command line keeps its name, a wrapped summary line goes.
    head, commands = listing.split("\n  COMMAND\n")
    names = [line.split()[0] for line in commands.splitlines() if line[4] != " "]
    return "\n".join([head, "  COMMAND", *(f"    {name}" for name in names)]) + "\n"


@pytest.mark.parametrize(
    "args, input",
    [
        (["gen-sudoku", "--n", "2", "--seed", "5"], None),
        (["decompose"], format_sudoku(EXAMPLE) + "\n"),
        (["--help"], None),
        (["gen-sudoku", "--help"], None),
    ],
    ids=["gen-sudoku", "decompose", "help", "gen-sudoku-help"],
)
def test_same_output_under_python_OO(args, input):
    # -OO strips docstrings: every output is the plain child's, except the
    # help texts read from the command functions' docstrings
    code, plain = _child("-m", "sudogen.cli", *args, input=input)
    code_oo, stripped = _child("-OO", "-m", "sudogen.cli", *args, input=input)
    assert code_oo == code == 0
    if args == ["--help"]:
        plain = _without_summaries(plain)
    elif "--help" in args:
        # a command's description is its docstring; its options' help is not
        plain = plain.split("\noptions:\n")[1]
        stripped = stripped.split("\noptions:\n")[1]
    assert stripped == plain
