"""Lazy imports: the package and the CLI load only what they use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sudogen
import sudogen.analysis

SRC = Path(__file__).resolve().parent.parent / "src"

# What a start-up-bound command such as decompose must not pay for: the
# analysis module and its statistics, the process pool, entropy seeding
# and the CSV writer.
HEAVY = [
    "sudogen.analysis",
    "statistics",
    "fractions",
    "concurrent.futures",
    "multiprocessing",
    "secrets",
    "csv",
]
# What no CLI child loads: click, a parser the CLI does not use, and the
# dataclasses module, which would bring inspect, ast, dis and tokenize.
PARSER_AND_DATACLASSES = ["click", "dataclasses", "inspect"]
# The sudogen modules a command that draws nothing has no use for.  With no
# bytecode cache a child compiles each module it imports, so every one it
# skips is start-up time saved.
DRAWING = ["sudogen.draw", "sudogen.rng"]
GENERATORS = ["sudogen.sudoku", "sudogen.perm", "sudogen.pi", *DRAWING]


# Prepended to each probe: list sys.modules on stderr when the child exits.
REPORT = (
    "import atexit, sys; "
    "atexit.register(lambda: print('loaded:', *sys.modules, file=sys.stderr)); "
)
# ``python -m sudogen.cli`` with the probe in front.
RUN_CLI = "import runpy; runpy.run_module('sudogen.cli', run_name='__main__', alter_sys=True)"


def loaded_modules(code: str, *args: str, stdin: str = "") -> set[str]:
    """``sys.modules`` of a fresh interpreter at exit, after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", REPORT + code, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = proc.stderr.splitlines()[-1].split()
    assert report[0] == "loaded:"
    return set(report[1:])


GRID = "1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"


def _text_inputs() -> dict[str, str]:
    # stdin for each text-only command, all built from GRID
    from sudogen.formats import format_layers, format_pi, format_sigma
    from sudogen.sigma import phi, phi_inverse
    from sudogen.sudoku import decompose

    layers = decompose([[int(v) for v in row.split()] for row in GRID.splitlines()])
    pi = phi_inverse(layers[0])
    return {
        "map --phi": format_pi(pi),
        "map --phi-inverse": format_sigma(phi(pi)),
        "decompose": GRID,
        "compose": format_layers(layers),
        "check --kind sudoku": GRID,
    }


TEXT_INPUTS = _text_inputs()


class TestImportDiet:
    @pytest.mark.parametrize("command", list(TEXT_INPUTS))
    def test_text_commands_do_not_load_json(self, command):
        loaded = loaded_modules(RUN_CLI, *command.split(), stdin=TEXT_INPUTS[command])
        assert "sudogen.formats" in loaded
        assert "json" not in loaded

    @pytest.mark.parametrize("command", list(TEXT_INPUTS))
    def test_text_commands_load_no_click_or_dataclasses(self, command):
        loaded = loaded_modules(RUN_CLI, *command.split(), stdin=TEXT_INPUTS[command])
        assert sorted(loaded & set(PARSER_AND_DATACLASSES)) == []

    def test_gen_sudoku_loads_no_click_or_dataclasses(self):
        loaded = loaded_modules(RUN_CLI, "gen-sudoku", "--n", "2", "--seed", "1")
        assert "sudogen.sudoku" in loaded
        assert sorted(loaded & set(PARSER_AND_DATACLASSES)) == []

    def test_parallel_runs_its_attempts_without_a_process_pool(self):
        args = ["gen-sudoku", "--n", "2", "--seed", "1", "--parallel", "2"]
        loaded = loaded_modules(RUN_CLI, *args)
        assert "sudogen.sudoku" in loaded
        assert sorted(loaded & {"concurrent.futures", "multiprocessing"}) == []

    @pytest.mark.parametrize("command", ["map --phi", "map --phi-inverse"])
    def test_map_does_not_load_the_sudoku_module(self, command):
        loaded = loaded_modules(RUN_CLI, *command.split(), stdin=TEXT_INPUTS[command])
        assert "sudogen.sigma" in loaded
        assert "sudogen.sudoku" not in loaded

    def test_json_format_still_loads_json(self):
        args = ["gen-perm", "--n", "3", "--seed", "1", "--format", "json"]
        assert "json" in loaded_modules(RUN_CLI, *args)

    def test_decompose_loads_nothing_heavy(self):
        loaded = loaded_modules(RUN_CLI, "decompose", stdin=GRID)
        assert "sudogen.grid" in loaded
        assert sorted(loaded & set(HEAVY)) == []

    @pytest.mark.parametrize("command", ["decompose", "compose", "check --kind sudoku"])
    def test_grid_commands_load_no_generator_code(self, command):
        loaded = loaded_modules(RUN_CLI, *command.split(), stdin=TEXT_INPUTS[command])
        assert "sudogen.grid" in loaded
        assert sorted(loaded & set(GENERATORS)) == []

    @pytest.mark.parametrize("command", ["map --phi", "map --phi-inverse"])
    def test_map_loads_no_drawing_code(self, command):
        loaded = loaded_modules(RUN_CLI, *command.split(), stdin=TEXT_INPUTS[command])
        assert sorted(loaded & set(DRAWING)) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["--help"],
            ["gen-sigma", "--n", "2", "--seed", "1"],
            ["gen-sudoku", "--n", "2", "--seed", "1", "--stats"],
            ["check", "--kind", "perm"],
            *(command.split() for command in TEXT_INPUTS),
        ],
        ids=lambda args: " ".join(args),
    )
    def test_no_child_imports_the_cli_module(self, args):
        # run as ``python -m`` the CLI is __main__; an import of sudogen.cli
        # would compile and run it a second time
        stdin = TEXT_INPUTS.get(" ".join(args), "3,1,2\n")
        loaded = loaded_modules(RUN_CLI, *args, stdin=stdin)
        assert "sudogen.formats" in loaded
        assert "sudogen.cli" not in loaded

    def test_importing_the_cli_loads_nothing_heavy(self):
        loaded = loaded_modules("import sudogen.cli")
        assert "sudogen.formats" in loaded
        assert sorted(loaded & set(HEAVY)) == []

    def test_bare_package_import_loads_no_submodule(self):
        loaded = loaded_modules("import sudogen")
        assert {m for m in loaded if m.startswith("sudogen")} == {"sudogen"}

    def test_submodules_resolve_after_a_bare_import(self):
        loaded = loaded_modules("import sudogen; sudogen.sudoku.decompose; sudogen.errors")
        assert {"sudogen.sudoku", "sudogen.errors"} <= loaded

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--generator", "perm-rejection", "--n", "2", "--samples", "100"],
            ["bench", "--generator", "perm-direct", "--sizes", "2,3", "--repetitions", "1"],
            ["gen-perm", "--n", "3", "--algorithm", "rejection"],
        ],
        ids=["estimate", "bench", "gen-perm-rejection"],
    )
    def test_analysis_commands_load_no_click_or_dataclasses(self, args):
        loaded = loaded_modules(RUN_CLI, *args, "--seed", "1")
        assert "sudogen.analysis" in loaded
        assert sorted(loaded & set(PARSER_AND_DATACLASSES)) == []

    def test_analysis_loads_when_a_command_needs_it(self):
        args = ["gen-perm", "--n", "3", "--seed", "1", "--algorithm", "rejection"]
        assert "sudogen.analysis" in loaded_modules(RUN_CLI, *args)


class TestLazyPackage:
    def test_every_public_name_resolves(self):
        assert [name for name in sudogen.__all__ if not hasattr(sudogen, name)] == []

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from sudogen import *", namespace)
        assert set(sudogen.__all__) <= set(namespace)

    def test_dir_lists_public_names_and_submodules(self):
        listed = set(dir(sudogen))
        assert set(sudogen.__all__) <= listed
        assert {"analysis", "formats", "sudoku"} <= listed

    def test_one_definition_of_the_generator_ids(self):
        assert sudogen.GENERATOR_IDS is sudogen.analysis.GENERATOR_IDS
        assert sudogen.BENCH_IDS is sudogen.analysis.BENCH_IDS

    def test_names_are_the_submodules_objects(self):
        assert sudogen.compose is sudogen.sudoku.compose is sudogen.grid.compose
        assert sudogen.sudoku_order is sudogen.sigma.block_order
        assert sudogen.gen_sudoku_rejection is sudogen.analysis.gen_sudoku_rejection

    def test_unknown_attribute(self):
        message = r"^module 'sudogen' has no attribute 'no_such_name'$"
        with pytest.raises(AttributeError, match=message):
            sudogen.no_such_name
