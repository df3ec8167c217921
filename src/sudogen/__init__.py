"""Random generation of permutations, pi matrices, block permutation
matrices, and Sudoku matrices, with rejection-rate and timing analysis.

The package follows one recipe throughout: a candidate structure is
drawn from a simple uniform space and kept iff a membership check
passes (Las Vegas rejection sampling), next to direct constructions
that never reject.  A constructive bijection links 2n x n matrices of
row permutations ("pi matrices") to n^2 x n^2 block permutation
matrices ("sigma matrices"), and stacks of pairwise-disjoint sigma
matrices compose into Sudoku matrices.
"""

import importlib

# Where each public name lives.  Nothing is imported until a name (or a
# submodule) is first read, so ``import sudogen`` and the CLI load only
# the modules they use.
_EXPORTS = {
    "analysis": (
        "BenchPoint",
        "BenchReport",
        "EvalReport",
        "bench_tau",
        "chi_square_uniform",
        "closed_form_p",
        "estimate_p",
        "gen_perm_rejection",
        "gen_pi_rejection",
        "gen_sigma_rejection",
        "gen_sudoku_rejection",
    ),
    "errors": (
        "BENCH_IDS",
        "GENERATOR_IDS",
        "BudgetExhaustedError",
        "CompositionError",
        "InfeasibleError",
        "MatrixParseError",
        "SudogenError",
        "UnknownSigmaError",
    ),
    "formats": (
        "format_layers",
        "format_perm",
        "format_pi",
        "format_sigma",
        "format_sudoku",
        "parse_binary_matrix",
        "parse_cells",
        "parse_layers",
        "parse_perm",
        "parse_pi",
        "perm_json",
        "pi_json",
        "sigma_json",
        "sudoku_json",
    ),
    "perm": ("gen_perm_direct", "is_permutation"),
    "pi": (
        "check_pi",
        "enumerate_pi",
        "gen_pi_direct",
        "is_pi",
        "pi_disjoint",
        "pi_order",
    ),
    "rng": ("RandomSource", "derive_seed", "entropy_seed"),
    "sigma": (
        "SigmaMatrix",
        "enumerate_sigma",
        "is_sigma",
        "phi",
        "phi_inverse",
        "sigma_disjoint",
    ),
    "sudoku": (
        "SIGMA_COUNTS",
        "DisjointStack",
        "GenStats",
        "compose",
        "decompose",
        "enumerate_sudoku",
        "gen_sudoku",
        "is_sudoku",
        "iter_sudoku",
        "sudoku_order",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    # PEP 562: import a public name's submodule, or a submodule itself, on
    # first access; the value is cached so later reads skip this hook.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_ORIGIN})
