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

from .analysis import (
    BENCH_IDS,
    GENERATOR_IDS,
    BenchPoint,
    BenchReport,
    EvalReport,
    bench_tau,
    chi_square_uniform,
    closed_form_p,
    estimate_p,
    gen_perm_rejection,
    gen_pi_rejection,
    gen_sigma_rejection,
    gen_sudoku_rejection,
)
from .errors import (
    BudgetExhaustedError,
    CompositionError,
    InfeasibleError,
    MatrixParseError,
    SudogenError,
    UnknownSigmaError,
)
from .formats import (
    format_layers,
    format_perm,
    format_pi,
    format_sigma,
    format_sudoku,
    parse_binary_matrix,
    parse_cells,
    parse_layers,
    parse_perm,
    parse_pi,
    perm_json,
    pi_json,
    sigma_json,
    sudoku_json,
)
from .perm import gen_perm_direct, is_permutation
from .pi import (
    check_pi,
    enumerate_pi,
    gen_pi_direct,
    is_pi,
    pi_disjoint,
    pi_order,
)
from .rng import RandomSource, derive_seed, entropy_seed
from .sigma import (
    SigmaMatrix,
    enumerate_sigma,
    is_sigma,
    phi,
    phi_inverse,
    sigma_disjoint,
)
from .sudoku import (
    SIGMA_COUNTS,
    DisjointStack,
    GenStats,
    RestartPolicy,
    compose,
    decompose,
    enumerate_sudoku,
    gen_sudoku,
    is_sudoku,
    iter_sudoku,
    sudoku_order,
)

__version__ = "0.1.0"

__all__ = [
    "BENCH_IDS",
    "GENERATOR_IDS",
    "SIGMA_COUNTS",
    "BenchPoint",
    "BenchReport",
    "BudgetExhaustedError",
    "CompositionError",
    "DisjointStack",
    "EvalReport",
    "GenStats",
    "InfeasibleError",
    "MatrixParseError",
    "RandomSource",
    "RestartPolicy",
    "SigmaMatrix",
    "SudogenError",
    "UnknownSigmaError",
    "bench_tau",
    "check_pi",
    "chi_square_uniform",
    "closed_form_p",
    "compose",
    "decompose",
    "derive_seed",
    "entropy_seed",
    "enumerate_pi",
    "enumerate_sigma",
    "enumerate_sudoku",
    "estimate_p",
    "format_layers",
    "format_perm",
    "format_pi",
    "format_sigma",
    "format_sudoku",
    "gen_perm_direct",
    "gen_perm_rejection",
    "gen_pi_direct",
    "gen_pi_rejection",
    "gen_sigma_rejection",
    "gen_sudoku",
    "gen_sudoku_rejection",
    "is_permutation",
    "is_pi",
    "is_sigma",
    "is_sudoku",
    "iter_sudoku",
    "parse_binary_matrix",
    "parse_cells",
    "parse_layers",
    "parse_perm",
    "parse_pi",
    "perm_json",
    "phi",
    "phi_inverse",
    "pi_disjoint",
    "pi_json",
    "pi_order",
    "sigma_disjoint",
    "sigma_json",
    "sudoku_json",
    "sudoku_order",
    "__version__",
]
