"""Command-line interface: generate, check, enumerate, map, and measure.

Matrices travel through stdin/stdout in the line-oriented text formats
from :mod:`sudogen.formats`, so commands compose into shell pipelines
(e.g. ``gen-pi | map --phi | map --phi-inverse`` is the identity).

Exit codes: 0 success; 1 validation verdict failure (``check`` on an
invalid matrix, or an operation fed a well-formed but invalid one);
2 usage or parse errors; 3 infeasible requests and exhausted budgets.

Every randomized command reports its effective seed: on stderr in text
mode (keeping stdout byte-exact for pipelines) and embedded in JSON
output.  There is no environment-variable seed; seeds are explicit or
drawn from entropy and reported.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each child process pays for what it imports, and without a bytecode
# cache it compiles every sudogen module it imports as well.  So the
# drawing commands live in sudogen.draw, imported only to run one of them;
# perm, pi, sudoku and analysis are imported inside the commands that use
# them; json and csv only by the formats that print them; and the parser
# is the standard library's argparse.
from .errors import (
    BENCH_IDS,
    GENERATOR_IDS,
    BudgetExhaustedError,
    CompositionError,
    InfeasibleError,
    MatrixParseError,
    UnknownSigmaError,
)
from .formats import (
    _echo,
    _read_layers,
    format_layers,
    format_pi,
    format_sigma,
    format_sudoku,
    parse_binary_matrix,
    parse_cells,
    parse_perm,
    parse_pi,
)
from .sigma import SigmaMatrix, is_sigma, phi, phi_inverse


def _is_perm(values: list[int]) -> bool:
    from .perm import is_permutation

    return is_permutation(values)


def _is_pi(rows: list[list[int]]) -> bool:
    # unlike pi.is_pi, a bad shape or entry raises, so check prints why
    from .perm import is_permutation
    from .pi import pi_order

    n = pi_order(rows)
    return all(is_permutation(row, n) for row in rows)


def _is_sudoku(cells: list[list[int]]) -> bool:
    from .grid import is_sudoku

    return is_sudoku(cells)


_CHECKS = {
    "perm": (parse_perm, _is_perm),
    "pi": (parse_pi, _is_pi),
    "sigma": (parse_binary_matrix, is_sigma),
    "sudoku": (parse_cells, _is_sudoku),
}


def check_cmd(args):
    """Validate a matrix read from stdin; exit 0 iff valid."""
    parser, checker = _CHECKS[args.kind]
    value = parser(sys.stdin.read())
    try:
        ok = checker(value)
    except ValueError as exc:
        _echo("invalid")
        _echo(f"reason: {exc}", err=True)
        sys.exit(1)
    _echo("valid" if ok else "invalid")
    sys.exit(0 if ok else 1)


def enumerate_cmd(args):
    """Count (or stream) all Sudoku matrices of order n (n <= 2)."""
    from .sudoku import enumerate_sudoku, iter_sudoku

    if args.stream:
        for i, cells in enumerate(iter_sudoku(args.n)):
            if i:
                _echo()
            _echo(format_sudoku(cells))
    else:
        _echo(str(enumerate_sudoku(args.n)))


def map_cmd(args):
    """Apply the block-structure bijection (or its inverse) to stdin.

    --phi refuses pi matrices of order above 48 with exit 3.
    """
    if args.direction is None:
        args.parser.error("one of --phi / --phi-inverse is required")
    if args.direction == "phi":
        from .pi import check_pi

        rows = parse_pi(sys.stdin.read())
        _refuse_order(check_pi(rows), "sigma")
        _echo(format_sigma(phi(rows)))
    else:
        bits = parse_binary_matrix(sys.stdin.read())
        matrix = SigmaMatrix.from_rows(bits)
        _echo(format_pi(phi_inverse(matrix)))


def decompose_cmd(args):
    """Split a Sudoku matrix on stdin into its value-indicator layers."""
    from .grid import decompose

    cells = parse_cells(sys.stdin.read())
    _echo(format_layers(decompose(cells)))


def compose_cmd(args):
    """Rebuild a Sudoku matrix from blank-line-separated layers on stdin."""
    from .grid import compose

    _echo(format_sudoku(compose(_read_layers(sys.stdin.read()))))


def _int_range(lo: int, hi: int | None = None):
    """An argparse type: a decimal integer in lo..hi (no upper bound if None)."""
    bounds = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"

    def integer(text: str) -> int:
        value = int(text)  # argparse turns a ValueError into a usage error
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bounds}")
        return value

    return integer


def _sizes(value: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    return sizes


_POSITIVE = _int_range(1)
_SEED = _int_range(0, 2**64 - 1)


# appended to the help of the options whose default the help shows
_DEFAULT = "[default: %(default)s]"


def _algorithm(choices: list[str], text: str | None = None):
    help = f"{text} {_DEFAULT}" if text else _DEFAULT
    return "--algorithm", dict(choices=choices, default=choices[0], help=help)


def _format(*choices: str):
    return "--format", dict(dest="fmt", choices=choices, default="text")


_N = "--n", dict(required=True, type=_POSITIVE, help="Order.")
_SEED_OPTION = "--seed", dict(type=_SEED, default=None, help="RNG seed.")
_MAX_ITERATIONS = "--max-iterations", dict(
    type=_POSITIVE,
    default=None,
    help="Rejection only. Attempts allowed before giving up with exit 3 "
    "[default: no limit].",
)
_TEXT_OR_JSON = _format("text", "json")
_DIRECT_OR_REJECTION = ["direct", "rejection"]
# the options of gen-perm and gen-pi
_GEN_OPTIONS = [_N, _SEED_OPTION, _algorithm(_DIRECT_OR_REJECTION), _MAX_ITERATIONS, _TEXT_OR_JSON]

# Each command: its function, whose docstring is its help, and its options
# as (name, add_argument keywords) pairs.  A drawing command's function is
# named by a string, its name in sudogen.draw.
_COMMANDS = {
    "gen-perm": ("gen_perm_cmd", _GEN_OPTIONS),
    "gen-pi": ("gen_pi_cmd", _GEN_OPTIONS),
    "gen-sigma": (
        "gen_sigma_cmd",
        [
            _N,
            _SEED_OPTION,
            _algorithm(
                _DIRECT_OR_REJECTION,
                "direct = map a random pi matrix through the block bijection; "
                "rejection = draw raw bits until they form a valid matrix (n <= 2).",
            ),
            _MAX_ITERATIONS,
            _TEXT_OR_JSON,
        ],
    ),
    "gen-sudoku": (
        "gen_sudoku_cmd",
        [
            _N,
            _SEED_OPTION,
            _algorithm(
                ["layered", "rejection"],
                "layered = stack disjoint random layers (n <= 4); rejection = "
                "draw a complete layer tuple per attempt (n <= 2).",
            ),
            (
                "--policy",
                dict(
                    dest="policy_mode",
                    choices=["restart", "backtrack"],
                    default="restart",
                    help="Layered only. When no layer fits the stack: discard the whole "
                    "stack, or drop its last layer and never pick that layer there "
                    "again. " + _DEFAULT,
                ),
            ),
            (
                "--max-restarts",
                dict(
                    type=_int_range(0),
                    default=None,
                    help="Layered only. Full restarts allowed under --policy restart "
                    "before giving up with exit 3 [default: no limit].",
                ),
            ),
            _MAX_ITERATIONS,
            (
                "--parallel",
                dict(
                    dest="workers",
                    type=_POSITIVE,
                    default=1,
                    help="Layered only. Independent attempts with derived seeds, run "
                    "one after another; the first within its restart budget wins. "
                    + _DEFAULT,
                ),
            ),
            ("--stats", dict(dest="want_stats", action="store_true", help="Emit run stats as JSON.")),
            ("--pretty", dict(action="store_true", help="Visually separate blocks.")),
            _TEXT_OR_JSON,
        ],
    ),
    "check": (
        check_cmd,
        [
            (
                "--kind",
                dict(
                    required=True,
                    choices=list(_CHECKS),
                    help="Which membership check to run on stdin.",
                ),
            ),
        ],
    ),
    "enumerate": (
        enumerate_cmd,
        [
            _N,
            (
                "--list",
                dict(
                    dest="stream",
                    action="store_true",
                    help="Stream every matrix, not just the count.",
                ),
            ),
        ],
    ),
    # Both flags set one value; the last one given wins.
    "map": (
        map_cmd,
        [
            (
                "--phi",
                dict(dest="direction", action="store_const", const="phi",
                     help="pi matrix -> block matrix."),
            ),
            (
                "--phi-inverse",
                dict(dest="direction", action="store_const", const="phi-inverse",
                     help="block matrix -> pi matrix."),
            ),
        ],
    ),
    "decompose": (decompose_cmd, []),
    "compose": (compose_cmd, []),
    "estimate": (
        "estimate_cmd",
        [
            ("--generator", dict(dest="generator_id", required=True, choices=GENERATOR_IDS)),
            _N,
            ("--samples", dict(type=_int_range(100), default=10_000, help=_DEFAULT)),
            _SEED_OPTION,
            _format("text", "json", "csv"),
        ],
    ),
    "bench": (
        "bench_cmd",
        [
            ("--generator", dict(dest="generator_id", required=True, choices=BENCH_IDS)),
            (
                "--sizes",
                dict(
                    required=True,
                    type=_sizes,
                    help="Comma-separated orders, e.g. 64,128,256,512.",
                ),
            ),
            ("--repetitions", dict(type=_POSITIVE, default=30, help=_DEFAULT)),
            _SEED_OPTION,
            _format("text", "json", "csv"),
        ],
    ),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command named ``only`` alone.

    Every parser has --help but no -h, and option names cannot be
    abbreviated.
    """
    parser = argparse.ArgumentParser(
        prog="sudogen",
        description="Random permutations, pi matrices, block permutation "
        "matrices, and Sudoku matrices, with acceptance-rate and timing analysis.",
        add_help=False,
        allow_abbrev=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        if only not in (None, name):
            continue
        if isinstance(fn, str):
            from . import draw

            fn = getattr(draw, fn)
        sub = commands.add_parser(
            name,
            # python -OO strips docstrings, and with them this help text
            help=(fn.__doc__ or "").split("\n", 1)[0],
            description=fn.__doc__,
            add_help=False,
            allow_abbrev=False,
        )
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        actions = {option: sub.add_argument(option, **keywords) for option, keywords in options}
        sub.set_defaults(run=fn, parser=sub, command=name, actions=actions)
    return parser


# An option the run does not read is a usage error, not silently dropped.
# Each rule: an option, the one value of it under which the options after
# it are read, and those options; checked in this order for every command
# that has them.  An option is given when its value is not its default.
_UNREAD_RULES = [
    ("--algorithm", "rejection", ["--max-iterations"]),
    ("--algorithm", "layered", ["--policy", "--max-restarts", "--parallel"]),
    ("--policy", "restart", ["--max-restarts"]),
    ("--format", "text", ["--pretty"]),
]

# The largest order of each kind of matrix a command builds, what one of
# order n is called, and its entries as text and as a function of n.  A
# permutation is n draws decoded in O(n^2) steps and a pi matrix 2n of them,
# O(n^3); a block permutation matrix is an n^4-bit mask and n^4 entries of
# text.  A gen-perm process took about 0.9 s and 16 MB at order 8192 (3.1 s
# at 16384), gen-pi 1.1 s and 21 MB at 384 (2.8 s and 28 MB at 512), and
# gen-sigma or map --phi 0.5 s and 51 MB at 48 (2.6 s and 161 MB at 64;
# 2 CPUs, Python 3.11.7).
_BOUNDS = {
    "perm": (8192, "a permutation", "n", lambda n: n),
    "pi": (384, "a pi matrix", "2n^2", lambda n: 2 * n * n),
    "sigma": (48, "a block permutation matrix", "n^4", lambda n: n**4),
}
# The kind each command builds: by its name, or for estimate and bench by
# their generator id up to its first "-"
_KINDS = {
    "gen-perm": "perm", "gen-pi": "pi", "gen-sigma": "sigma",
    "perm": "perm", "pi": "pi", "sigma": "sigma", "sudoku": "sigma",
}


def _refuse_order(n: int, kind: str) -> None:
    bound, matrix, entries, count = _BOUNDS[kind]
    if n > bound:
        raise InfeasibleError(
            f"{matrix} of order {n} has {entries} = {count(n)} entries, "
            f"more than the {count(bound)} of order {bound}, "
            f"the largest this command builds"
        )


def _fail(exc: Exception, code: int):
    _echo(f"error: {exc}", err=True)
    sys.exit(code)


def main(argv: list[str] | None = None):
    """Run one command; always ends in SystemExit with the exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  Usage errors exit 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # Building every command's options costs a few ms per process, so a
    # command line that names a command gets that command's parser alone.
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args, extra = _build_parser(only).parse_known_args(argv)
    if extra:
        # reported with the command's usage line, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    actions = args.actions
    values = {option: getattr(args, action.dest) for option, action in actions.items()}
    for choice, reader, options in _UNREAD_RULES:
        if values.get(choice, reader) == reader:
            continue
        for option in options:
            if option in values and values[option] != actions[option].default:
                args.parser.error(f"{option} does not apply to {choice} {values[choice]}")
    kind = _KINDS.get(values.get("--generator", "").split("-")[0] or args.command)
    try:
        # after the usage errors and before anything is drawn or built
        if kind:
            _refuse_order(max(values.get("--sizes") or [values["--n"]]), kind)
        args.run(args)
    except MatrixParseError as exc:
        _fail(exc, 2)
    except (InfeasibleError, BudgetExhaustedError, UnknownSigmaError) as exc:
        _fail(exc, 3)
    except (CompositionError, ValueError) as exc:
        _fail(exc, 1)
    except BrokenPipeError:
        # The reader of stdout went away: exit 1 with nothing on stderr.
        # What is still buffered goes to /dev/null, so the flush at exit
        # does not fail again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
