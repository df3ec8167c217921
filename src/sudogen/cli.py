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
import io
import os
import sys

# Each child process pays for what it imports, so sudogen.sudoku,
# sudogen.analysis, csv and json are imported inside the commands that use
# them, and the parser is the standard library's argparse.
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
    _read_layers,
    format_layers,
    format_perm,
    format_pi,
    format_sigma,
    format_sudoku,
    parse_binary_matrix,
    parse_cells,
    parse_perm,
    parse_pi,
    perm_json,
    pi_json,
    sigma_json,
    sudoku_json,
)
from .perm import gen_perm_direct, is_permutation
from .pi import check_pi, gen_pi_direct, pi_order
from .rng import RandomSource, derive_seed, entropy_seed
from .sigma import SigmaMatrix, is_sigma, phi, phi_inverse


def _echo(text: str = "", err: bool = False, nl: bool = True) -> None:
    # One write and a flush per call, so stdout and stderr lines keep their
    # order when both go to one file.
    stream = sys.stderr if err else sys.stdout
    stream.write(text + "\n" if nl else text)
    stream.flush()


def _emit(fmt: str, seed: int, value, to_text, to_json, iterations=None, stats=None):
    # Only the printed format is built.  A rejection generator's attempt
    # count and gen-sudoku's run stats go into the JSON payload, or on
    # stderr ahead of the matrix in text mode.
    if fmt == "json":
        payload = to_json(value, seed)
        if iterations is not None:
            payload["iterations"] = iterations
        if stats is not None:
            payload["stats"] = stats
        _echo_json(payload)
        return
    if stats is not None:
        _echo_json(stats, err=True)
    if iterations is not None:
        _echo(f"iterations: {iterations}", err=True)
    _echo(to_text(value))
    _echo(f"seed: {seed}", err=True)


def _echo_json(payload: dict, err: bool = False) -> None:
    import json

    _echo(json.dumps(payload, indent=2), err=err)


def _generate(args, direct, rejection: str, to_text, to_json) -> None:
    # The body of gen-perm, gen-pi and gen-sigma: direct(n, source), or the
    # rejection loop of sudogen.analysis named ``rejection``.
    source = RandomSource(args.seed)
    if args.algorithm == "direct":
        value, iterations = direct(args.n, source), None
    else:
        from . import analysis

        value, iterations = getattr(analysis, rejection)(args.n, source, args.max_iterations)
    _emit(args.fmt, source.seed, value, to_text, to_json, iterations)


def gen_perm_cmd(args):
    """Generate one random permutation of 1..n."""
    _generate(args, gen_perm_direct, "gen_perm_rejection", format_perm, perm_json)


def gen_pi_cmd(args):
    """Generate a random 2n x n matrix whose rows are all permutations."""
    _generate(args, gen_pi_direct, "gen_pi_rejection", format_pi, pi_json)


# Largest order gen-sigma and map --phi build: a block permutation matrix
# of order n is an n^4-bit mask and n^4 entries of text, and at order 48
# (5.3 million entries) a gen-sigma or map --phi process took about 0.5 s
# and 51 MB, against 2.6 s and 161 MB at order 64 (2 CPUs, Python 3.11.7).
_MAX_SIGMA_ORDER = 48


def _refuse_sigma_order(n: int) -> None:
    if n > _MAX_SIGMA_ORDER:
        raise InfeasibleError(
            f"a block permutation matrix of order {n} has n^4 = {n**4} entries, "
            f"more than the {_MAX_SIGMA_ORDER**4} of order {_MAX_SIGMA_ORDER}, "
            f"the largest this command builds"
        )


def gen_sigma_cmd(args):
    """Generate a random block permutation matrix of side n^2.

    Orders above 48 are refused with exit 3.
    """
    _refuse_sigma_order(args.n)
    _generate(
        args,
        lambda n, source: phi(gen_pi_direct(n, source)),
        "gen_sigma_rejection",
        format_sigma,
        sigma_json,
    )


def gen_sudoku_cmd(args):
    """Generate one random n^2 x n^2 Sudoku matrix.

    The layered algorithm draws layer 1 from a random pi matrix, picks
    each later layer uniformly among the layers that fit the stack and
    forces the last one.  Orders above 4 are refused with exit 3.
    """
    n, seed, attempts = args.n, args.seed, args.workers
    # an option the run does not read is a usage error, not silently
    # dropped; keyed by the choice that leaves it unread
    unread = {
        "--algorithm rejection": {
            "--policy": args.policy_mode != "restart",
            "--max-restarts": args.max_restarts is not None,
            "--parallel": attempts != 1,
        },
        "--algorithm layered": {"--max-iterations": args.max_iterations is not None},
        "--policy backtrack": {"--max-restarts": args.max_restarts is not None},
    }
    for choice in (f"--algorithm {args.algorithm}", f"--policy {args.policy_mode}"):
        for option, given in unread.get(choice, {}).items():
            if given:
                args.parser.error(f"{option} does not apply to {choice}")
    if args.algorithm == "rejection":
        from .analysis import gen_sudoku_rejection

        source = RandomSource(seed)
        cells, iterations = gen_sudoku_rejection(n, source, args.max_iterations)
        root_seed = source.seed
        stats_dict = {"iterations": iterations, "seed": root_seed}
    else:
        from .sudoku import gen_sudoku

        policy, max_restarts = args.policy_mode, args.max_restarts
        root_seed = seed if seed is not None else entropy_seed()
        # --parallel K runs attempts 0, 1, ... one after another on seeds
        # derived from the root, and the first within its restart budget
        # wins; --parallel 1 is the one attempt on the root seed itself.
        for index in range(attempts):
            attempt_seed = root_seed if attempts == 1 else derive_seed(root_seed, index)
            try:
                cells, stats = gen_sudoku(
                    n, RandomSource(attempt_seed), policy=policy, max_restarts=max_restarts
                )
                break
            except BudgetExhaustedError:
                if attempts == 1:
                    raise
        else:
            raise BudgetExhaustedError(
                f"all {attempts} parallel attempts exhausted their restart budgets"
            )
        stats_dict = stats.to_dict()
        if attempts > 1:
            stats_dict.update(attempt_index=index, root_seed=root_seed)

    _emit(
        args.fmt,
        root_seed,
        cells,
        lambda cells: format_sudoku(cells, pretty=args.pretty),
        sudoku_json,
        stats=stats_dict if args.want_stats else None,
    )


def _is_pi(rows: list[list[int]]) -> bool:
    # unlike pi.is_pi, a bad shape or entry raises, so check prints why
    n = pi_order(rows)
    return all(is_permutation(row, n) for row in rows)


def _is_sudoku(cells: list[list[int]]) -> bool:
    from .sudoku import is_sudoku

    return is_sudoku(cells)


_CHECKS = {
    "perm": (parse_perm, is_permutation),
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
        rows = parse_pi(sys.stdin.read())
        _refuse_sigma_order(check_pi(rows))
        _echo(format_sigma(phi(rows)))
    else:
        bits = parse_binary_matrix(sys.stdin.read())
        matrix = SigmaMatrix.from_rows(bits)
        _echo(format_pi(phi_inverse(matrix)))


def decompose_cmd(args):
    """Split a Sudoku matrix on stdin into its value-indicator layers."""
    from .sudoku import decompose

    cells = parse_cells(sys.stdin.read())
    _echo(format_layers(decompose(cells)))


def compose_cmd(args):
    """Rebuild a Sudoku matrix from blank-line-separated layers on stdin."""
    from .sudoku import compose

    _echo(format_sudoku(compose(_read_layers(sys.stdin.read()))))


def _report(fmt: str, data: dict, header: list[str], rows: list[list], lines: list[str]):
    # estimate and bench: the report's dict as JSON, its header and rows as
    # CSV, or its text lines
    if fmt == "json":
        _echo_json(data)
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        _echo(buf.getvalue(), nl=False)
    else:
        _echo("\n".join(lines))


def _fraction_text(d: dict) -> str:
    return f"{d['float']:.6g} ({d['numerator']}/{d['denominator']})"


def estimate_cmd(args):
    """Monte Carlo estimate of a generator's acceptance probability."""
    from .analysis import estimate_p

    source = RandomSource(args.seed)
    data = estimate_p(args.generator_id, args.n, args.samples, source).to_dict()
    empirical, theoretical = data["empirical_acceptance"], data["theoretical_acceptance"]
    iteration_s, check_s = data["mean_iteration_time_s"], data["mean_check_time_s"]
    # (CSV column, text label, CSV value, text value)
    fields = [
        ("generator_id", "generator", data["generator_id"], data["generator_id"]),
        ("n", "n", data["n"], str(data["n"])),
        ("samples", "samples", data["samples"], str(data["samples"])),
        ("successes", "successes", data["successes"], str(data["successes"])),
        ("empirical_p", "empirical", empirical["float"], _fraction_text(empirical)),
        ("theoretical_p", "theoretical", theoretical["float"], _fraction_text(theoretical)),
        ("std_error", "std-error", data["std_error"], f"{data['std_error']:.3e}"),
        ("mean_iteration_time_s", "mean-iteration-time", iteration_s, f"{iteration_s:.3e} s"),
        ("mean_check_time_s", "mean-check-time", check_s, f"{check_s:.3e} s"),
        ("seed", "seed", data["seed"], str(data["seed"])),
    ]
    width = max(len(label) for _, label, _, _ in fields)
    _report(
        args.fmt,
        data,
        [column for column, _, _, _ in fields],
        [[value for _, _, value, _ in fields]],
        [f"{label.ljust(width)}  {text}" for _, label, _, text in fields],
    )


def bench_cmd(args):
    """Time one attempt per size; report medians and the log-log slope."""
    from .analysis import bench_tau

    source = RandomSource(args.seed)
    data = bench_tau(args.generator_id, args.sizes, args.repetitions, source).to_dict()
    points, slope, stderr = data["points"], data["slope"], data["slope_stderr"]
    lines = [
        f"generator: {data['generator_id']}   repetitions: "
        f"{data['repetitions']}   seed: {data['seed']}",
        f"{'n':>8}  {'median_s':>12}  {'mad_s':>12}",
        *(f"{p['n']:>8}  {p['median_s']:>12.4e}  {p['mad_s']:>12.4e}" for p in points),
    ]
    if slope is not None:
        lines.append(f"slope: {slope:.3f}")
        if stderr is not None:
            lo, hi = data["slope_ci95"]
            lines[-1] += f"   stderr: {stderr:.3f}   ci95: [{lo:.3f}, {hi:.3f}]"
    _report(
        args.fmt,
        data,
        ["generator_id", "n", "median_s", "mad_s", "repetitions", "slope", "slope_stderr", "seed"],
        [
            [data["generator_id"], p["n"], p["median_s"], p["mad_s"], data["repetitions"],
             slope, stderr, data["seed"]]
            for p in points
        ],
        lines,
    )


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

# Each command: its function, whose docstring is its help, and its options
# as (name, add_argument keywords) pairs.
_COMMANDS = {
    "gen-perm": (
        gen_perm_cmd,
        [
            _N,
            _SEED_OPTION,
            _algorithm(_DIRECT_OR_REJECTION),
            _MAX_ITERATIONS,
            _TEXT_OR_JSON,
        ],
    ),
    "gen-pi": (
        gen_pi_cmd,
        [_N, _SEED_OPTION, _algorithm(_DIRECT_OR_REJECTION), _MAX_ITERATIONS, _TEXT_OR_JSON],
    ),
    "gen-sigma": (
        gen_sigma_cmd,
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
        gen_sudoku_cmd,
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
        estimate_cmd,
        [
            ("--generator", dict(dest="generator_id", required=True, choices=GENERATOR_IDS)),
            _N,
            ("--samples", dict(type=_int_range(100), default=10_000, help=_DEFAULT)),
            _SEED_OPTION,
            _format("text", "json", "csv"),
        ],
    ),
    "bench": (
        bench_cmd,
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
        sub = commands.add_parser(
            name,
            help=fn.__doc__.split("\n", 1)[0],
            description=fn.__doc__,
            add_help=False,
            allow_abbrev=False,
        )
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        for option, keywords in options:
            sub.add_argument(option, **keywords)
        sub.set_defaults(run=fn, parser=sub)
    return parser


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
    # gen-perm, gen-pi and gen-sigma: refused before any check or draw
    if vars(args).get("algorithm") == "direct" and args.max_iterations is not None:
        args.parser.error("--max-iterations does not apply to --algorithm direct")
    try:
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
