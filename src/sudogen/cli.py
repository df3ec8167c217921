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

import functools
import io
import json
import sys

import click

# Each child process pays for what it imports, so sudogen.analysis, the
# process pool and csv are imported inside the commands that use them.
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
from .pi import gen_pi_direct, is_pi
from .rng import RandomSource, derive_seed, entropy_seed
from .sigma import SigmaMatrix, is_sigma, phi, phi_inverse
from .sudoku import (
    RestartPolicy,
    compose as compose_layers,
    decompose as decompose_cells,
    enumerate_sudoku,
    gen_sudoku,
    is_sudoku,
    iter_sudoku,
)

_SEED_RANGE = click.IntRange(0, 2**64 - 1)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MatrixParseError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (InfeasibleError, BudgetExhaustedError, UnknownSigmaError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (CompositionError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _emit(
    text_payload: str,
    json_payload: dict,
    fmt: str,
    seed: int,
    iterations: int | None = None,
):
    # A rejection generator's attempt count goes into the JSON payload, or
    # on stderr ahead of the seed in text mode.
    if iterations is not None:
        json_payload["iterations"] = iterations
    if fmt == "json":
        click.echo(json.dumps(json_payload, indent=2))
    else:
        if iterations is not None:
            click.echo(f"iterations: {iterations}", err=True)
        click.echo(text_payload)
        click.echo(f"seed: {seed}", err=True)


def _echo_csv(header: list[str], rows: list[list]) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)


def _read_stdin() -> str:
    return click.get_text_stream("stdin").read()


@click.group()
def main():
    """Random permutations, pi matrices, block permutation matrices,
    and Sudoku matrices, with acceptance-rate and timing analysis."""


@main.command("gen-perm")
@click.option("--n", required=True, type=click.IntRange(min=1), help="Order.")
@click.option("--seed", type=_SEED_RANGE, default=None, help="RNG seed.")
@click.option(
    "--algorithm",
    type=click.Choice(["direct", "rejection"]),
    default="direct",
    show_default=True,
)
@click.option(
    "--variant",
    type=click.Choice(["shift", "swap"]),
    default="shift",
    show_default=True,
    help="Deletion strategy of the direct algorithm.",
)
@click.option("--max-iterations", type=click.IntRange(min=1), default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text"
)
@_guarded
def gen_perm_cmd(n, seed, algorithm, variant, max_iterations, fmt):
    """Generate one random permutation of 1..n."""
    source = RandomSource(seed)
    if algorithm == "direct":
        values, iterations = gen_perm_direct(n, source, variant=variant), None
    else:
        from .analysis import gen_perm_rejection

        values, iterations = gen_perm_rejection(n, source, max_iterations)
    _emit(format_perm(values), perm_json(values, source.seed), fmt, source.seed, iterations)


@main.command("gen-pi")
@click.option("--n", required=True, type=click.IntRange(min=1))
@click.option("--seed", type=_SEED_RANGE, default=None)
@click.option(
    "--algorithm",
    type=click.Choice(["direct", "rejection"]),
    default="direct",
    show_default=True,
)
@click.option("--max-iterations", type=click.IntRange(min=1), default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text"
)
@_guarded
def gen_pi_cmd(n, seed, algorithm, max_iterations, fmt):
    """Generate a random 2n x n matrix whose rows are all permutations."""
    source = RandomSource(seed)
    if algorithm == "direct":
        rows, iterations = gen_pi_direct(n, source), None
    else:
        from .analysis import gen_pi_rejection

        rows, iterations = gen_pi_rejection(n, source, max_iterations)
    _emit(format_pi(rows), pi_json(rows, source.seed), fmt, source.seed, iterations)


@main.command("gen-sigma")
@click.option("--n", required=True, type=click.IntRange(min=1))
@click.option("--seed", type=_SEED_RANGE, default=None)
@click.option(
    "--algorithm",
    type=click.Choice(["direct", "rejection"]),
    default="direct",
    show_default=True,
    help="direct = map a random pi matrix through the block bijection; "
    "rejection = draw raw bits until they form a valid matrix (n <= 2).",
)
@click.option("--max-iterations", type=click.IntRange(min=1), default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text"
)
@_guarded
def gen_sigma_cmd(n, seed, algorithm, max_iterations, fmt):
    """Generate a random block permutation matrix of side n^2."""
    source = RandomSource(seed)
    if algorithm == "direct":
        matrix, iterations = phi(gen_pi_direct(n, source)), None
    else:
        from .analysis import gen_sigma_rejection

        matrix, iterations = gen_sigma_rejection(n, source, max_iterations)
    _emit(format_sigma(matrix), sigma_json(matrix, source.seed), fmt, source.seed, iterations)


def _parallel_attempt(args):
    n, seed, mode, max_restarts = args
    source = RandomSource(seed)
    policy = RestartPolicy(mode=mode, max_restarts=max_restarts)
    try:
        cells, stats = gen_sudoku(n, source, policy)
    except BudgetExhaustedError:
        return None
    return cells, stats.to_dict()


@main.command("gen-sudoku")
@click.option("--n", required=True, type=click.IntRange(min=1))
@click.option("--seed", type=_SEED_RANGE, default=None)
@click.option(
    "--algorithm",
    type=click.Choice(["layered", "rejection"]),
    default="layered",
    show_default=True,
    help="layered = stack disjoint random layers (n <= 4); rejection = "
    "draw a complete layer tuple per attempt (n <= 2).",
)
@click.option(
    "--policy",
    "policy_mode",
    type=click.Choice(["restart", "backtrack"]),
    default="restart",
    show_default=True,
    help="When no layer fits the stack: discard the whole stack, or drop "
    "its last layer and never pick that layer there again.",
)
@click.option(
    "--max-restarts",
    type=click.IntRange(min=0),
    default=None,
    help="Full restarts allowed before giving up with exit 3 [default: no limit].",
)
@click.option("--max-iterations", type=click.IntRange(min=1), default=None)
@click.option(
    "--parallel",
    "workers",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    help="Independent attempts with derived seeds; lowest successful "
    "attempt index wins.",
)
@click.option("--stats", "want_stats", is_flag=True, help="Emit run stats as JSON.")
@click.option("--pretty", is_flag=True, help="Visually separate blocks.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text"
)
@_guarded
def gen_sudoku_cmd(
    n,
    seed,
    algorithm,
    policy_mode,
    max_restarts,
    max_iterations,
    workers,
    want_stats,
    pretty,
    fmt,
):
    """Generate one random n^2 x n^2 Sudoku matrix.

    The layered algorithm draws layer 1 from a random pi matrix, picks
    each later layer uniformly among the layers that fit the stack and
    forces the last one.  Orders above 4 are refused with exit 3.
    """
    stats_dict = None
    if algorithm == "rejection":
        from .analysis import gen_sudoku_rejection

        source = RandomSource(seed)
        cells, iterations = gen_sudoku_rejection(n, source, max_iterations)
        root_seed = source.seed
        stats_dict = {"iterations": iterations, "seed": root_seed}
    elif workers == 1:
        source = RandomSource(seed)
        policy = RestartPolicy(mode=policy_mode, max_restarts=max_restarts)
        cells, stats = gen_sudoku(n, source, policy)
        root_seed = source.seed
        stats_dict = stats.to_dict()
    else:
        from concurrent.futures import ProcessPoolExecutor

        root_seed = seed if seed is not None else entropy_seed()
        jobs = [
            (n, derive_seed(root_seed, i), policy_mode, max_restarts)
            for i in range(workers)
        ]
        winner = None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_parallel_attempt, job) for job in jobs]
            for index, future in enumerate(futures):
                outcome = future.result()
                if outcome is not None:
                    winner = (index, outcome)
                    for later in futures[index + 1 :]:
                        later.cancel()
                    break
        if winner is None:
            raise BudgetExhaustedError(
                f"all {workers} parallel attempts exhausted their restart budgets"
            )
        index, (cells, stats_dict) = winner
        stats_dict["attempt_index"] = index
        stats_dict["root_seed"] = root_seed

    payload = sudoku_json(cells, root_seed)
    if want_stats:
        payload["stats"] = stats_dict
        if fmt == "text":
            click.echo(json.dumps(stats_dict, indent=2), err=True)
    _emit(format_sudoku(cells, pretty=pretty), payload, fmt, root_seed)


_CHECKS = {
    "perm": (parse_perm, is_permutation),
    "pi": (parse_pi, is_pi),
    "sigma": (parse_binary_matrix, is_sigma),
    "sudoku": (parse_cells, is_sudoku),
}


@main.command("check")
@click.option(
    "--kind",
    required=True,
    type=click.Choice(["perm", "pi", "sigma", "sudoku"]),
    help="Which membership check to run on stdin.",
)
@_guarded
def check_cmd(kind):
    """Validate a matrix read from stdin; exit 0 iff valid."""
    parser, checker = _CHECKS[kind]
    value = parser(_read_stdin())
    try:
        ok = checker(value)
        reason = None
    except ValueError as exc:
        ok = False
        reason = str(exc)
    click.echo("valid" if ok else "invalid")
    if reason:
        click.echo(f"reason: {reason}", err=True)
    sys.exit(0 if ok else 1)


@main.command("enumerate")
@click.option("--n", required=True, type=click.IntRange(min=1))
@click.option(
    "--list", "stream", is_flag=True, help="Stream every matrix, not just the count."
)
@_guarded
def enumerate_cmd(n, stream):
    """Count (or stream) all Sudoku matrices of order n (n <= 2)."""
    if stream:
        first = True
        for cells in iter_sudoku(n):
            if not first:
                click.echo()
            click.echo(format_sudoku(cells))
            first = False
    else:
        click.echo(str(enumerate_sudoku(n)))


@main.command("map")
@click.option("--phi", "direction", flag_value="phi", help="pi matrix -> block matrix.")
@click.option(
    "--phi-inverse",
    "direction",
    flag_value="phi-inverse",
    help="block matrix -> pi matrix.",
)
@_guarded
def map_cmd(direction):
    """Apply the block-structure bijection (or its inverse) to stdin."""
    if direction is None:
        raise click.UsageError("one of --phi / --phi-inverse is required")
    if direction == "phi":
        rows = parse_pi(_read_stdin())
        click.echo(format_sigma(phi(rows)))
    else:
        bits = parse_binary_matrix(_read_stdin())
        matrix = SigmaMatrix.from_rows(bits)
        click.echo(format_pi(phi_inverse(matrix)))


@main.command("decompose")
@_guarded
def decompose_cmd():
    """Split a Sudoku matrix on stdin into its value-indicator layers."""
    cells = parse_cells(_read_stdin())
    click.echo(format_layers(decompose_cells(cells)))


@main.command("compose")
@_guarded
def compose_cmd():
    """Rebuild a Sudoku matrix from blank-line-separated layers on stdin."""
    blocks = parse_layers(_read_stdin())
    layers = [SigmaMatrix.from_rows(b) for b in blocks]
    click.echo(format_sudoku(compose_layers(layers)))


def _fraction_text(d: dict) -> str:
    return f"{d['float']:.6g} ({d['numerator']}/{d['denominator']})"


@main.command("estimate")
@click.option(
    "--generator",
    "generator_id",
    required=True,
    type=click.Choice(list(GENERATOR_IDS)),
)
@click.option("--n", required=True, type=click.IntRange(min=1))
@click.option(
    "--samples",
    type=click.IntRange(min=100),
    default=10_000,
    show_default=True,
)
@click.option("--seed", type=_SEED_RANGE, default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)
@_guarded
def estimate_cmd(generator_id, n, samples, seed, fmt):
    """Monte Carlo estimate of a generator's acceptance probability."""
    from .analysis import estimate_p

    source = RandomSource(seed)
    report = estimate_p(generator_id, n, samples, source)
    data = report.to_dict()
    if fmt == "json":
        click.echo(json.dumps(data, indent=2))
        return
    if fmt == "csv":
        _echo_csv(
            [
                "generator_id",
                "n",
                "samples",
                "successes",
                "empirical_p",
                "theoretical_p",
                "std_error",
                "mean_iteration_time_s",
                "mean_check_time_s",
                "seed",
            ],
            [
                [
                    data["generator_id"],
                    data["n"],
                    data["samples"],
                    data["successes"],
                    data["empirical_acceptance"]["float"],
                    data["theoretical_acceptance"]["float"],
                    data["std_error"],
                    data["mean_iteration_time_s"],
                    data["mean_check_time_s"],
                    data["seed"],
                ]
            ],
        )
        return
    rows = [
        ("generator", data["generator_id"]),
        ("n", str(data["n"])),
        ("samples", str(data["samples"])),
        ("successes", str(data["successes"])),
        ("empirical", _fraction_text(data["empirical_acceptance"])),
        ("theoretical", _fraction_text(data["theoretical_acceptance"])),
        ("std-error", f"{data['std_error']:.3e}"),
        ("mean-iteration-time", f"{data['mean_iteration_time_s']:.3e} s"),
        ("mean-check-time", f"{data['mean_check_time_s']:.3e} s"),
        ("seed", str(data["seed"])),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        click.echo(f"{key.ljust(width)}  {value}")


def _parse_sizes(_ctx, _param, value: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter("expected comma-separated integers")
    if not sizes or any(s < 1 for s in sizes):
        raise click.BadParameter("sizes must be positive integers")
    return sizes


@main.command("bench")
@click.option(
    "--generator",
    "generator_id",
    required=True,
    type=click.Choice(list(BENCH_IDS)),
)
@click.option(
    "--sizes",
    required=True,
    callback=_parse_sizes,
    help="Comma-separated orders, e.g. 64,128,256,512.",
)
@click.option(
    "--repetitions", type=click.IntRange(min=1), default=30, show_default=True
)
@click.option("--seed", type=_SEED_RANGE, default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)
@_guarded
def bench_cmd(generator_id, sizes, repetitions, seed, fmt):
    """Time one attempt per size; report medians and the log-log slope."""
    from .analysis import bench_tau

    source = RandomSource(seed)
    report = bench_tau(generator_id, sizes, repetitions, source)
    data = report.to_dict()
    if fmt == "json":
        click.echo(json.dumps(data, indent=2))
        return
    if fmt == "csv":
        _echo_csv(
            [
                "generator_id",
                "n",
                "median_s",
                "mad_s",
                "repetitions",
                "slope",
                "slope_stderr",
                "seed",
            ],
            [
                [
                    data["generator_id"],
                    point["n"],
                    point["median_s"],
                    point["mad_s"],
                    data["repetitions"],
                    data["slope"],
                    data["slope_stderr"],
                    data["seed"],
                ]
                for point in data["points"]
            ],
        )
        return
    click.echo(
        f"generator: {data['generator_id']}   repetitions: "
        f"{data['repetitions']}   seed: {data['seed']}"
    )
    click.echo(f"{'n':>8}  {'median_s':>12}  {'mad_s':>12}")
    for point in data["points"]:
        click.echo(
            f"{point['n']:>8}  {point['median_s']:>12.4e}  {point['mad_s']:>12.4e}"
        )
    if data["slope"] is not None:
        line = f"slope: {data['slope']:.3f}"
        if data["slope_stderr"] is not None:
            lo, hi = data["slope_ci95"]
            line += f"   stderr: {data['slope_stderr']:.3f}"
            line += f"   ci95: [{lo:.3f}, {hi:.3f}]"
        click.echo(line)


if __name__ == "__main__":
    main()
