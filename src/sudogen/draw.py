"""The CLI commands that draw: gen-perm, gen-pi, gen-sigma, gen-sudoku,
estimate and bench.

:mod:`sudogen.cli` builds their parsers and imports this module only to
run one of them (or to print the full ``--help``), so the text commands
(``check``, ``map``, ``decompose``, ``compose``, ``enumerate``) start
without the random source, the generators and the report writers below.
Nothing imports :mod:`sudogen.cli` itself: run as ``python -m
sudogen.cli`` it is ``__main__``, and an import would compile and run it
a second time.
"""

from __future__ import annotations

import io

from .errors import BudgetExhaustedError
from .formats import (
    _echo,
    format_perm,
    format_pi,
    format_sigma,
    format_sudoku,
    perm_json,
    pi_json,
    sigma_json,
    sudoku_json,
)
from .perm import gen_perm_direct
from .pi import gen_pi_direct
from .rng import RandomSource, derive_seed, entropy_seed
from .sigma import phi


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


def gen_sigma_cmd(args):
    """Generate a random block permutation matrix of side n^2.

    Orders above 48 are refused with exit 3.
    """
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
