"""Las Vegas loops: the rejection generators, acceptance-rate estimation
and iteration-time benchmarks.

Every generator in this package is a Las Vegas loop: repeat a fixed
attempt (draw a candidate, run the membership check once) until the
check passes.  Each generator id has one draw half and one check half
here, and three callers share them: the one rejection loop behind
``gen_perm_rejection``, ``gen_pi_rejection``, ``gen_sigma_rejection``
and ``gen_sudoku_rejection``; ``estimate_p``, which estimates the
acceptance probability of one attempt and compares it against an exact
rational closed form; and ``bench_tau``, which times one attempt as
median-of-repetitions with a log-log regression slope as the empirical
scaling exponent.  One rule refuses the requests no loop can finish,
for the generators and ``estimate_p`` alike.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    BENCH_IDS,
    GENERATOR_IDS,
    BudgetExhaustedError,
    InfeasibleError,
    UnknownSigmaError,
)
from .perm import _is_perm_trusted, gen_perm_direct, is_permutation
from .pi import gen_pi_direct, is_pi
from .rng import RandomSource
from .sigma import SigmaMatrix, _phi_mask, is_sigma
from .sudoku import SIGMA_COUNTS, compose


# Largest denominator, in bits, that closed_form_p reduces.
_MAX_EXACT_BITS = 2**21


def closed_form_p(generator_id: str, n: int) -> Fraction:
    """Exact acceptance probability of one attempt, as a rational.

    perm-rejection: n!/n^n.  pi-rejection: (n!)^(2n)/n^(2n^2).
    sigma-rejection: (n!)^(2n)/2^(n^4).  sudoku-rejection:
    sigma_n/((n!)^(2n))^(n^2), available only for n <= 3 where the
    Sudoku count is known.  Direct generators accept with probability 1.
    All arithmetic is big-integer exact; nothing is rounded.

    sigma-rejection raises InfeasibleError above order 38, where the
    denominator has more than 2^21 bits and reducing the fraction takes
    seconds (about 1 s at order 60 and 6 s at order 80).
    """
    if generator_id == "sigma-rejection" and n > 0 and n**4 > _MAX_EXACT_BITS:
        raise InfeasibleError(
            f"the sigma-rejection acceptance probability at order {n} has a "
            f"denominator of n^4 = {n**4} bits, more than the {_MAX_EXACT_BITS} "
            f"bits closed_form_p reduces"
        )
    return Fraction(*_acceptance_terms(generator_id, n))


def _acceptance_terms(generator_id: str, n: int) -> tuple[int, int]:
    # closed_form_p as an unreduced (numerator, denominator) pair: reducing
    # a 2^(n^4) denominator takes seconds from about order 60, and a
    # refusal only needs the quotient.
    if generator_id not in GENERATOR_IDS:
        raise ValueError(f"unknown generator id {generator_id!r}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if generator_id in ("perm-direct", "pi-direct"):
        return 1, 1
    # refused before n! is built: at order 10^5 n! has 456,574 digits
    if generator_id == "sudoku-rejection" and n not in SIGMA_COUNTS:
        raise UnknownSigmaError(
            f"no exact Sudoku-matrix count is known for order {n}"
        )
    f = math.factorial(n)
    if generator_id == "perm-rejection":
        return f, n**n
    if generator_id == "pi-rejection":
        return f ** (2 * n), n ** (2 * n * n)
    if generator_id == "sigma-rejection":
        return f ** (2 * n), 2 ** (n**4)
    # sudoku-rejection: attempts draw n^2 independent uniform block
    # permutation layers and accept iff pairwise disjoint; disjoint
    # ordered tuples correspond one-to-one to Sudoku matrices.
    return SIGMA_COUNTS[n], (f ** (2 * n)) ** (n * n)


# Bound on the relative error of the float log10 of the sudoku-rejection
# sample space: lgamma, the division and the product each err by a few
# ulps; against 60-digit decimal logs the whole stays below 4.2e-16 at
# every order from 3 to 999 and at 210 orders from 1000 to 5.6e10.
_LOG10_SPACE_REL_ERROR = 1e-14


def _refuse(generator_id: str, n: int) -> None:
    # The one rule for requests no loop should start: orders below 1, and
    # blind sigma and Sudoku sampling from order 3 on, which would take
    # 1/closed_form_p attempts on average.
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n < 3 or generator_id not in ("sigma-rejection", "sudoku-rejection"):
        return
    if generator_id == "sigma-rejection":
        # log2 of 2^(n^4)/(n!)^(2n), so that the powers are built only
        # where their quotient fits a float (up to order 5)
        log2_expected = n**4 - 2 * n * math.lgamma(n + 1) / math.log(2)
        if log2_expected < 1000:
            accepted, space = _acceptance_terms(generator_id, n)
            expected = space / accepted
            about = f"{expected:.3g}"
        else:
            expected = math.inf
            about = f"10^{round(log2_expected * math.log10(2))}"
        raise InfeasibleError(
            f"blind bit-sampling at order {n} accepts with probability "
            f"about 1/{about}; expected {about} iterations. "
            f"Use the pi-matrix mapping instead.",
            expected_iterations=expected,
        )
    try:
        accepted, space = _acceptance_terms(generator_id, n)
    except UnknownSigmaError:
        # digits of ((n!)^(2n))^(n^2), without building it or n!: the floor
        # of log10 plus one, exact only where the float's error cannot
        # move the floor
        log10_space = 2 * n**3 * math.lgamma(n + 1) / math.log(10)
        error = log10_space * _LOG10_SPACE_REL_ERROR
        if math.floor(log10_space - error) == math.floor(log10_space + error):
            digits = f"{math.floor(log10_space) + 1}"
        else:
            digits = f"about {log10_space + 1:.6g}"
        raise InfeasibleError(
            f"the Sudoku-matrix count is unknown for order {n}; the layer-tuple "
            f"sample space alone has {digits} decimal digits",
        ) from None
    expected = space / accepted
    raise InfeasibleError(
        f"blind layer-tuple sampling at order {n} accepts with probability "
        f"about 1/{expected:.3g}; expected {expected:.3g} iterations",
        expected_iterations=expected,
    )


# The draw halves: draw(n, source) -> candidate, untimed.  They and the
# check halves call gen_pi_direct, _phi_mask and is_sigma through this
# module's globals at call time, where the benchmark's tracer wraps them.
# Building a blind candidate's bounds tuple costs less than a cached
# lookup of it.


def _draw_perm(n, source):
    return source.uniform_seq((n,) * n)


def _draw_pi(n, source):
    flat = source.uniform_seq((n,) * (2 * n * n))
    return [flat[i : i + n] for i in range(0, 2 * n * n, n)]


def _check_pi(rows, n):
    return all(_is_perm_trusted(row, n) for row in rows)


def _draw_sigma(n, source):
    # n^4 draws from {1, 2}, row-major, as the rows of a 0/1 matrix
    side = n * n
    bits = source.bits(side * side)
    return [bits[i : i + side] for i in range(0, side * side, side)]


def _draw_sudoku(n, source):
    # The masks of n^2 random layers, decoded one at a time up to the
    # first that overlaps an earlier one.  The later layers' draws are
    # skipped, not built, so every attempt consumes the same stream.
    side = n * n
    acc = 0
    masks = []
    for k in range(side):
        mask = _phi_mask(gen_pi_direct(n, source), n)
        if acc & mask:
            source.skip_ranks(n, 2 * n * (side - 1 - k))
            break
        acc |= mask
        masks.append(mask)
    return masks


# generator id -> (draw half, check half(candidate, n) -> bool)
_HALVES = {
    "perm-rejection": (_draw_perm, _is_perm_trusted),
    "perm-direct": (gen_perm_direct, is_permutation),
    "pi-rejection": (_draw_pi, _check_pi),
    "pi-direct": (lambda n, source: gen_pi_direct(n, source), lambda rows, n: is_pi(rows)),
    "sigma-rejection": (_draw_sigma, lambda rows, n: is_sigma(rows)),
    # the draw half stops at the first overlap, so a full stack is disjoint
    "sudoku-rejection": (_draw_sudoku, lambda masks, n: len(masks) == n * n),
}

# what each rejection loop looks for, for its budget message
_SOUGHT = {
    "perm-rejection": "permutation",
    "pi-rejection": "pi matrix",
    "sigma-rejection": "block permutation matrix",
    "sudoku-rejection": "Sudoku matrix",
}


def _las_vegas(generator_id: str, n: int, source: RandomSource, max_iterations: int | None):
    # The one rejection loop: attempts until a candidate passes its check.
    # Returns (candidate, attempts).
    _refuse(generator_id, n)
    draw, check = _HALVES[generator_id]
    iterations = 0
    while True:
        iterations += 1
        candidate = draw(n, source)
        if check(candidate, n):
            return candidate, iterations
        if max_iterations is not None and iterations >= max_iterations:
            raise BudgetExhaustedError(
                f"no {_SOUGHT[generator_id]} of order {n} found in {iterations} attempts"
            )


def gen_perm_rejection(
    n: int,
    source: RandomSource,
    max_iterations: int | None = None,
) -> tuple[list[int], int]:
    """Draw n uniform values until they happen to form a permutation.

    Returns (permutation, number of attempts).  Las Vegas: terminates
    with probability 1; ``max_iterations`` optionally bounds the attempt
    count and raises BudgetExhaustedError when exceeded.
    """
    return _las_vegas("perm-rejection", n, source, max_iterations)


def gen_pi_rejection(
    n: int,
    source: RandomSource,
    max_iterations: int | None = None,
) -> tuple[list[list[int]], int]:
    """Fill all 2n^2 cells blindly, accept iff every row is a permutation.

    Returns (matrix, attempts); attempts is geometric with success
    probability (n!)^(2n) / n^(2n^2).
    """
    return _las_vegas("pi-rejection", n, source, max_iterations)


def gen_sigma_rejection(
    n: int,
    source: RandomSource,
    max_iterations: int | None = None,
) -> tuple[SigmaMatrix, int]:
    """Draw n^4 random bits, accept iff they form a block permutation matrix.

    Success probability per attempt is (n!)^(2n) / 2^(n^4): one half at
    n = 1, 16/65536 at n = 2, and hopeless beyond, so n >= 3 is refused
    outright with the expected iteration count.
    """
    rows, iterations = _las_vegas("sigma-rejection", n, source, max_iterations)
    return SigmaMatrix.from_rows(rows), iterations


def gen_sudoku_rejection(
    n: int,
    source: RandomSource,
    max_iterations: int | None = None,
) -> tuple[list[list[int]], int]:
    """One-shot rejection sampling over complete layer tuples.

    Each attempt draws n^2 independent uniform block permutation
    matrices (via the pi bijection) and accepts iff they are pairwise
    disjoint, in which case their composition is a Sudoku matrix.
    Ordered disjoint tuples correspond one-to-one to Sudoku matrices, so
    each attempt succeeds with probability sigma_n / ((n!)^(2n))^(n^2):
    1 at n = 1, 288/65536 at n = 2, and about 6.6e-21 at n = 3, so
    n >= 3 is refused with the expected iteration count.  An attempt
    decodes its layers only up to the first that overlaps an earlier
    one, but consumes the draws of all n^2 layers.
    """
    masks, iterations = _las_vegas("sudoku-rejection", n, source, max_iterations)
    return compose([SigmaMatrix(n, mask) for mask in masks]), iterations


def _frac_dict(value: Fraction) -> dict:
    return {
        "numerator": str(value.numerator),
        "denominator": str(value.denominator),
        "float": float(value),
    }


class EvalReport(NamedTuple):
    """Result of one Monte Carlo acceptance-probability estimation."""

    generator_id: str
    n: int
    samples: int
    successes: int
    empirical_p: Fraction
    theoretical_p: Fraction
    std_error: float
    mean_iteration_time_s: float
    mean_check_time_s: float
    seed: int | None

    def to_dict(self) -> dict:
        return {
            "generator_id": self.generator_id,
            "n": self.n,
            "samples": self.samples,
            "successes": self.successes,
            "empirical_acceptance": _frac_dict(self.empirical_p),
            "theoretical_acceptance": _frac_dict(self.theoretical_p),
            "std_error": self.std_error,
            "mean_iteration_time_s": self.mean_iteration_time_s,
            "mean_check_time_s": self.mean_check_time_s,
            "seed": self.seed,
        }


def estimate_p(
    generator_id: str,
    n: int,
    samples: int,
    source: RandomSource,
) -> EvalReport:
    """Estimate a generator's single-attempt acceptance probability.

    Runs the generator's attempt ``samples`` times and reports the
    acceptance fraction as an exact rational next to the closed form,
    with the binomial standard error sqrt(p(1-p)/samples) and mean wall
    times of one attempt and of its check half (the classic theta
    term).  Requests the generator itself refuses are refused with its
    InfeasibleError.  A ``sudoku-rejection`` attempt's overlap tests
    belong to its draw half, which stops decoding layers at the first
    one that overlaps the earlier ones (but still consumes the draws of
    the rest, so each attempt consumes the same stream); its check time
    is only the test that every layer was decoded.
    """
    if generator_id not in GENERATOR_IDS:
        raise ValueError(f"unknown generator id {generator_id!r}")
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    _refuse(generator_id, n)
    theoretical = closed_form_p(generator_id, n)
    draw, check = _HALVES[generator_id]
    perf = time.perf_counter
    successes = 0
    draw_time = 0.0
    check_time = 0.0
    for _ in range(samples):
        t0 = perf()
        candidate = draw(n, source)
        t1 = perf()
        if check(candidate, n):
            successes += 1
        t2 = perf()
        draw_time += t1 - t0
        check_time += t2 - t1
    p_hat = successes / samples
    return EvalReport(
        generator_id=generator_id,
        n=n,
        samples=samples,
        successes=successes,
        empirical_p=Fraction(successes, samples),
        theoretical_p=theoretical,
        std_error=math.sqrt(p_hat * (1.0 - p_hat) / samples),
        mean_iteration_time_s=(draw_time + check_time) / samples,
        mean_check_time_s=check_time / samples,
        seed=source.seed,
    )


class BenchPoint(NamedTuple):
    n: int
    median_s: float
    mad_s: float


class BenchReport(NamedTuple):
    """Timing table with a log-log scaling exponent across sizes."""

    generator_id: str
    repetitions: int
    points: list[BenchPoint]
    slope: float | None = None
    slope_stderr: float | None = None
    intercept: float | None = None
    seed: int | None = None

    def ci95(self) -> tuple[float, float] | None:
        if self.slope is None or self.slope_stderr is None:
            return None
        half = 1.96 * self.slope_stderr
        return (self.slope - half, self.slope + half)

    def to_dict(self) -> dict:
        ci = self.ci95()
        return {
            "generator_id": self.generator_id,
            "repetitions": self.repetitions,
            "points": [p._asdict() for p in self.points],
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "slope_ci95": list(ci) if ci is not None else None,
            "intercept": self.intercept,
            "seed": self.seed,
        }


def _bench_body(generator_id: str, n: int, source: RandomSource):
    if generator_id in _HALVES:
        draw, check = _HALVES[generator_id]
        return lambda: check(draw(n, source), n)
    if generator_id == "perm-check":
        cand = gen_perm_direct(n, source)
        return lambda: is_permutation(cand)
    # sigma-check, the one id left: bench_tau refuses unknown ids
    rows = SigmaMatrix(n, _phi_mask(gen_pi_direct(n, source), n)).to_rows()
    return lambda: is_sigma(rows)


def bench_tau(
    generator_id: str,
    sizes: list[int],
    repetitions: int = 30,
    source: RandomSource | None = None,
) -> BenchReport:
    """Time one attempt per size: median, MAD, and log-log slope.

    An attempt is the generator's check half applied to its draw half,
    the body of the loop the generator runs.  Each size gets two
    discarded warm-up runs followed by ``repetitions`` timed runs on the
    monotonic clock; the table reports the median and the median
    absolute deviation.  With at least two distinct sizes a
    least-squares line through (log2 n, log2 median) gives the scaling
    exponent; its standard error needs at least three sizes.
    """
    if generator_id not in BENCH_IDS:
        raise ValueError(f"unknown benchmark id {generator_id!r}")
    if not sizes:
        raise ValueError("at least one size is required")
    if any(n < 1 for n in sizes):
        raise ValueError("sizes must be >= 1")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if source is None:
        source = RandomSource()
    perf = time.perf_counter
    points = []
    for n in sizes:
        body = _bench_body(generator_id, n, source)
        for _ in range(2):
            body()
        times = []
        for _ in range(repetitions):
            t0 = perf()
            body()
            times.append(perf() - t0)
        med = statistics.median(times)
        mad = statistics.median(abs(t - med) for t in times)
        points.append(BenchPoint(n=n, median_s=med, mad_s=mad))

    slope = slope_stderr = intercept = None
    if len({p.n for p in points}) >= 2:
        xs = [math.log2(p.n) for p in points]
        ys = [math.log2(p.median_s) for p in points]
        slope, intercept = statistics.linear_regression(xs, ys)
        if len(points) >= 3:
            x_mean = statistics.fmean(xs)
            sxx = sum((x - x_mean) ** 2 for x in xs)
            sse = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
            if sxx > 0:
                slope_stderr = math.sqrt(sse / (len(points) - 2) / sxx)
    return BenchReport(
        generator_id, repetitions, points, slope, slope_stderr, intercept, source.seed
    )


def chi_square_uniform(counts: list[int]) -> float:
    """Chi-square statistic of observed counts against a uniform law."""
    if not counts:
        raise ValueError("counts must be non-empty")
    total = sum(counts)
    if total == 0:
        raise ValueError("counts sum to zero")
    expected = total / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)
