"""Monte Carlo acceptance-rate estimation and iteration-time benchmarks.

Every generator in this package is a Las Vegas loop: repeat a fixed
attempt body (draw some random elements, run the membership check once)
until the check passes.  This module evaluates the two quantities that
determine expected running time: the acceptance probability of one
attempt, estimated empirically and compared against an exact rational
closed form, and the wall time of one attempt, measured as
median-of-repetitions with a log-log regression slope as the empirical
scaling exponent.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InfeasibleError, UnknownSigmaError
from .perm import _is_perm_trusted, gen_perm_direct, is_permutation
from .pi import _pi_draw_bounds, gen_pi_direct, is_pi
from .rng import RandomSource
from .sigma import SigmaMatrix, _bit_rows, _phi_mask, is_sigma, ratio_as_float
from .sudoku import SIGMA_COUNTS

GENERATOR_IDS = (
    "perm-rejection",
    "perm-direct",
    "pi-rejection",
    "pi-direct",
    "sigma-rejection",
    "sudoku-rejection",
)

# Additional benchmark targets: the bare membership checks, so the check
# phase can be timed in isolation.
BENCH_IDS = GENERATOR_IDS + ("perm-check", "sigma-check")


def closed_form_p(generator_id: str, n: int) -> Fraction:
    """Exact acceptance probability of one attempt, as a rational.

    perm-rejection: n!/n^n.  pi-rejection: (n!)^(2n)/n^(2n^2).
    sigma-rejection: (n!)^(2n)/2^(n^4).  sudoku-rejection:
    sigma_n/((n!)^(2n))^(n^2), available only for n <= 3 where the
    Sudoku count is known.  Direct generators accept with probability 1.
    All arithmetic is big-integer exact; nothing is rounded.
    """
    if generator_id not in GENERATOR_IDS:
        raise ValueError(f"unknown generator id {generator_id!r}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    f = math.factorial(n)
    if generator_id == "perm-rejection":
        return Fraction(f, n**n)
    if generator_id in ("perm-direct", "pi-direct"):
        return Fraction(1)
    if generator_id == "pi-rejection":
        return Fraction(f ** (2 * n), n ** (2 * n * n))
    if generator_id == "sigma-rejection":
        return Fraction(f ** (2 * n), 2 ** (n**4))
    # sudoku-rejection: attempts draw n^2 independent uniform block
    # permutation layers and accept iff pairwise disjoint; disjoint
    # ordered tuples correspond one-to-one to Sudoku matrices.
    if n not in SIGMA_COUNTS:
        raise UnknownSigmaError(
            f"no exact Sudoku-matrix count is known for order {n}"
        )
    return Fraction(SIGMA_COUNTS[n], (f ** (2 * n)) ** (n * n))


def _frac_dict(value: Fraction) -> dict:
    return {
        "numerator": str(value.numerator),
        "denominator": str(value.denominator),
        "float": ratio_as_float(value.numerator, value.denominator),
    }


@dataclass
class EvalReport:
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


def _attempt_perm_rejection(n, source, perf):
    t0 = perf()
    cand = source.uniform_seq([n] * n)
    t1 = perf()
    ok = _is_perm_trusted(cand, n)
    return ok, t1 - t0, perf() - t1


def _attempt_perm_direct(n, source, perf):
    t0 = perf()
    cand = gen_perm_direct(n, source)
    t1 = perf()
    ok = is_permutation(cand)
    return ok, t1 - t0, perf() - t1


def _attempt_pi_rejection(n, source, perf):
    t0 = perf()
    flat = source.uniform_seq([n] * (2 * n * n))
    rows = [flat[i : i + n] for i in range(0, 2 * n * n, n)]
    t1 = perf()
    ok = all(_is_perm_trusted(row, n) for row in rows)
    return ok, t1 - t0, perf() - t1


def _attempt_pi_direct(n, source, perf):
    t0 = perf()
    rows = gen_pi_direct(n, source)
    t1 = perf()
    ok = is_pi(rows)
    return ok, t1 - t0, perf() - t1


def _attempt_sigma_rejection(n, source, perf):
    side = n * n
    t0 = perf()
    rows = _bit_rows(source.uniform_seq([2] * (side * side)), side)
    t1 = perf()
    ok = is_sigma(rows)
    return ok, t1 - t0, perf() - t1


def _attempt_sudoku_rejection(n, source, perf):
    # Layers are decoded one at a time and tested against the union of
    # the earlier ones; at the first overlap the later layers' values are
    # drawn unused, so every attempt consumes the same stream.
    side = n * n
    check_time = 0.0
    acc = 0
    start = perf()
    for k in range(side):
        mask = _phi_mask(gen_pi_direct(n, source), n)
        t0 = perf()
        overlap = acc & mask
        acc |= mask
        t1 = perf()
        check_time += t1 - t0
        if overlap:
            source.uniform_seq(_pi_draw_bounds(n) * (side - 1 - k))
            return False, perf() - start - check_time, check_time
    return True, perf() - start - check_time, check_time


_ATTEMPTS = {
    "perm-rejection": _attempt_perm_rejection,
    "perm-direct": _attempt_perm_direct,
    "pi-rejection": _attempt_pi_rejection,
    "pi-direct": _attempt_pi_direct,
    "sigma-rejection": _attempt_sigma_rejection,
    "sudoku-rejection": _attempt_sudoku_rejection,
}


def _check_feasible(generator_id: str, n: int) -> None:
    # Estimating a vanishing acceptance rate is pointless; refuse the
    # combinations whose generators themselves refuse, quoting the
    # expected attempt count.
    if generator_id == "sigma-rejection" and n >= 3:
        expected = ratio_as_float(2 ** (n**4), math.factorial(n) ** (2 * n))
        raise InfeasibleError(
            f"sigma-rejection at order {n} accepts about once per "
            f"{expected:.3g} attempts",
            expected_iterations=expected,
        )
    if generator_id == "sudoku-rejection" and n >= 3:
        from .sudoku import _sudoku_rejection_feasibility

        _sudoku_rejection_feasibility(n)


def estimate_p(
    generator_id: str,
    n: int,
    samples: int,
    source: RandomSource,
) -> EvalReport:
    """Estimate a generator's single-attempt acceptance probability.

    Runs the attempt body ``samples`` times and reports the acceptance
    fraction as an exact rational next to the closed form, with the
    binomial standard error sqrt(p(1-p)/samples) and mean per-phase wall
    times (the check phase alone is the classic theta term).  A
    ``sudoku-rejection`` attempt stops decoding layers at the first one
    that overlaps the earlier ones but still draws the values of the
    rest, so each attempt consumes the same stream; its check time is
    the time spent in the overlap tests.
    """
    if generator_id not in GENERATOR_IDS:
        raise ValueError(f"unknown generator id {generator_id!r}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    _check_feasible(generator_id, n)
    theoretical = closed_form_p(generator_id, n)
    attempt = _ATTEMPTS[generator_id]
    perf = time.perf_counter
    successes = 0
    gen_time = 0.0
    check_time = 0.0
    for _ in range(samples):
        ok, gen_dt, check_dt = attempt(n, source, perf)
        if ok:
            successes += 1
        gen_time += gen_dt
        check_time += check_dt
    p_hat = successes / samples
    return EvalReport(
        generator_id=generator_id,
        n=n,
        samples=samples,
        successes=successes,
        empirical_p=Fraction(successes, samples),
        theoretical_p=theoretical,
        std_error=math.sqrt(p_hat * (1.0 - p_hat) / samples),
        mean_iteration_time_s=(gen_time + check_time) / samples,
        mean_check_time_s=check_time / samples,
        seed=source.seed,
    )


@dataclass(frozen=True)
class BenchPoint:
    n: int
    median_s: float
    mad_s: float


@dataclass
class BenchReport:
    """Timing table with a log-log scaling exponent across sizes."""

    generator_id: str
    repetitions: int
    points: list[BenchPoint] = field(default_factory=list)
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
            "points": [
                {"n": p.n, "median_s": p.median_s, "mad_s": p.mad_s}
                for p in self.points
            ],
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "slope_ci95": list(ci) if ci is not None else None,
            "intercept": self.intercept,
            "seed": self.seed,
        }


def _bench_body(generator_id: str, n: int, source: RandomSource):
    perf = time.perf_counter
    if generator_id in _ATTEMPTS:
        attempt = _ATTEMPTS[generator_id]
        return lambda: attempt(n, source, perf)
    if generator_id == "perm-check":
        cand = gen_perm_direct(n, source)
        return lambda: is_permutation(cand)
    if generator_id == "sigma-check":
        rows = SigmaMatrix(n, _phi_mask(gen_pi_direct(n, source), n)).to_rows()
        return lambda: is_sigma(rows)
    raise ValueError(f"unknown benchmark id {generator_id!r}")


def bench_tau(
    generator_id: str,
    sizes: list[int],
    repetitions: int = 30,
    source: RandomSource | None = None,
    warmup: int = 2,
) -> BenchReport:
    """Time one attempt body per size: median, MAD, and log-log slope.

    Each size gets ``warmup`` discarded runs followed by ``repetitions``
    timed runs on the monotonic clock; the table reports the median and
    the median absolute deviation.  With at least two distinct sizes a
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
        for _ in range(warmup):
            body()
        times = []
        for _ in range(repetitions):
            t0 = perf()
            body()
            times.append(perf() - t0)
        med = statistics.median(times)
        mad = statistics.median(abs(t - med) for t in times)
        points.append(BenchPoint(n=n, median_s=med, mad_s=mad))

    report = BenchReport(
        generator_id=generator_id,
        repetitions=repetitions,
        points=points,
        seed=source.seed,
    )
    if len({p.n for p in points}) >= 2:
        xs = [math.log2(p.n) for p in points]
        ys = [math.log2(p.median_s) for p in points]
        fit = statistics.linear_regression(xs, ys)
        report.slope = fit.slope
        report.intercept = fit.intercept
        if len(points) >= 3:
            x_mean = statistics.fmean(xs)
            sxx = sum((x - x_mean) ** 2 for x in xs)
            sse = sum(
                (y - (fit.slope * x + fit.intercept)) ** 2 for x, y in zip(xs, ys)
            )
            if sxx > 0:
                report.slope_stderr = math.sqrt(sse / (len(points) - 2) / sxx)
    return report


def chi_square_uniform(counts: list[int]) -> float:
    """Chi-square statistic of observed counts against a uniform law."""
    if not counts:
        raise ValueError("counts must be non-empty")
    total = sum(counts)
    if total == 0:
        raise ValueError("counts sum to zero")
    expected = total / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)
