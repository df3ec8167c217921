"""Acceptance-probability estimation and iteration-time benchmarks."""

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import sudogen.analysis as analysis
from conftest import ScriptedSource, TreeSource
from sudogen import (
    BENCH_IDS,
    GENERATOR_IDS,
    BudgetExhaustedError,
    InfeasibleError,
    RandomSource,
    UnknownSigmaError,
    bench_tau,
    closed_form_p,
    estimate_p,
    gen_perm_direct,
    gen_perm_rejection,
    gen_pi_direct,
    gen_pi_rejection,
    gen_sigma_rejection,
    gen_sudoku_rejection,
    is_permutation,
    is_pi,
)

SIGMA_3 = 6_670_903_752_021_072_936_960


class TestClosedForm:
    def test_perm_rejection_values(self):
        assert closed_form_p("perm-rejection", 1) == 1
        assert closed_form_p("perm-rejection", 2) == Fraction(1, 2)
        assert closed_form_p("perm-rejection", 3) == Fraction(2, 9)
        assert closed_form_p("perm-rejection", 4) == Fraction(3, 32)

    def test_direct_generators_always_accept(self):
        for generator_id in ("perm-direct", "pi-direct"):
            for n in (1, 2, 5, 30):
                assert closed_form_p(generator_id, n) == Fraction(1)

    def test_pi_rejection_values(self):
        assert closed_form_p("pi-rejection", 1) == 1
        assert closed_form_p("pi-rejection", 2) == Fraction(1, 16)
        assert closed_form_p("pi-rejection", 3) == Fraction(6**6, 3**18)

    def test_sigma_rejection_values(self):
        assert closed_form_p("sigma-rejection", 1) == Fraction(1, 2)
        assert closed_form_p("sigma-rejection", 2) == Fraction(1, 4096)
        assert closed_form_p("sigma-rejection", 2) == Fraction(16, 65536)

    def test_sigma_rejection_largest_exact_order(self):
        # 38^4 bits is the largest denominator reduced; 39^4 exceeds 2^21
        f = math.factorial(38)
        assert closed_form_p("sigma-rejection", 38) == Fraction(f**76, 2 ** (38**4))
        with pytest.raises(InfeasibleError, match="2313441 bits"):
            closed_form_p("sigma-rejection", 39)
        with pytest.raises(ValueError, match="order must be >= 1"):
            closed_form_p("sigma-rejection", -39)

    def test_sudoku_rejection_values(self):
        assert closed_form_p("sudoku-rejection", 1) == 1
        assert closed_form_p("sudoku-rejection", 2) == Fraction(288, 65536)
        assert closed_form_p("sudoku-rejection", 3) == Fraction(SIGMA_3, 6**54)

    def test_sudoku_rejection_unknown_count(self):
        with pytest.raises(UnknownSigmaError):
            closed_form_p("sudoku-rejection", 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_p("latin-rejection", 2)
        with pytest.raises(ValueError):
            closed_form_p("perm-rejection", 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_algebraic_identities(self, n):
        f = math.factorial(n)
        assert closed_form_p("perm-rejection", n) * n**n == f
        assert closed_form_p("pi-rejection", n) * n ** (2 * n * n) == f ** (2 * n)
        assert closed_form_p("sigma-rejection", n) * 2 ** (n**4) == f ** (2 * n)

    def test_sudoku_identity_order_two(self):
        p = closed_form_p("sudoku-rejection", 2)
        assert p * ((math.factorial(2) ** 4) ** 4) == 288

    def test_everything_is_exact_rational(self):
        for generator_id in GENERATOR_IDS:
            assert isinstance(closed_form_p(generator_id, 2), Fraction)


def _accepts_in_one_attempt(generate):
    # One attempt of a rejection loop, as the loop runs it: a budget of
    # one attempt is exhausted exactly when that attempt is rejected.
    def run(n, source):
        try:
            generate(n, source, 1)
        except BudgetExhaustedError:
            return False
        return True

    return run


# generator id -> (one attempt: (n, source) -> accepted, draws per attempt)
ATTEMPTS = {
    "perm-rejection": (_accepts_in_one_attempt(gen_perm_rejection), lambda n: n),
    "perm-direct": (lambda n, s: is_permutation(gen_perm_direct(n, s)), lambda n: n),
    "pi-rejection": (_accepts_in_one_attempt(gen_pi_rejection), lambda n: 2 * n * n),
    "pi-direct": (lambda n, s: is_pi(gen_pi_direct(n, s)), lambda n: 2 * n * n),
    "sigma-rejection": (_accepts_in_one_attempt(gen_sigma_rejection), lambda n: n**4),
    "sudoku-rejection": (_accepts_in_one_attempt(gen_sudoku_rejection), lambda n: 2 * n**4),
}


@pytest.mark.parametrize(
    "generator_id, n",
    [(gid, n) for gid in GENERATOR_IDS for n in (1, 2)] + [("pi-direct", 3)],
)
def test_closed_form_is_the_walked_acceptance(generator_id, n):
    # Every draw sequence of one attempt, each with its exact probability:
    # the accepted mass is the code's own acceptance probability.
    attempt, draws_per_attempt = ATTEMPTS[generator_id]
    accepted = total = Fraction(0)
    for ok, p, draws in TreeSource.walk(lambda source: attempt(n, source), limit=70_000):
        assert draws == draws_per_attempt(n)
        total += p
        accepted += p if ok else 0
    assert total == 1
    assert accepted == closed_form_p(generator_id, n)


class TestEstimate:
    def test_validation(self):
        src = RandomSource(0)
        with pytest.raises(ValueError):
            estimate_p("latin-rejection", 2, 1000, src)
        with pytest.raises(ValueError):
            estimate_p("perm-rejection", 0, 1000, src)
        with pytest.raises(ValueError):
            estimate_p("perm-rejection", 2, 99, src)

    def test_minimum_sample_size_accepted(self):
        report = estimate_p("perm-direct", 1, 100, RandomSource(0))
        assert report.samples == 100

    def test_direct_generators_are_certain(self):
        for generator_id in ("perm-direct", "pi-direct"):
            report = estimate_p(generator_id, 3, 200, RandomSource(1))
            assert report.empirical_p == Fraction(1)
            assert report.successes == report.samples == 200
            assert report.std_error == 0.0

    def test_sudoku_rejection_order_one_is_certain(self):
        report = estimate_p("sudoku-rejection", 1, 150, RandomSource(2))
        assert report.empirical_p == Fraction(1)

    def test_refuses_vanishing_rates(self):
        with pytest.raises(InfeasibleError) as exc_info:
            estimate_p("sigma-rejection", 3, 1000, RandomSource(0))
        assert exc_info.value.expected_iterations == pytest.approx(
            2**81 / 6**6, rel=1e-9
        )
        with pytest.raises(InfeasibleError):
            estimate_p("sudoku-rejection", 3, 1000, RandomSource(0))

    @pytest.mark.parametrize(
        "generator_id,n,generate",
        [
            ("sigma-rejection", 3, gen_sigma_rejection),
            ("sigma-rejection", 10**4, gen_sigma_rejection),
            ("sudoku-rejection", 3, gen_sudoku_rejection),
            ("sudoku-rejection", 4, gen_sudoku_rejection),
        ],
    )
    def test_refuses_like_the_generator(self, generator_id, n, generate):
        with pytest.raises(InfeasibleError) as estimated:
            estimate_p(generator_id, n, 1000, RandomSource(0))
        with pytest.raises(InfeasibleError) as generated:
            generate(n, RandomSource(0))
        assert str(estimated.value) == str(generated.value)
        assert estimated.value.expected_iterations == generated.value.expected_iterations

    @pytest.mark.parametrize("n,digits", [(4, 177), (8, 4717)])
    def test_unknown_sudoku_count_names_the_sample_space(self, n, digits):
        with pytest.raises(InfeasibleError) as exc_info:
            gen_sudoku_rejection(n, RandomSource(0))
        assert str(exc_info.value) == (
            f"the Sudoku-matrix count is unknown for order {n}; the layer-tuple "
            f"sample space alone has {digits} decimal digits"
        )

    def test_unknown_sudoku_count_refused_without_a_factorial(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factorial({n}) built")

        monkeypatch.setattr(analysis.math, "factorial", refuse)
        with pytest.raises(InfeasibleError, match="unknown for order 100000;"):
            gen_sudoku_rejection(10**5, RandomSource(0))

    def test_unknown_sudoku_count_exact_where_the_float_cannot_move_it(self):
        # 60-digit log10 of the sample space ((1000!)^2000)^(1000^2)
        with localcontext() as ctx:
            ctx.prec = 60
            log10_space = 2 * 1000**3 * Decimal(math.factorial(1000)).log10()
        with pytest.raises(InfeasibleError) as exc_info:
            gen_sudoku_rejection(1000, RandomSource(0))
        assert str(exc_info.value).endswith(
            f"sample space alone has {int(log10_space) + 1} decimal digits"
        )

    def test_unknown_sudoku_count_rounded_where_the_float_can_move_it(self):
        # at n = 10^5 one ulp of the float log10 is 131,072 digits
        log10_space = 2 * 10**15 * math.fsum(map(math.log10, range(1, 10**5 + 1)))
        assert f"{log10_space + 1:.6g}" == "9.13147e+20"
        with pytest.raises(InfeasibleError) as exc_info:
            gen_sudoku_rejection(10**5, RandomSource(0))
        assert str(exc_info.value).endswith(
            "sample space alone has about 9.13147e+20 decimal digits"
        )

    def test_scripted_all_failures(self):
        # 100 attempts of (1, 1, 1), never a permutation of order 3
        src = ScriptedSource([1, 1, 1] * 100)
        report = estimate_p("perm-rejection", 3, 100, src)
        assert report.successes == 0
        assert report.empirical_p == 0
        assert report.std_error == 0.0
        assert src.exhausted
        assert all(k == 3 for k in src.calls)

    def test_scripted_half_successes(self):
        src = ScriptedSource(([1, 2, 3] + [1, 1, 1]) * 50)
        report = estimate_p("perm-rejection", 3, 100, src)
        assert report.successes == 50
        assert report.empirical_p == Fraction(1, 2)
        assert report.std_error == pytest.approx(math.sqrt(0.25 / 100))

    def test_std_error_matches_formula(self):
        report = estimate_p("perm-rejection", 2, 400, RandomSource(7))
        p_hat = report.successes / report.samples
        assert report.std_error == pytest.approx(
            math.sqrt(p_hat * (1 - p_hat) / 400)
        )

    def test_perm_rejection_order_two_close_to_half(self):
        report = estimate_p("perm-rejection", 2, 10_000, RandomSource(11))
        assert abs(float(report.empirical_p) - 0.5) <= 3 * math.sqrt(0.25 / 10_000)

    def test_reproducible(self):
        a = estimate_p("pi-rejection", 2, 500, RandomSource(99))
        b = estimate_p("pi-rejection", 2, 500, RandomSource(99))
        assert a.successes == b.successes
        assert a.seed == b.seed == 99

    def test_timings_populated(self):
        report = estimate_p("perm-rejection", 4, 200, RandomSource(3))
        assert report.mean_iteration_time_s > 0
        assert 0 <= report.mean_check_time_s <= report.mean_iteration_time_s

    def test_dict_schema(self):
        report = estimate_p("perm-rejection", 2, 200, RandomSource(5))
        d = report.to_dict()
        assert list(d.keys()) == [
            "generator_id",
            "n",
            "samples",
            "successes",
            "empirical_acceptance",
            "theoretical_acceptance",
            "std_error",
            "mean_iteration_time_s",
            "mean_check_time_s",
            "seed",
        ]
        theo = d["theoretical_acceptance"]
        assert theo == {"numerator": "1", "denominator": "2", "float": 0.5}
        emp = d["empirical_acceptance"]
        assert int(emp["numerator"]) == report.empirical_p.numerator
        assert int(emp["denominator"]) == report.empirical_p.denominator
        assert d["seed"] == 5


class TestSeededStream:
    """Seeded results pinned from the version that drew one value per
    ``uniform_int`` call.  Batched draws and early exits must give the
    same results, consume the same draws and leave the source in the
    same state."""

    @pytest.mark.parametrize(
        "generator_id,n,seed,successes,draws,next_draw",
        [
            ("perm-rejection", 3, 1001, 4495, 60_000, 286_312_347),
            ("pi-rejection", 2, 1002, 1252, 160_000, 460_698_277),
            ("sigma-rejection", 2, 1003, 3, 320_000, 994_379_136),
            ("sudoku-rejection", 2, 1004, 110, 640_000, 869_600_268),
            ("perm-direct", 16, 600, 20_000, 320_000, 650_037_680),
            ("pi-direct", 4, 601, 20_000, 640_000, 1_010_848_170),
        ],
    )
    def test_estimate(self, generator_id, n, seed, successes, draws, next_draw):
        src = RandomSource(seed)
        report = estimate_p(generator_id, n, 20_000, src)
        assert report.successes == successes
        assert src.draws == draws
        assert src.uniform_int(2**30) == next_draw

    def test_perm_rejection_generator(self):
        src = RandomSource(5)
        perm, iterations = gen_perm_rejection(3, src)
        assert (perm, iterations, src.draws) == ([2, 1, 3], 4, 12)
        assert src.uniform_int(2**30) == 55_677_007

    def test_pi_rejection_generator(self):
        src = RandomSource(5)
        rows, iterations = gen_pi_rejection(2, src)
        assert (rows, iterations, src.draws) == ([[2, 1], [1, 2], [2, 1], [1, 2]], 6, 48)
        assert src.uniform_int(2**30) == 662_984_595

    def test_sudoku_rejection_generator(self):
        src = RandomSource(5)
        cells, iterations = gen_sudoku_rejection(2, src)
        assert (iterations, src.draws) == (16, 512)
        assert cells == [[2, 1, 3, 4], [4, 3, 1, 2], [1, 2, 4, 3], [3, 4, 2, 1]]

    def test_sigma_rejection_generator(self):
        src = RandomSource(5)
        m, iterations = gen_sigma_rejection(2, src)
        assert (iterations, src.draws) == (4587, 73_392)
        assert m.mask == 0x8142


# Every rejection id at orders 1 and 2, and the two that can run at order 3.
BLIND_CASES = [
    (generator_id, n)
    for n in (1, 2)
    for generator_id in ("perm-rejection", "pi-rejection", "sigma-rejection", "sudoku-rejection")
] + [("perm-rejection", 3), ("pi-rejection", 3)]


class TestBlindStreamsPinned:
    def test_seeded_output_is_pinned(self):
        # successes, draws and the next stream value of seeded estimates;
        # a change to how blind attempts take their draws must leave them
        # as they are
        digest = hashlib.sha256()
        for generator_id, n in BLIND_CASES:
            for seed in range(3):
                src = RandomSource(seed)
                report = estimate_p(generator_id, n, 2000, src)
                run = (generator_id, n, seed, report.successes, src.draws, src.uniform_int(2**40))
                digest.update(repr(run).encode())
        assert digest.hexdigest() == "eec49b6e2d26df5cbeefda7d41df9b043b0f7ada3d43e9d14a5cb45f102938d2"


class TestSudokuRejectionEarlyExit:
    def test_stops_decoding_at_the_first_overlap(self, monkeypatch):
        # every layer is the same, so layer 2 overlaps layer 1 in each of
        # the 100 attempts; layers 3 and 4 are drawn but never decoded
        decoded = []

        def counting_gen_pi_direct(n, source):
            decoded.append(n)
            return gen_pi_direct(n, source)

        monkeypatch.setattr(analysis, "gen_pi_direct", counting_gen_pi_direct)
        src = ScriptedSource([1] * 32 * 100)
        report = estimate_p("sudoku-rejection", 2, 100, src)
        assert report.successes == 0
        assert src.exhausted
        assert src.calls == [2, 1] * 16 * 100
        assert len(decoded) == 2 * 100
        assert 0 <= report.mean_check_time_s <= report.mean_iteration_time_s


class TestEstimatePanel:
    """Fixed-seed sweeps: the empirical rate should sit within three
    standard errors of the closed form for nearly every seed."""

    @pytest.mark.parametrize(
        "generator_id,n,samples",
        [
            ("perm-rejection", 3, 3000),
            ("pi-rejection", 2, 3000),
            ("sigma-rejection", 1, 1000),
        ],
    )
    def test_seed_sweep(self, generator_id, n, samples):
        theoretical = float(closed_form_p(generator_id, n))
        hits = 0
        for seed in range(100):
            report = estimate_p(generator_id, n, samples, RandomSource(seed))
            if abs(float(report.empirical_p) - theoretical) <= 3 * report.std_error:
                hits += 1
        assert hits >= 98


class TestBench:
    def test_validation(self):
        with pytest.raises(ValueError):
            bench_tau("latin-rejection", [4])
        with pytest.raises(ValueError):
            bench_tau("perm-direct", [])
        with pytest.raises(ValueError):
            bench_tau("perm-direct", [4, 0])
        with pytest.raises(ValueError):
            bench_tau("perm-direct", [4], repetitions=0)

    def test_bench_ids_cover_checks(self):
        assert set(GENERATOR_IDS) < set(BENCH_IDS)
        assert "perm-check" in BENCH_IDS and "sigma-check" in BENCH_IDS

    def test_single_size_has_no_slope(self):
        report = bench_tau("perm-direct", [16], repetitions=5, source=RandomSource(1))
        assert len(report.points) == 1
        assert report.points[0].median_s > 0
        assert report.points[0].mad_s >= 0
        assert report.slope is None
        assert report.slope_stderr is None
        assert report.ci95() is None

    def test_two_sizes_have_slope_but_no_stderr(self):
        report = bench_tau("perm-direct", [16, 32], repetitions=5, source=RandomSource(1))
        assert report.slope is not None
        assert report.slope_stderr is None

    def test_rejection_ids_benchable_at_large_orders(self):
        # bench times a single attempt, so acceptance odds are irrelevant
        report = bench_tau("sigma-rejection", [6], repetitions=3, source=RandomSource(1))
        assert report.points[0].median_s > 0
        report = bench_tau("sudoku-rejection", [4], repetitions=3, source=RandomSource(1))
        assert report.points[0].median_s > 0

    def test_check_bodies_run(self):
        report = bench_tau("perm-check", [64], repetitions=5, source=RandomSource(1))
        assert report.points[0].median_s > 0
        report = bench_tau("sigma-check", [2], repetitions=5, source=RandomSource(1))
        assert report.points[0].median_s > 0

    def test_perm_check_scales_linearly(self):
        report = bench_tau(
            "perm-check", [128, 256, 512, 1024], repetitions=30, source=RandomSource(42)
        )
        assert report.slope is not None
        assert 0.5 <= report.slope <= 1.5
        assert report.slope_stderr is not None and report.slope_stderr >= 0
        low, high = report.ci95()
        assert low <= report.slope <= high

    def test_dict_schema(self):
        report = bench_tau("perm-direct", [8, 16, 32], repetitions=5, source=RandomSource(9))
        d = report.to_dict()
        assert list(d.keys()) == [
            "generator_id",
            "repetitions",
            "points",
            "slope",
            "slope_stderr",
            "slope_ci95",
            "intercept",
            "seed",
        ]
        assert [p["n"] for p in d["points"]] == [8, 16, 32]
        assert d["slope_ci95"] == list(report.ci95())
        assert d["seed"] == 9

    def test_two_warm_up_runs_before_the_timed_ones(self):
        src = RandomSource(1)
        bench_tau("perm-direct", [5], repetitions=3, source=src)
        assert src.draws == (2 + 3) * 5

    def test_estimate_and_bench_reports_refuse_assignment(self):
        estimate = estimate_p("perm-rejection", 2, 100, RandomSource(5))
        bench = bench_tau("perm-direct", [4, 8], repetitions=2, source=RandomSource(9))
        for report, name in ((estimate, "successes"), (bench, "slope")):
            with pytest.raises(AttributeError):
                setattr(report, name, 0)

    def test_default_source_records_its_seed(self):
        report = bench_tau("perm-direct", [4], repetitions=2)
        assert report.seed is not None
