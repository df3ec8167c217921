"""Permutation check and generators: oracles, draw counts, statistics."""

from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sudogen.perm as perm_mod
from conftest import ScriptedSource
from sudogen import (
    BudgetExhaustedError,
    RandomSource,
    gen_perm_direct,
    gen_perm_rejection,
    gen_pi_direct,
    is_permutation,
)
from sudogen.perm import _decode_loop, _perm_rows


class TestIsPermutation:
    def test_identity_is_permutation(self):
        assert is_permutation([1, 2, 3])

    def test_duplicate_rejected(self):
        assert not is_permutation([2, 2, 3])

    def test_singleton(self):
        assert is_permutation([1])

    def test_wrong_length_with_explicit_n(self):
        assert not is_permutation([1, 2], 3)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            is_permutation([1, 7, 3])
        with pytest.raises(ValueError):
            is_permutation([0, 2, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_permutation([])
        with pytest.raises(ValueError):
            is_permutation([1], 0)

    def test_exactly_six_of_27_triples(self):
        # 3! of the 3^3 possible triples are permutations
        hits = sum(
            1 for t in product((1, 2, 3), repeat=3) if is_permutation(list(t))
        )
        assert hits == 6

    def test_agrees_with_naive_all_pairs_oracle(self):
        # exhaustive over every in-range tuple up to n = 4
        for n in (1, 2, 3, 4):
            for t in product(range(1, n + 1), repeat=n):
                naive = all(t[i] != t[j] for i in range(n) for j in range(i + 1, n))
                assert is_permutation(list(t)) == naive


class TestRejectionGenerator:
    def test_n1_first_try(self):
        perm, iterations = gen_perm_rejection(1, RandomSource(9))
        assert perm == [1]
        assert iterations == 1

    def test_scripted_retry(self):
        # first attempt (1,1) fails, second (2,1) is a permutation
        src = ScriptedSource([1, 1, 2, 1])
        perm, iterations = gen_perm_rejection(2, src)
        assert perm == [2, 1]
        assert iterations == 2
        assert src.exhausted

    def test_budget_exhausted(self):
        src = ScriptedSource([1, 1] * 3)
        with pytest.raises(BudgetExhaustedError):
            gen_perm_rejection(2, src, max_iterations=3)

    def test_budget_not_hit_on_success(self):
        perm, iterations = gen_perm_rejection(2, ScriptedSource([1, 2]), max_iterations=1)
        assert perm == [1, 2] and iterations == 1

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gen_perm_rejection(0, RandomSource(0))

    def test_mean_iterations_n3(self):
        # expected 27/6 = 4.5; 3 sigma of the mean over 10^4 runs ~ 0.119
        src = RandomSource(101)
        total = sum(gen_perm_rejection(3, src)[1] for _ in range(10_000))
        assert abs(total / 10_000 - 4.5) <= 0.119

    def test_output_frequencies_n2(self):
        # each of the two permutations ~5000 out of 10^4, 3 sigma = 150
        src = RandomSource(202)
        count_12 = 0
        for _ in range(10_000):
            perm, _ = gen_perm_rejection(2, src)
            if perm == [1, 2]:
                count_12 += 1
        assert abs(count_12 - 5000) <= 150


class TestDirectGenerator:
    def test_hand_executed_all_ones(self):
        # picking position 1 each time walks the pool in order
        assert gen_perm_direct(3, ScriptedSource([1, 1, 1])) == [1, 2, 3]

    def test_hand_executed_shift(self):
        # pool [1,2,3]: take 2 -> [1,3]; take 3 -> [1]; take 1
        assert gen_perm_direct(3, ScriptedSource([2, 2, 1])) == [2, 3, 1]

    def test_draw_sizes_shrink_by_one(self):
        src = ScriptedSource([1] * 6)
        gen_perm_direct(6, src)
        assert src.calls == [6, 5, 4, 3, 2, 1]

    def test_exactly_n_draws(self):
        src = RandomSource(5)
        gen_perm_direct(17, src)
        assert src.draws == 17

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gen_perm_direct(0, RandomSource(0))

    @given(
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=100)
    def test_always_a_permutation(self, n, seed):
        src = RandomSource(seed)
        assert is_permutation(gen_perm_direct(n, src))
        assert src.draws == n

    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejection_output_valid(self, n, seed):
        # acceptance odds n!/n^n shrink fast, so stay small (~1.5% at n=6)
        perm, iterations = gen_perm_rejection(n, RandomSource(seed), max_iterations=100_000)
        assert is_permutation(perm)
        assert iterations >= 1

    def test_uniformity_n4_100k(self):
        # 100000/24 ~ 4166.7 per permutation; 3 sigma ~ 189.5
        src = RandomSource(303)
        counts = {}
        for _ in range(100_000):
            key = tuple(gen_perm_direct(4, src))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        for key, c in counts.items():
            assert abs(c - 100_000 / 24) <= 189.5, (key, c)


class TestDecodeTable:
    """Orders up to 4 decode through a table; it must change no value."""

    # the ids name the decode these tests exercise: the shift deletion
    @pytest.mark.parametrize("n", [1, 2, 3, 4], ids="{}-shift".format)
    def test_every_run_decodes_as_the_loop_does(self, n):
        # product lists the runs in rank order (RandomSource.perm_ranks)
        runs = list(product(*[range(1, k + 1) for k in range(n, 0, -1)]))
        rows = _perm_rows(n)
        assert len(rows) == len(set(rows)) == factorial(n)
        for run, row in zip(runs, rows, strict=True):
            assert list(row) == _decode_loop(list(run), n)[0]

    # orders 1-4 draw ranks, 5 and 6 one uniform_seq run: both sides of the cutoff
    @pytest.mark.parametrize("n", range(1, 7), ids="{}-shift".format)
    def test_seeded_generators_return_the_loop_rows(self, n):
        for gen, bounds in (
            (gen_perm_direct, range(n, 0, -1)),
            (gen_pi_direct, tuple(range(n, 0, -1)) * (2 * n)),
        ):
            for seed in range(200):
                src, ref = RandomSource(seed), RandomSource(seed)
                script = ref.uniform_seq(bounds)
                rows = _decode_loop(script, n)
                want = rows if gen is gen_pi_direct else rows[0]
                assert gen(n, src) == want
                assert src.draws == ref.draws
                assert src._getrandbits(32) == ref._getrandbits(32)
            scripted = ScriptedSource(script)
            assert gen(n, scripted) == want
            assert scripted.calls == list(bounds)

    def test_rows_are_fresh_lists(self):
        rows = gen_pi_direct(2, ScriptedSource([1, 1] * 4))
        rows[0][0] = 99
        assert rows[1] == [1, 2]
        assert gen_perm_direct(2, ScriptedSource([1, 1])) == [1, 2]

    def test_larger_orders_run_the_loop(self, monkeypatch):
        # criterion 9 times the shift decode at sizes 64 and up
        def refuse(n):
            raise AssertionError(f"table built for order {n}")

        monkeypatch.setattr(perm_mod, "_perm_rows", refuse)
        assert is_permutation(gen_perm_direct(64, RandomSource(1)))
        assert len(gen_pi_direct(64, RandomSource(1))) == 128
        assert is_permutation(gen_perm_direct(5, RandomSource(1)))
        with pytest.raises(AssertionError, match="table built for order 4"):
            gen_perm_direct(4, RandomSource(1))
        with pytest.raises(AssertionError, match="table built for order 4"):
            gen_pi_direct(4, RandomSource(1))
