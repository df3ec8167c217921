"""Pi matrices: shape/membership checks, generators, disjointness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedSource, as_key
from sudogen import (
    BudgetExhaustedError,
    RandomSource,
    check_pi,
    enumerate_pi,
    gen_perm_direct,
    gen_pi_direct,
    gen_pi_rejection,
    is_pi,
    phi,
    pi_disjoint,
    pi_order,
    sigma_disjoint,
)


class TestShapeAndMembership:
    def test_order_of_smallest(self):
        assert pi_order([[1], [1]]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pi_order([])

    def test_odd_row_count_rejected(self):
        with pytest.raises(ValueError):
            pi_order([[1, 2], [2, 1], [1, 2]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            pi_order([[1, 2], [2, 1], [1, 2], [1]])

    def test_check_pi_rejects_non_permutation_row(self):
        with pytest.raises(ValueError):
            check_pi([[1, 1], [1, 2], [2, 1], [2, 1]])

    def test_is_pi(self):
        assert is_pi([[1, 2], [2, 1], [1, 2], [2, 1]])
        assert not is_pi([[1, 1], [1, 2], [2, 1], [2, 1]])
        assert not is_pi([[9, 2], [1, 2], [2, 1], [2, 1]])
        assert not is_pi([[1, 2], [2, 1]])


class TestRejectionGenerator:
    def test_n1_unique_matrix(self):
        rows, iterations = gen_pi_rejection(1, RandomSource(4))
        assert rows == [[1], [1]]
        assert iterations == 1

    def test_scripted_fills_every_cell_before_checking(self):
        # attempt 1 starts with an invalid row yet still consumes all
        # 2n^2 = 8 cells; attempt 2 is valid
        bad = [1, 1, 1, 2, 2, 1, 2, 1]
        good = [1, 2, 2, 1, 1, 2, 2, 1]
        src = ScriptedSource(bad + good)
        rows, iterations = gen_pi_rejection(2, src)
        assert rows == [[1, 2], [2, 1], [1, 2], [2, 1]]
        assert iterations == 2
        assert src.draws == 16

    def test_budget_exhausted(self):
        src = ScriptedSource([1, 1, 1, 2, 2, 1, 2, 1] * 2)
        with pytest.raises(BudgetExhaustedError):
            gen_pi_rejection(2, src, max_iterations=2)

    def test_mean_iterations_n2(self):
        # expected 1/p = 16; 3 sigma of the mean over 10^4 runs ~ 0.465
        src = RandomSource(404)
        total = sum(gen_pi_rejection(2, src)[1] for _ in range(10_000))
        assert abs(total / 10_000 - 16.0) <= 0.465

    def test_accepted_rows_are_permutations(self):
        src = RandomSource(11)
        for _ in range(50):
            rows, _ = gen_pi_rejection(2, src)
            assert all(sorted(row) == [1, 2] for row in rows)


class TestDirectGenerator:
    def test_shape_and_draws(self):
        src = RandomSource(8)
        rows = gen_pi_direct(5, src)
        assert len(rows) == 10
        assert all(len(row) == 5 for row in rows)
        assert src.draws == 2 * 5 * 5

    # the ids name the decode each row goes through: the shift deletion
    @pytest.mark.parametrize("n", [1, 2, 3, 7], ids="{}-shift".format)
    def test_rows_are_direct_permutations_of_one_stream(self, n):
        batched = RandomSource(n)
        single = RandomSource(n)
        rows = gen_pi_direct(n, batched)
        assert rows == [gen_perm_direct(n, single) for _ in range(2 * n)]
        assert batched.draws == single.draws
        assert batched.uniform_int(2**30) == single.uniform_int(2**30)

    @given(
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=80)
    def test_always_valid(self, n, seed):
        assert is_pi(gen_pi_direct(n, RandomSource(seed)))

    def test_coverage_uniformity_n2(self):
        # 16 matrices over 160000 runs: each within 3 sigma ~ 290.5 of 10000
        src = RandomSource(505)
        counts = {}
        for _ in range(160_000):
            key = as_key(gen_pi_direct(2, src))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        for key, c in counts.items():
            assert abs(c - 10_000) <= 290.5, (key, c)


class TestDisjointness:
    def test_never_disjoint_from_itself(self, pi16):
        for rows in pi16:
            assert not pi_disjoint(rows, rows)

    def test_order_one_pair(self):
        assert not pi_disjoint([[1], [1]], [[1], [1]])

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            pi_disjoint([[1], [1]], [[1, 2], [2, 1], [1, 2], [2, 1]])

    def test_known_disjoint_pair(self):
        a = [[1, 2], [1, 2], [1, 2], [1, 2]]
        b = [[2, 1], [2, 1], [1, 2], [1, 2]]
        # selector pairs differ at every (s, t)
        assert pi_disjoint(a, b)

    @given(data=st.data())
    @settings(max_examples=100)
    def test_symmetric(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        s1 = data.draw(st.integers(min_value=0, max_value=2**32))
        s2 = data.draw(st.integers(min_value=0, max_value=2**32))
        p = gen_pi_direct(n, RandomSource(s1))
        q = gen_pi_direct(n, RandomSource(s2))
        assert pi_disjoint(p, q) == pi_disjoint(q, p)

    def test_disjoint_pair_count_matches_sigma_level(self, pi16):
        # the same count must come out whether pairs are compared at the
        # pi level or after mapping both through the block bijection
        images = [phi(rows) for rows in pi16]
        pi_count = 0
        sigma_count = 0
        for i in range(16):
            for j in range(i + 1, 16):
                pi_count += pi_disjoint(pi16[i], pi16[j])
                sigma_count += sigma_disjoint(images[i], images[j])
        assert pi_count == sigma_count


class TestEnumeration:
    def test_sixteen_distinct_at_n2(self, pi16):
        assert len(pi16) == 16
        assert len({as_key(rows) for rows in pi16}) == 16
        assert all(is_pi(rows) for rows in pi16)

    def test_first_is_all_identity_rows(self, pi16):
        assert pi16[0] == [[1, 2], [1, 2], [1, 2], [1, 2]]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            list(enumerate_pi(0))

    def test_order_one(self):
        assert list(enumerate_pi(1)) == [[[1], [1]]]
