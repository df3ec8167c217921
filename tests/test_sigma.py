"""Block permutation matrices: bijection, membership, disjointness."""

import copy
import math
import pickle
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MALFORMED_SIGMA,
    ScriptedSource,
    reference_ones,
    reference_phi_inverse,
    reference_phi_mask,
    reference_to_rows,
)
from sudogen import (
    BudgetExhaustedError,
    InfeasibleError,
    RandomSource,
    SigmaMatrix,
    enumerate_sigma,
    gen_pi_direct,
    gen_sigma_rejection,
    is_sigma,
    phi,
    phi_inverse,
    sigma_disjoint,
)
from sudogen.sigma import _phi_mask, block_order


def perm_matrix(p):
    """Dense 4x4 permutation matrix with row i's 1 in column p[i] (0-based)."""
    size = len(p)
    return [[1 if j == p[i] else 0 for j in range(size)] for i in range(size)]


class TestSigmaMatrixType:
    def test_from_rows_round_trip(self):
        rows = [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]]
        m = SigmaMatrix.from_rows(rows)
        assert m.n == 2
        assert m.side == 4
        assert m.to_rows() == rows

    def test_from_rows_rejects_invalid(self):
        with pytest.raises(ValueError):
            SigmaMatrix.from_rows(perm_matrix([0, 1, 2, 3]))  # identity: block sums 2,0,0,2

    def test_from_ones(self):
        m = SigmaMatrix.from_ones(2, [(1, 1), (2, 4), (4, 2), (3, 3)])
        assert m.ones() == [(1, 1), (2, 4), (3, 3), (4, 2)]

    def test_from_ones_out_of_range(self):
        with pytest.raises(ValueError):
            SigmaMatrix.from_ones(2, [(0, 1), (2, 4), (4, 2), (3, 3)])

    def test_from_ones_wrong_count(self):
        with pytest.raises(ValueError):
            SigmaMatrix.from_ones(2, [(1, 1)])

    def test_ones_sorted_by_row(self):
        m = SigmaMatrix.from_ones(2, [(4, 2), (1, 1), (3, 3), (2, 4)])
        assert m.ones() == [(1, 1), (2, 4), (3, 3), (4, 2)]

    def test_value_semantics(self):
        a, b, c = SigmaMatrix(2, 5), SigmaMatrix(2, 5), SigmaMatrix(2, 6)
        assert a == b and hash(a) == hash(b)
        assert a != c and SigmaMatrix(3, 5) != a
        assert len({a, b, c}) == 2
        assert a == (2, 5)  # a named tuple
        assert repr(a) == "SigmaMatrix(n=2, mask=5)"

    def test_immutable(self):
        m = SigmaMatrix(2, 5)
        with pytest.raises(AttributeError):
            m.mask = 6
        with pytest.raises(AttributeError):
            del m.n
        with pytest.raises(AttributeError):
            m.extra = 1
        assert m == SigmaMatrix(2, 5)

    def test_pickle_and_copy(self):
        m = phi([[1, 2], [2, 1], [1, 2], [2, 1]])
        for clone in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert clone == m and type(clone) is SigmaMatrix


class TestPhi:
    def test_order_one(self):
        assert phi([[1], [1]]).to_rows() == [[1]]

    def test_hand_executed_example(self):
        rows = [[1, 2], [2, 1], [1, 2], [2, 1]]
        assert phi(rows).ones() == [(1, 1), (2, 4), (3, 3), (4, 2)]

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            phi([[1, 1], [1, 2], [2, 1], [2, 1]])

    def test_injective_on_all_16(self, pi16, sigma16):
        assert len({m.mask for m in sigma16}) == 16

    def test_every_image_is_valid(self, sigma16):
        for m in sigma16:
            assert is_sigma(m.to_rows())

    def test_image_equals_independent_filter(self, sigma16):
        # of the 24 4x4 permutation matrices, exactly the 16 with one 1
        # per block are reachable, and none other
        image = {m.mask for m in sigma16}
        filtered = set()
        for p in permutations(range(4)):
            rows = perm_matrix(p)
            if is_sigma(rows):
                filtered.add(SigmaMatrix.from_rows(rows).mask)
        assert filtered == image
        assert len(filtered) == 16


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
    def test_image_has_the_selected_ones(self, n):
        # every order computes each block's bit by the same formula
        rows = gen_pi_direct(n, RandomSource(n))
        ones = [
            (s * n + rows[s][t], t * n + rows[n + t][s]) for s in range(n) for t in range(n)
        ]
        assert phi(rows) == SigmaMatrix.from_ones(n, ones)


class TestPhiMaskMatchesReference:
    def test_every_order_two_matrix(self, pi16):
        for rows in pi16:
            assert _phi_mask(rows, 2) == reference_phi_mask(rows, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_seeded_orders(self, n):
        for seed in range(20):
            rows = gen_pi_direct(n, RandomSource(seed))
            assert _phi_mask(rows, n) == reference_phi_mask(rows, n)


class TestPhiInverse:
    def test_round_trip_all_16(self, pi16, sigma16):
        for rows, m in zip(pi16, sigma16):
            assert phi_inverse(m) == rows
            assert phi(phi_inverse(m)).mask == m.mask

    def test_order_one(self):
        assert phi_inverse(SigmaMatrix.from_rows([[1]])) == [[1], [1]]

    @given(
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=60)
    def test_round_trip_random(self, n, seed):
        rows = gen_pi_direct(n, RandomSource(seed))
        assert phi_inverse(phi(rows)) == rows

    def test_round_trip_order_24(self):
        rows = gen_pi_direct(24, RandomSource(24))
        assert phi_inverse(phi(rows)) == rows

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            phi_inverse(SigmaMatrix(2, 0))

    def test_double_one_block_rejected(self):
        # two 1s inside block (1,1)
        with pytest.raises(ValueError):
            phi_inverse(SigmaMatrix(2, 0b11))

    def test_row_conflict_rejected(self):
        # one 1 per block but global column 1 used twice
        bad = SigmaMatrix(2, (1 << 0) | (1 << 6) | (1 << 8) | (1 << 14))
        with pytest.raises(ValueError):
            phi_inverse(bad)


READERS = [
    pytest.param(SigmaMatrix.ones, reference_ones, id="ones"),
    pytest.param(SigmaMatrix.to_rows, reference_to_rows, id="to_rows"),
    pytest.param(phi_inverse, reference_phi_inverse, id="phi_inverse"),
]


class TestReadersMatchReference:
    """The mask readers against the per-bit readers of the test suite:
    same values, or the same ValueError messages."""

    @pytest.mark.parametrize("read, reference", READERS)
    def test_every_order_two_matrix(self, sigma16, read, reference):
        for m in sigma16:
            assert read(m) == reference(m)

    @pytest.mark.parametrize("read, reference", READERS)
    @pytest.mark.parametrize("n", range(1, 10))
    def test_seeded_orders(self, n, read, reference):
        for seed in range(3):
            m = phi(gen_pi_direct(n, RandomSource(seed)))
            assert read(m) == reference(m)

    @pytest.mark.parametrize("read, reference", READERS)
    @pytest.mark.parametrize("name", MALFORMED_SIGMA)
    def test_malformed_masks(self, name, read, reference):
        m = MALFORMED_SIGMA[name]
        assert outcome(read, m) == outcome(reference, m)

    @pytest.mark.parametrize(
        "name, error",
        [
            ("empty-block-2", "block (1, 1) has no 1"),
            ("empty-block-3", "block (1, 1) has no 1"),
            ("doubled-block-2", "block (1, 1) has more than one 1"),
            ("doubled-block-3", "block (1, 1) has more than one 1"),
            ("empty-before-doubled-2", "block (1, 2) has no 1"),
            ("row-conflict-2", "input is not a block permutation matrix (row 3 conflict)"),
        ],
    )
    def test_phi_inverse_names_the_first_fault(self, name, error):
        assert outcome(phi_inverse, MALFORMED_SIGMA[name]) == f"ValueError: {error}"


class TestIsSigma:
    def test_unit_matrix(self):
        assert is_sigma([[1]])

    def test_identity_fails_block_constraint(self):
        assert not is_sigma(perm_matrix([0, 1, 2, 3]))

    def test_valid_example(self):
        assert is_sigma(perm_matrix([0, 3, 1, 2]))

    def test_non_square_side_rejected(self):
        with pytest.raises(ValueError):
            is_sigma([[1, 0], [0, 1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_sigma([])

    def test_non_binary_entry_rejected(self):
        with pytest.raises(ValueError):
            is_sigma([[2]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            is_sigma([[1, 0, 0, 0], [0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_row_of_zeros_fails(self):
        rows = [[0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]]
        assert not is_sigma(rows)

    def test_column_with_two_ones_fails(self):
        rows = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert not is_sigma(rows)

    def test_sixteen_of_24_permutation_matrices(self):
        hits = sum(1 for p in permutations(range(4)) if is_sigma(perm_matrix(p)))
        assert hits == 16


def reference_is_sigma(rows):
    """The per-entry is_sigma that the set-based one replaced."""
    n = block_order(rows)
    side = n * n
    for i, row in enumerate(rows, start=1):
        for v in row:
            if v not in (0, 1):
                raise ValueError(f"entry {v!r} in row {i} is not binary")
    for i in range(side):
        r = 0
        c = 0
        for j in range(side):
            r += rows[i][j]
            if r > 1:
                return False
            c += rows[j][i]
            if c > 1:
                return False
        if r == 0 or c == 0:
            return False
    for s in range(n):
        for t in range(n):
            x = 0
            for i in range(n):
                for j in range(n):
                    x += rows[s * n + i][t * n + j]
            if x != 1:
                return False
    return True


ODD_ENTRIES = [2, -1, 0.5, 1.0, 0.0, True, False, "1", None, [], {}, (1,)]


@st.composite
def dense_candidates(draw):
    """Square 0/1 matrices, mostly of perfect-square side: random, valid
    block permutation matrices, or permutation matrices that may break
    the block rule; then perturbed by flipped or odd entries, or one row
    made ragged."""
    side = draw(st.sampled_from([1, 2, 3, 4, 4, 9]))
    base = draw(st.sampled_from(["random", "sigma", "permutation"]))
    if base == "sigma" and side in (1, 4, 9):
        n = {1: 1, 4: 2, 9: 3}[side]
        rows = phi(gen_pi_direct(n, RandomSource(draw(st.integers(0, 2**32))))).to_rows()
    elif base == "permutation":
        rows = perm_matrix(draw(st.permutations(range(side))))
    else:
        rows = [[draw(st.sampled_from([0, 1])) for _ in range(side)] for _ in range(side)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, side - 1))
        j = draw(st.integers(0, side - 1))
        rows[i][j] = draw(st.sampled_from([0, 1] + ODD_ENTRIES))
    if draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, side - 1))].pop()
    return rows


def outcome(check, rows):
    try:
        return check(rows)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(rows=dense_candidates())
@settings(max_examples=500)
def test_is_sigma_agrees_with_reference(rows):
    assert outcome(is_sigma, rows) == outcome(reference_is_sigma, rows)


def test_is_sigma_names_an_unhashable_entry():
    rows = phi([[1, 2], [2, 1], [2, 1], [1, 2]]).to_rows()
    assert is_sigma(rows)
    rows[3][0] = []
    with pytest.raises(ValueError, match=r"entry \[\] in row 4 is not binary"):
        is_sigma(rows)


class TestSigmaDisjoint:
    def test_never_disjoint_from_itself(self, sigma16):
        for m in sigma16:
            assert not sigma_disjoint(m, m)

    def test_known_disjoint_pair(self):
        a = SigmaMatrix.from_ones(2, [(1, 1), (2, 4), (4, 2), (3, 3)])
        b = SigmaMatrix.from_ones(2, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert sigma_disjoint(a, b)
        assert sigma_disjoint(b, a)

    def test_order_mismatch(self):
        a = SigmaMatrix.from_rows([[1]])
        b = SigmaMatrix.from_ones(2, [(1, 1), (2, 4), (4, 2), (3, 3)])
        with pytest.raises(ValueError):
            sigma_disjoint(a, b)


class TestRejectionGenerator:
    def test_scripted_order_one(self):
        # first bit 0 (draw 1) is not a matrix; second bit 1 (draw 2) is
        src = ScriptedSource([1, 2])
        m, iterations = gen_sigma_rejection(1, src)
        assert m.to_rows() == [[1]]
        assert iterations == 2
        assert src.exhausted

    def test_scripted_budget(self):
        with pytest.raises(BudgetExhaustedError):
            gen_sigma_rejection(1, ScriptedSource([1, 1]), max_iterations=2)

    def test_mean_iterations_n1(self):
        # p = 1/2, expected 2 iterations; 3 sigma of the mean ~ 0.0424
        src = RandomSource(606)
        total = 0
        for _ in range(10_000):
            m, iterations = gen_sigma_rejection(1, src)
            assert is_sigma(m.to_rows())
            total += iterations
        assert abs(total / 10_000 - 2.0) <= 0.0424

    def test_mean_iterations_n2_over_200_successes(self):
        # p = 16/65536, expected 4096; 3 sigma of the mean over 200 ~ 869
        src = RandomSource(707)
        total = 0
        for _ in range(200):
            m, iterations = gen_sigma_rejection(2, src)
            assert is_sigma(m.to_rows())
            total += iterations
        assert abs(total / 200 - 4096.0) <= 869

    def test_order_three_refused(self):
        with pytest.raises(InfeasibleError) as exc_info:
            gen_sigma_rejection(3, RandomSource(0))
        expected = exc_info.value.expected_iterations
        # 2^81 / 6^6 ~ 5.18e19
        assert expected == pytest.approx(2**81 / 6**6, rel=1e-12)

    def test_orders_past_float_range_refused_by_power_of_ten(self):
        # 1/p = 2^(n^4)/(n!)^(2n) overflows a float from order 6 on
        assert 10**355 < 2**1296 // 720**12 < 10**357
        with pytest.raises(InfeasibleError, match=r"1/10\^356; expected 10\^356 iterations"):
            gen_sigma_rejection(6, RandomSource(0))
        # 2^(n^4) would have 10^16 bits here
        start = time.perf_counter()
        with pytest.raises(InfeasibleError) as exc_info:
            gen_sigma_rejection(10**4, RandomSource(0))
        assert time.perf_counter() - start < 1.0
        assert exc_info.value.expected_iterations == math.inf


class TestEnumeration:
    def test_sixteen_distinct_valid(self):
        matrices = list(enumerate_sigma(2))
        assert len(matrices) == 16
        assert len({m.mask for m in matrices}) == 16
        assert all(is_sigma(m.to_rows()) for m in matrices)

    @given(
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=40)
    def test_block_structure_of_images(self, n, seed):
        rows = phi(gen_pi_direct(n, RandomSource(seed))).to_rows()
        side = n * n
        for i in range(side):
            assert sum(rows[i]) == 1
            assert sum(rows[j][i] for j in range(side)) == 1
        for s in range(n):
            for t in range(n):
                block = sum(
                    rows[s * n + i][t * n + j] for i in range(n) for j in range(n)
                )
                assert block == 1
