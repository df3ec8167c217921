"""Sudoku matrices: validity, layer calculus, generators, enumeration."""

import copy
import gc
import math
import pickle
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from conftest import ScriptedSource, as_key
from sudogen import (
    BudgetExhaustedError,
    CompositionError,
    DisjointStack,
    GenStats,
    InfeasibleError,
    RandomSource,
    RestartPolicy,
    SigmaMatrix,
    chi_square_uniform,
    compose,
    decompose,
    enumerate_sigma,
    enumerate_sudoku,
    gen_perm_direct,
    gen_pi_direct,
    gen_sudoku,
    gen_sudoku_rejection,
    is_sigma,
    is_sudoku,
    iter_sudoku,
    phi,
    sigma_disjoint,
    sudoku_order,
)
import sudogen.sudoku as sudoku_mod
from sudogen.sudoku import _LIST_CAP, _count_layers, _fitting_layers, _listed_layers

EXAMPLE = [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]

# pi matrices whose images are the four value layers of EXAMPLE
PI_L1 = [[1, 2], [1, 2], [1, 2], [1, 2]]
PI_L2 = [[1, 2], [1, 2], [2, 1], [2, 1]]
PI_L3 = [[2, 1], [2, 1], [1, 2], [1, 2]]
PI_L4 = [[2, 1], [2, 1], [2, 1], [2, 1]]

# draw scripts reproducing those pi matrices through the direct generator
DRAWS_L1 = [1, 1, 1, 1, 1, 1, 1, 1]
DRAWS_L2 = [1, 1, 1, 1, 2, 1, 2, 1]
DRAWS_L3 = [2, 1, 2, 1, 1, 1, 1, 1]
DRAWS_L4 = [2, 1, 2, 1, 2, 1, 2, 1]

# order 3: all-ones draws make layer 1 (18 draws, ranges 3, 2, 1 per
# row); rank 1 at every later layer then completes a stack, while the
# ranks in DEAD3 pick layers 2..7 so that no eighth layer fits
ONES3 = [1] * 18
CALLS3 = [3, 2, 1] * 6
FIRST3_TOTALS = [17972, 6560, 2020, 608, 244, 216, 8]
DEAD3 = [732, 209, 1331, 278, 2, 4]
DEAD3_TOTALS = [17972, 6480, 2044, 469, 76, 7]


def example_layers():
    return [phi(PI_L1), phi(PI_L2), phi(PI_L3), phi(PI_L4)]


def pattern_grid(n, source):
    """Canonical order-n Sudoku pattern under random digit, band, stack,
    row and column permutations, each of which preserves validity."""
    side = n * n

    def perm0(k):
        return [v - 1 for v in gen_perm_direct(k, source)]

    digits = gen_perm_direct(side, source)
    rows = [band * n + r for band in perm0(n) for r in perm0(n)]
    cols = [stack * n + c for stack in perm0(n) for c in perm0(n)]
    return [[digits[(n * (r % n) + r // n + c) % side] for c in cols] for r in rows]


def layered_law(masks, side):
    """Exact law of the layered process over a list of all sigma masks.

    Each step picks uniformly among the masks disjoint from the stack so
    far.  Returns ``(law, dead)``: the probability of each composed grid
    and the total probability of reaching a stack no mask extends.
    """
    law = Counter()
    dead = Fraction(0)

    def extend(stack, used, p):
        nonlocal dead
        if len(stack) == side:
            law[as_key(compose(stack))] += p
            return
        fits = [m for m in masks if not m.mask & used]
        if not fits:
            dead += p
            return
        for m in fits:
            extend(stack + [m], used | m.mask, p / len(fits))

    extend([], 0, Fraction(1))
    return law, dead


class TestShapeAndValidity:
    def test_order(self):
        assert sudoku_order([[1]]) == 1
        assert sudoku_order(EXAMPLE) == 2

    def test_bad_side(self):
        with pytest.raises(ValueError):
            sudoku_order([[1, 2], [2, 1]])
        with pytest.raises(ValueError):
            sudoku_order([])

    def test_ragged(self):
        with pytest.raises(ValueError):
            sudoku_order([[1, 2, 3, 4], [3, 4, 1, 2], [2, 1], [4, 3, 2, 1]])

    def test_unit_grid(self):
        assert is_sudoku([[1]])

    def test_example_valid(self):
        assert is_sudoku(EXAMPLE)

    def test_column_violation(self):
        assert not is_sudoku(
            [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 1, 2]]
        )

    def test_row_violation(self):
        assert not is_sudoku(
            [[1, 2, 3, 3], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]
        )

    def test_block_violation(self):
        # rows and columns are permutations but blocks are not
        latin = [[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]]
        assert not is_sudoku(latin)

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError):
            is_sudoku([[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 5]])
        with pytest.raises(ValueError):
            is_sudoku([[0]])


class TestComposeDecompose:
    def test_unit(self):
        layer = SigmaMatrix.from_rows([[1]])
        assert compose([layer]) == [[1]]
        assert decompose([[1]])[0].mask == layer.mask

    def test_decompose_example(self):
        layers = decompose(EXAMPLE)
        assert len(layers) == 4
        assert [m.mask for m in layers] == [m.mask for m in example_layers()]
        for i in range(4):
            for j in range(i + 1, 4):
                assert sigma_disjoint(layers[i], layers[j])

    def test_each_layer_one_per_block(self):
        for layer in decompose(EXAMPLE):
            assert len(layer.ones()) == 4

    def test_round_trip(self):
        assert compose(decompose(EXAMPLE)) == EXAMPLE

    def test_compose_rejects_overlap(self):
        layers = example_layers()
        layers[1] = layers[0]
        with pytest.raises(CompositionError) as exc_info:
            compose(layers)
        assert exc_info.value.position == (1, 1)

    def test_compose_rejects_uncovered_cell(self):
        # direct construction bypasses validation: four disjoint single-1
        # "layers" leave cell (2, 1) empty
        layers = [SigmaMatrix(2, 1 << b) for b in range(4)]
        with pytest.raises(CompositionError) as exc_info:
            compose(layers)
        assert exc_info.value.position == (2, 1)

    def test_compose_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            compose(example_layers()[:3])
        with pytest.raises(ValueError):
            compose([])

    def test_compose_rejects_mixed_orders(self):
        layers = example_layers()[:3] + [SigmaMatrix.from_rows([[1]])]
        with pytest.raises(ValueError):
            compose(layers)

    def test_decompose_rejects_invalid(self):
        with pytest.raises(ValueError):
            decompose([[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 1, 2]])

    def test_round_trip_on_sample_of_enumeration(self, sudoku288):
        for cells in sudoku288[::24]:
            assert compose(decompose(cells)) == cells

    def test_layers_are_sigma_on_all_order_two_grids(self, sudoku288):
        for cells in sudoku288:
            assert all(is_sigma(layer.to_rows()) for layer in decompose(cells))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_layers_are_sigma_on_seeded_grids(self, n):
        src = RandomSource(500 + n)
        for _ in range(3):
            cells = pattern_grid(n, src)
            layers = decompose(cells)
            assert len(layers) == n * n
            assert all(is_sigma(layer.to_rows()) for layer in layers)
            assert compose(layers) == cells


class TestDisjointStack:
    def test_occupancy_invariant(self):
        stack = DisjointStack(2)
        for k, layer in enumerate(example_layers(), start=1):
            assert stack.try_push(layer)
            assert stack.ones_count() == k * 4
        assert len(stack) == 4

    def test_rejects_overlapping(self):
        stack = DisjointStack(2)
        layer = example_layers()[0]
        assert stack.try_push(layer)
        assert not stack.try_push(layer)
        assert len(stack) == 1
        assert stack.ones_count() == 4

    def test_pop_restores_mask(self):
        stack = DisjointStack(2)
        l1, l2 = example_layers()[:2]
        stack.try_push(l1)
        stack.try_push(l2)
        assert stack.pop().mask == l2.mask
        assert stack.mask == l1.mask

    def test_clear(self):
        stack = DisjointStack(2)
        stack.try_push(example_layers()[0])
        stack.clear()
        assert len(stack) == 0 and stack.mask == 0

    def test_order_mismatch(self):
        stack = DisjointStack(2)
        with pytest.raises(ValueError):
            stack.try_push(SigmaMatrix.from_rows([[1]]))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            DisjointStack(0)

    @staticmethod
    def _elementwise_disjoint(a, b):
        # the definition: the dense sum a + b has no entry above 1
        return all(
            x + y <= 1
            for row_a, row_b in zip(a.to_rows(), b.to_rows())
            for x, y in zip(row_a, row_b)
        )

    def _check_push(self, a, b):
        stack = DisjointStack(a.n)
        assert stack.try_push(a)
        expected = self._elementwise_disjoint(a, b)
        assert stack.try_push(b) == expected
        assert len(stack) == 1 + expected
        assert stack.mask == (a.mask | b.mask if expected else a.mask)

    def test_try_push_matches_elementwise_sum_order_two(self, sigma16):
        for a in sigma16:
            for b in sigma16:
                self._check_push(a, b)

    def test_try_push_matches_elementwise_sum_order_three(self):
        src = RandomSource(313)
        layers = [phi(gen_pi_direct(3, src)) for _ in range(40)]
        outcomes = set()
        for a, b in zip(layers[::2], layers[1::2]):
            self._check_push(a, b)
            outcomes.add(self._elementwise_disjoint(a, b))
        # about 40% of random order-3 pairs are disjoint, so both occur
        assert outcomes == {True, False}
        # the complement of a layer stack is disjoint from all of it
        stack = DisjointStack(3)
        for layer in decompose(pattern_grid(3, src))[:8]:
            assert stack.try_push(layer)
        rest = SigmaMatrix(3, ((1 << 81) - 1) ^ stack.mask)
        assert all(self._elementwise_disjoint(rest, layer) for layer in stack.layers)
        assert stack.try_push(rest)


class TestFittingLayers:
    def test_order_two_matches_filter_on_every_reachable_stack(self, sigma16):
        masks = [m.mask for m in sigma16]
        full = (1 << 16) - 1
        stacks = {0}
        for depth in range(4):
            deeper = set()
            for used in stacks:
                expected = [m for m in masks if not m & used]
                listed = _fitting_layers(2, full ^ used, 16)
                assert sorted(listed) == sorted(expected)
                total, unrank = _count_layers(2, full ^ used)
                assert total == len(expected)
                assert [unrank(r) for r in range(1, total + 1)] == listed
                deeper.update(used | m for m in expected)
            stacks = deeper
        assert stacks == {full}

    def test_order_three_matches_brute_force_filter(self):
        masks = [m.mask for m in enumerate_sigma(3)]
        full = (1 << 81) - 1
        for seed in (0, 1):
            used = 0
            for layer in decompose(gen_sudoku(3, RandomSource(seed))[0])[:8]:
                used |= layer.mask
                expected = [m for m in masks if not m & used]
                listed = _fitting_layers(3, full ^ used, len(masks))
                assert sorted(listed) == sorted(expected)
                total, unrank = _count_layers(3, full ^ used)
                assert total == len(expected)
                assert [unrank(r) for r in range(1, total + 1)] == listed

    def test_none_past_cap(self, sigma16):
        full = (1 << 16) - 1
        free = full ^ sigma16[0].mask
        assert len(_fitting_layers(2, free, 7)) == 7
        assert _fitting_layers(2, free, 6) is None
        assert _fitting_layers(2, full, 15) is None
        # a dead end is an empty list, not None
        assert _fitting_layers(2, 0, 0) == []

    def test_order_four_stops_at_cap(self):
        # about 1.1e11 layers fit the empty order-4 grid; the walk stops
        # after cap + 1 of them
        t0 = time.perf_counter()
        assert _fitting_layers(4, (1 << 256) - 1, 1000) is None
        assert time.perf_counter() - t0 < 5.0

    def test_order_four_counts_the_empty_grid(self):
        # every one of the (4!)^8 order-4 layers fits the empty grid
        t0 = time.perf_counter()
        total, unrank = _count_layers(4, (1 << 256) - 1)
        assert total == 24**8 == 110_075_314_176
        assert time.perf_counter() - t0 < 5.0
        for r in (1, total // 3, total):
            assert is_sigma(SigmaMatrix(4, unrank(r)).to_rows())


    def test_dropped_count_table_needs_no_cycle_collector(self):
        # A count table's memo is freed by reference counting as soon as
        # the table is dropped, so restart runs do not pile up memos.
        free = ((1 << 81) - 1) ^ sudoku_mod.decompose(gen_sudoku(3, RandomSource(0))[0])[0].mask
        _count_layers(3, free)  # the per-order tables exist from here on
        gc.collect()
        gc.disable()
        try:
            total, unrank = _count_layers(3, free)
            assert total > 0 and unrank(total)
            ref = weakref.ref(unrank)
            del unrank
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRestartPolicy:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            RestartPolicy(mode="panic")
        with pytest.raises(ValueError):
            RestartPolicy("panic", 3)

    def test_value_semantics(self):
        assert RestartPolicy() == RestartPolicy("restart", None)
        assert RestartPolicy(mode="backtrack") != RestartPolicy()
        assert hash(RestartPolicy(max_restarts=2)) == hash(RestartPolicy("restart", 2))
        assert RestartPolicy() != ("restart", None)
        assert repr(RestartPolicy("backtrack", 2)) == (
            "RestartPolicy(mode='backtrack', max_restarts=2)"
        )

    def test_immutable(self):
        policy = RestartPolicy()
        with pytest.raises(AttributeError):
            policy.mode = "backtrack"
        with pytest.raises(AttributeError):
            del policy.max_restarts
        assert policy.mode == "restart"

    def test_pickle_and_copy(self):
        policy = RestartPolicy("backtrack", 4)
        for clone in (pickle.loads(pickle.dumps(policy)), copy.deepcopy(policy)):
            assert clone == policy


class TestGenStats:
    def test_defaults_and_repr(self):
        stats = GenStats(2, 7)
        assert stats.restarts == stats.candidates == 0
        assert stats.schema_version == 3
        assert repr(stats) == (
            "GenStats(n=2, seed=7, restarts=0, backtracks=0, candidates=0, "
            "exact_layers=0, wall_time_s=0.0, gen_time_s=0.0, check_time_s=0.0, "
            "schema_version=3)"
        )

    def test_mutable_compared_by_value_and_unhashable(self):
        a, b = GenStats(2, 7), GenStats(n=2, seed=7)
        assert a == b
        b.restarts += 1
        assert a != b
        assert a != a.to_dict()
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_pickle_round_trip(self):
        _, stats = gen_sudoku(2, RandomSource(3))
        assert pickle.loads(pickle.dumps(stats)) == stats


class TestLayeredGenerator:
    def test_order_one_trivial(self):
        cells, stats = gen_sudoku(1, RandomSource(0))
        assert cells == [[1]]
        assert stats.exact_layers == 0
        assert stats.candidates == 1
        assert stats.restarts == 0

    def test_scripted_forced_last_layer(self):
        # layer 1 is drawn, layers 2 and 3 take one index draw each into
        # the enumerated layers that fit (L2 and L3 come first), and the
        # fourth is the uncovered cells
        src = ScriptedSource(DRAWS_L1 + [1, 1])
        cells, stats = gen_sudoku(2, src)
        assert cells == EXAMPLE
        assert src.exhausted
        assert src.calls == [2, 1, 2, 1, 2, 1, 2, 1, 7, 4]
        assert stats.candidates == 4
        assert stats.exact_layers == 2

    def test_scripted_restart_path(self):
        # the DEAD3 stack dead-ends and is discarded; the second stack
        # takes rank 1 throughout.  Every total above 8 is counted.
        script = ONES3 + DEAD3 + ONES3 + [1] * 7
        src = ScriptedSource(script)
        cells, stats = gen_sudoku(3, src, RestartPolicy(mode="restart"))
        assert cells == gen_sudoku(3, ScriptedSource(ONES3 + [1] * 7))[0]
        assert src.exhausted
        assert src.calls == CALLS3 + DEAD3_TOTALS + CALLS3 + FIRST3_TOTALS
        assert stats.restarts == 1
        assert stats.backtracks == 0
        assert stats.candidates == 16
        assert stats.exact_layers == 13

    def test_scripted_backtrack_path(self):
        # a dead end at depth 7 pops layer 7 (rank 2 of 14); drawing rank
        # 2 again there is refused and redrawn
        script = ONES3 + [12030, 4496, 1440, 398, 48, 2] + [2, 1, 1]
        src = ScriptedSource(script)
        cells, stats = gen_sudoku(3, src, RestartPolicy(mode="backtrack"))
        assert is_sudoku(cells)
        assert src.exhausted
        assert src.calls == CALLS3 + [17972, 6170, 1558, 402, 75, 14] + [14, 14, 2]
        assert stats.restarts == 0
        assert stats.backtracks == 1
        assert stats.candidates == 10
        assert stats.exact_layers == 8

    def test_scripted_exhausted_stack(self):
        # each of the 4 layers that fit the depth-6 stack dead-ends: after
        # the fourth is popped that stack is itself a dead end, without a
        # draw, and layer 6 is popped in turn
        script = ONES3 + [15061, 2374, 45, 427, 72, 1] + [2, 3, 4] + [1, 1, 1]
        src = ScriptedSource(script)
        cells, stats = gen_sudoku(3, src, RestartPolicy(mode="backtrack"))
        assert is_sudoku(cells)
        assert src.exhausted
        assert src.calls == CALLS3 + [17972, 6033, 1858, 531, 80, 4] + [4, 4, 4] + [80, 26, 2]
        assert stats.restarts == 0
        assert stats.backtracks == 5
        assert stats.candidates == 14

    def test_scripted_budget_exhausted(self):
        src = ScriptedSource(ONES3 + DEAD3)
        policy = RestartPolicy(max_restarts=0)
        with pytest.raises(BudgetExhaustedError) as exc_info:
            gen_sudoku(3, src, policy)
        stats = exc_info.value.stats
        assert stats is not None
        assert stats.restarts == 1
        assert stats.candidates == 7
        assert stats.exact_layers == 6
        assert src.exhausted

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("mode", ["restart", "backtrack"])
    def test_dead_ends_are_exact_at_order_three(self, mode, seed, monkeypatch):
        # both seeds abandon stacks under both policies, and every
        # candidate is an epoch's layer 1, an exact pick or a forced last
        # layer.  Under backtracking, seed 2 pops a stack that layers still
        # fit, all of them dead ends, which only terminates because a
        # dead-ended layer is not picked again.
        full = (1 << 81) - 1
        popped = []
        pop = DisjointStack.pop

        def recording_pop(stack):
            popped.append(full ^ stack.mask)
            return pop(stack)

        monkeypatch.setattr(DisjointStack, "pop", recording_pop)
        cells, stats = gen_sudoku(3, RandomSource(seed), RestartPolicy(mode=mode))
        assert is_sudoku(cells)
        assert stats.restarts + stats.backtracks > 0
        assert stats.candidates == stats.exact_layers + stats.restarts + 2
        exhausted = [free for free in popped if _count_layers(3, free)[0] > 0]
        assert len(exhausted) == (mode == "backtrack" and seed == 2)

    @pytest.mark.parametrize("seed", [2, 4])
    @pytest.mark.parametrize("mode", ["restart", "backtrack"])
    def test_order_four(self, mode, seed):
        cells, stats = gen_sudoku(4, RandomSource(seed), RestartPolicy(mode=mode))
        assert is_sudoku(cells)
        assert stats.exact_layers == 14

    @pytest.mark.parametrize("n", [5, 16])
    def test_refused_above_order_four_before_building(self, n, monkeypatch):
        def boom(*args):
            raise AssertionError("built or counted a layer")

        monkeypatch.setattr(sudoku_mod, "_layer_tables", boom)
        monkeypatch.setattr(sudoku_mod, "_count_layers", boom)
        monkeypatch.setattr(sudoku_mod, "DisjointStack", boom)
        src = ScriptedSource([])
        with pytest.raises(InfeasibleError, match=f"at order {n} is out of reach"):
            gen_sudoku(n, src)
        assert src.calls == []

    @pytest.mark.parametrize("n,seed", [(1, 5), (2, 5), (3, 1)])
    def test_output_is_valid(self, n, seed):
        cells, stats = gen_sudoku(n, RandomSource(seed))
        assert is_sudoku(cells)
        assert stats.n == n
        assert stats.seed == seed
        assert stats.wall_time_s >= 0
        assert stats.gen_time_s >= 0
        assert stats.check_time_s >= 0

    def test_stats_accounting(self):
        # order 2 never dead-ends (test_exact_law_order_two), so a run
        # pushes its four layers and nothing else
        _, stats = gen_sudoku(2, RandomSource(12))
        assert (stats.candidates, stats.exact_layers) == (4, 2)
        assert stats.restarts == stats.backtracks == 0

    def test_stats_dict_schema(self):
        _, stats = gen_sudoku(2, RandomSource(1))
        d = stats.to_dict()
        assert list(d.keys()) == [
            "schema_version",
            "n",
            "seed",
            "restarts",
            "backtracks",
            "candidates",
            "exact_layers",
            "wall_time_s",
            "gen_time_s",
            "check_time_s",
        ]
        assert d["schema_version"] == 3
        # at order 2 layers 2 and 3 are always picked from an enumeration
        assert d["exact_layers"] == 2

    def test_exact_law_order_two(self, sigma16, sudoku288_keys):
        law, dead = layered_law(sigma16, 4)
        assert dead == 0
        assert set(law) == sudoku288_keys
        assert Counter(law.values()) == {Fraction(1, 224): 160, Fraction(1, 448): 128}

    def test_coverage_and_histogram_diagnostic(self, sigma16, sudoku288_keys):
        # every one of the 288 order-2 matrices is hit in 20 000 runs, and
        # the histogram fits the process's exact law (not the uniform one:
        # acceptance odds at layer three depend on the pair already on the
        # stack)
        law, _ = layered_law(sigma16, 4)
        src = RandomSource(808)
        samples = 20_000
        counts = Counter(as_key(gen_sudoku(2, src)[0]) for _ in range(samples))
        assert set(counts) == sudoku288_keys
        expected = {key: samples * float(p) for key, p in law.items()}
        stat = sum((counts[key] - e) ** 2 / e for key, e in expected.items())
        assert chi2.sf(stat, 287) > 1e-4
        # the same sample rejects the uniform law, so the test has power
        assert chi2.sf(chi_square_uniform(list(counts.values())), 287) < 1e-4


def seeded_runs(n, seeds, mode="restart", before=None):
    """Grids, stats counts, draws and next stream value of seeded runs."""
    out = []
    for seed in seeds:
        if before is not None:
            before()
        src = RandomSource(seed)
        cells, stats = gen_sudoku(n, src, RestartPolicy(mode=mode))
        counts = (stats.restarts, stats.backtracks, stats.candidates, stats.exact_layers)
        out.append((cells, counts, src.draws, src.uniform_int(2**40)))
    return out


class TestPickTables:
    def test_backtracking_counts_each_stack_once(self, monkeypatch):
        # seed 6 backtracks 1208 times over 45 distinct counted stacks;
        # recounting after every pop made 630 counts
        counted = []

        def spy(n, free):
            counted.append(free)
            return _count_layers(n, free)

        monkeypatch.setattr(sudoku_mod, "_count_layers", spy)
        cells, stats = gen_sudoku(4, RandomSource(6), RestartPolicy(mode="backtrack"))
        assert is_sudoku(cells)
        assert stats.backtracks == 1208
        assert len(counted) == len(set(counted)) <= 45

    @pytest.mark.parametrize(
        "n,seeds,mode",
        [(2, range(200), "restart"), (3, range(10), "restart"), (3, range(10), "backtrack")],
    )
    def test_cold_and_warm_memo_agree(self, n, seeds, mode):
        cold = seeded_runs(n, seeds, mode, before=_listed_layers.cache_clear)
        warm = seeded_runs(n, seeds, mode)
        assert warm == cold
        assert warm == seeded_runs(n, seeds, mode)

    def test_memo_is_bounded_and_holds_short_listings(self, monkeypatch):
        # every listing the generator asked for is a memo hit afterwards,
        # so looking them up again reads what the memo holds
        assert _listed_layers.cache_info().maxsize is not None
        listed = []

        def spy(n, free, cap):
            listed.append((n, free))
            return _fitting_layers(n, free, cap)

        monkeypatch.setattr(sudoku_mod, "_fitting_layers", spy)
        _listed_layers.cache_clear()
        seeded_runs(2, range(500))
        # only 64 free masks of order 2 are ever listed
        assert _listed_layers.cache_info().currsize == len(set(listed)) <= 64
        seeded_runs(3, range(2))
        size = _listed_layers.cache_info().currsize
        held = [_listed_layers(n, free) for n, free in set(listed)]
        assert _listed_layers.cache_info().currsize == size
        assert None in held
        for fits in held:
            assert fits is None or (
                isinstance(fits, tuple)
                and len(fits) <= _LIST_CAP
                and all(isinstance(m, int) for m in fits)
            )


class TestRejectionGenerator:
    def test_order_one(self):
        cells, iterations = gen_sudoku_rejection(1, RandomSource(2))
        assert cells == [[1]]
        assert iterations == 1

    def test_scripted_first_try(self):
        src = ScriptedSource(DRAWS_L1 + DRAWS_L2 + DRAWS_L3 + DRAWS_L4)
        cells, iterations = gen_sudoku_rejection(2, src)
        assert cells == EXAMPLE
        assert iterations == 1
        assert src.exhausted

    def test_scripted_budget_and_draw_count(self, monkeypatch):
        # every attempt draws all four layers (32 values), but decodes
        # them only up to layer 2, the first that overlaps
        decoded = []

        def counting_gen_pi_direct(n, source):
            decoded.append(n)
            return gen_pi_direct(n, source)

        monkeypatch.setattr("sudogen.analysis.gen_pi_direct", counting_gen_pi_direct)
        src = ScriptedSource(DRAWS_L1 * 4 * 2)
        with pytest.raises(BudgetExhaustedError):
            gen_sudoku_rejection(2, src, max_iterations=2)
        assert src.draws == 64
        assert src.exhausted
        assert len(decoded) == 2 * 2

    def test_mean_iterations_n2(self, sudoku288_keys):
        # p = 288/65536, expected ~227.56; 3 sigma over 500 successes ~ 30.5
        src = RandomSource(909)
        total = 0
        for _ in range(500):
            cells, iterations = gen_sudoku_rejection(2, src)
            assert as_key(cells) in sudoku288_keys
            total += iterations
        assert abs(total / 500 - 65536 / 288) <= 30.5

    def test_order_three_refused(self):
        with pytest.raises(InfeasibleError) as exc_info:
            gen_sudoku_rejection(3, RandomSource(0))
        expected = exc_info.value.expected_iterations
        assert expected == pytest.approx(6**54 / 6_670_903_752_021_072_936_960, rel=1e-6)

    def test_order_four_refused_without_known_count(self):
        with pytest.raises(InfeasibleError):
            gen_sudoku_rejection(4, RandomSource(0))

    @pytest.mark.parametrize("n,digits", [(4, 177), (8, 4717)])
    def test_unknown_count_refusal_counts_digits(self, n, digits):
        # from order 8 the sample space has more digits than int -> str
        # converts by default, so the count must not come from str()
        space = (math.factorial(n) ** (2 * n)) ** (n * n)
        assert 10 ** (digits - 1) <= space < 10**digits
        with pytest.raises(InfeasibleError, match=f"has {digits} decimal digits$") as exc_info:
            gen_sudoku_rejection(n, RandomSource(0))
        assert exc_info.value.expected_iterations is None


class TestEnumeration:
    def test_count_order_one(self):
        assert enumerate_sudoku(1) == 1

    def test_count_order_two(self):
        assert enumerate_sudoku(2) == 288

    def test_stream_matches_count(self, sudoku288):
        assert len(sudoku288) == 288
        assert len({as_key(c) for c in sudoku288}) == 288
        assert all(is_sudoku(c) for c in sudoku288)

    def test_stream_is_lexicographic(self, sudoku288):
        flat = [tuple(v for row in cells for v in row) for cells in sudoku288]
        assert flat == sorted(flat)

    def test_order_three_refused(self):
        with pytest.raises(InfeasibleError):
            enumerate_sudoku(3)
        with pytest.raises(InfeasibleError):
            next(iter_sudoku(3))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            enumerate_sudoku(0)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_generator_always_valid_order_two(seed):
    cells, _ = gen_sudoku(2, RandomSource(seed))
    assert is_sudoku(cells)
