"""Random source: determinism, range exactness, and uniformity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from sudogen import RandomSource, chi_square_uniform, derive_seed, entropy_seed
from sudogen.rng import splitmix64


def test_same_seed_same_sequence():
    a = RandomSource(12345)
    b = RandomSource(12345)
    assert [a.uniform_int(10) for _ in range(1000)] == [
        b.uniform_int(10) for _ in range(1000)
    ]


def test_different_seeds_differ():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.uniform_int(100) for _ in range(50)] != [
        b.uniform_int(100) for _ in range(50)
    ]


def test_uniform_int_k1_is_always_one():
    src = RandomSource(7)
    assert all(src.uniform_int(1) == 1 for _ in range(100))


def test_uniform_int_rejects_k_below_one():
    src = RandomSource(0)
    with pytest.raises(ValueError):
        src.uniform_int(0)
    with pytest.raises(ValueError):
        src.uniform_int(-3)


def test_seed_validation():
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(2**64)
    with pytest.raises(ValueError):
        RandomSource(1.5)
    with pytest.raises(ValueError):
        RandomSource("42")
    for flag in (True, False):
        with pytest.raises(ValueError):
            RandomSource(flag)
    assert RandomSource(0).seed == 0
    assert RandomSource(2**64 - 1).seed == 2**64 - 1


def test_entropy_seed_is_reported_and_valid():
    src = RandomSource()
    assert 0 <= src.seed <= 2**64 - 1
    assert 0 <= entropy_seed() <= 2**64 - 1
    # replaying the reported seed reproduces the stream
    replay = RandomSource(src.seed)
    assert [src.uniform_int(6) for _ in range(20)] == [
        replay.uniform_int(6) for _ in range(20)
    ]


def test_draw_counter_counts_calls():
    src = RandomSource(3)
    for _ in range(100):
        src.uniform_int(3)
    assert src.draws == 100


def test_derive_seed_deterministic_and_spread():
    children = [derive_seed(99, i) for i in range(100)]
    assert children == [derive_seed(99, i) for i in range(100)]
    assert len(set(children)) == 100
    assert all(0 <= c <= 2**64 - 1 for c in children)
    with pytest.raises(ValueError):
        derive_seed(99, -1)


def test_splitmix64_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1):
        y = splitmix64(x)
        assert 0 <= y <= 2**64 - 1
    assert splitmix64(0) != 0


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    k=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=200)
def test_range_property(seed, k):
    src = RandomSource(seed)
    for _ in range(5):
        assert 1 <= src.uniform_int(k) <= k


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    ks=st.lists(
        st.one_of(
            st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 16, 2**30]),
            st.integers(min_value=1, max_value=2**30),
        ),
        max_size=40,
    ),
)
@settings(max_examples=300)
def test_uniform_seq_matches_uniform_int(seed, ks):
    batched = RandomSource(seed)
    single = RandomSource(seed)
    assert batched.uniform_seq(ks) == [single.uniform_int(k) for k in ks]
    assert batched.draws == single.draws == len(ks)
    assert batched.uniform_int(2**30) == single.uniform_int(2**30)


def test_uniform_seq_takes_a_range():
    batched = RandomSource(4)
    single = RandomSource(4)
    assert batched.uniform_seq(range(9, 0, -1)) == [single.uniform_int(k) for k in range(9, 0, -1)]
    assert batched.uniform_seq([]) == []
    assert batched.draws == 9


def test_uniform_seq_takes_an_iterator():
    # the k >= 1 check must not use the iterator up before the draws
    ks = [3, 2, 1, 7, 300]
    listed = RandomSource(5)
    streamed = RandomSource(5)
    assert streamed.uniform_seq(iter(ks)) == listed.uniform_seq(ks)
    assert streamed.uniform_seq(k for k in ks) == listed.uniform_seq(ks)
    assert streamed.draws == listed.draws == 2 * len(ks)
    with pytest.raises(ValueError):
        streamed.uniform_seq(iter([4, 0]))
    assert streamed.draws == listed.draws
    assert streamed.uniform_int(2**30) == listed.uniform_int(2**30)


@pytest.mark.parametrize("ks", [[0], [3, 0], [2, 5, -1], [-4, 7]])
def test_uniform_seq_rejects_k_below_one_before_drawing(ks):
    src = RandomSource(9)
    twin = RandomSource(9)
    with pytest.raises(ValueError):
        src.uniform_seq(ks)
    assert src.draws == 0
    assert src.uniform_int(2**30) == twin.uniform_int(2**30)


def test_histogram_k4():
    # binomial bound: sigma = sqrt(100000 * 1/4 * 3/4) ~ 136.9, 3 sigma ~ 411
    src = RandomSource(20240817)
    counts = [0] * 4
    for _ in range(100_000):
        counts[src.uniform_int(4) - 1] += 1
    assert sum(counts) == 100_000
    for c in counts:
        assert abs(c - 25_000) <= 411, counts


def test_chi_square_uniformity_panel():
    # fixed 100-seed panel, significance 0.001; at most one failing seed per k
    for k in (2, 7, 16):
        critical = chi2.ppf(0.999, k - 1)
        passes = 0
        for seed in range(100):
            src = RandomSource(seed)
            counts = [0] * k
            for _ in range(10_000):
                counts[src.uniform_int(k) - 1] += 1
            if chi_square_uniform(counts) <= critical:
                passes += 1
        assert passes >= 99, f"k={k}: only {passes}/100 seeds passed"


def test_chi_square_uniform_helper():
    assert chi_square_uniform([10, 10]) == 0.0
    assert math.isclose(chi_square_uniform([12, 8]), 0.8)
    with pytest.raises(ValueError):
        chi_square_uniform([])
    with pytest.raises(ValueError):
        chi_square_uniform([0, 0])
