import random

import numpy as np
import pytest

from filterlab import FilterParams, build_bloom, sample_set
from filterlab.bloom import (
    BloomFilterRep,
    BloomIndexStructure,
    index_count,
    standard_bloom_bits,
)
from filterlab.core import BuildError
from filterlab.hashing import mix64

PARAMS = FilterParams(n=1000, eps=2 ** -6, t=0, u_bits=32)


def test_empty_set_builds_all_zero_array():
    rep = build_bloom([], PARAMS, rng_seed=1, m=256)
    assert all(b == 0 for b in rep.array)
    assert not rep.query(12345)


def test_duplicates_rejected():
    with pytest.raises(BuildError):
        build_bloom([3, 3, 5], PARAMS, rng_seed=1, m=64)


def test_elements_outside_the_universe_rejected():
    with pytest.raises(ValueError, match="outside universe"):
        build_bloom([3, PARAMS.universe, 5], PARAMS, rng_seed=1, m=64)
    with pytest.raises(ValueError, match="outside universe"):
        build_bloom([-1], PARAMS, rng_seed=1, m=64)


@pytest.mark.parametrize("n, u_bits", [(4, 10), (300, 32), (50, 64)])
def test_build_sets_exactly_the_scalar_positions(n, u_bits):
    # the batch hash of every member under every seed against `mix64` and
    # `_set`, member by member
    p = FilterParams(n=n, eps=2 ** -5, t=0, u_bits=u_bits)
    S = sample_set(p, random.Random(n))
    rep = build_bloom(S, p, rng_seed=u_bits)
    ref = BloomFilterRep(p, rep.m, rep.seeds, bytearray((rep.m + 7) // 8))
    for x in S:
        for s in rep.seeds:
            ref._set(mix64(s, x) % rep.m)
    assert rep.array == ref.array


def test_members_always_positive():
    S = sample_set(PARAMS, random.Random(2))
    rep = build_bloom(S, PARAMS, rng_seed=3)
    assert all(rep.query(x) for x in S)


def test_index_count_examples():
    assert index_count(16, 4) == 3
    assert index_count(9592, 1000) == 7
    assert index_count(2, 1000) == 1  # floor at one hash


def test_standard_sizing():
    # n=1000 at target 2^-6 needs ~8656 bits
    assert abs(standard_bloom_bits(1000, 2 ** -6) - 8656) <= 2


def test_fp_rate_standard_sizing_example():
    # classic configuration from the sizing tables: n=1000, m=9592,
    # target error 1%; measured rate on uniform non-members
    S = sample_set(PARAMS, random.Random(5))
    rep = build_bloom(S, PARAMS, rng_seed=6, m=9592)
    rng = random.Random(7)
    samples = 30_000
    hits = 0
    for _ in range(samples):
        x = rng.randrange(PARAMS.universe)
        while x in S:
            x = rng.randrange(PARAMS.universe)
        hits += rep.query(x)
    assert 0.005 <= hits / samples <= 0.015


def test_fp_rate_tracks_occupancy_expectation():
    S = sample_set(PARAMS, random.Random(8))
    rep = build_bloom(S, PARAMS, rng_seed=9)
    ones = sum(rep._get(i) for i in range(rep.m))
    expected = (ones / rep.m) ** rep.k_h
    rng = random.Random(10)
    samples = 30_000
    hits = 0
    for _ in range(samples):
        x = rng.randrange(PARAMS.universe)
        while x in S:
            x = rng.randrange(PARAMS.universe)
        hits += rep.query(x)
    assert abs(hits / samples - expected) < 0.005


def test_saturated_array_answers_true_everywhere():
    rep = build_bloom([1, 2, 3], PARAMS, rng_seed=11, m=64)
    rep.array[:] = bytes([0xFF]) * len(rep.array)
    assert all(rep.query(x) for x in (0, 5, 17, 2 ** 31, PARAMS.universe - 1))


def test_steadiness_byte_identical_after_queries():
    S = sample_set(PARAMS, random.Random(12))
    rep = build_bloom(S, PARAMS, rng_seed=13)
    before = rep.serialize()
    rng = random.Random(14)
    for _ in range(2000):
        rep.query(rng.randrange(PARAMS.universe))
    assert rep.serialize() == before
    assert rep.kind == "steady"


def test_monotonicity_under_superset():
    small = frozenset(range(100, 200))
    big = small | frozenset(range(5000, 5050))
    a = build_bloom(small, PARAMS, rng_seed=15, m=4096)
    b = build_bloom(big, PARAMS, rng_seed=15, m=4096)  # same seed, same hashes
    rng = random.Random(16)
    for _ in range(5000):
        x = rng.randrange(PARAMS.universe)
        if a.query(x):
            assert b.query(x)


def test_bits_accounting_and_roundtrip():
    S = sample_set(PARAMS, random.Random(17))
    rep = build_bloom(S, PARAMS, rng_seed=18)
    assert rep.bits == rep.m + rep.k_h * 64
    data, bits = rep.serialize()
    assert bits == rep.bits
    back = BloomFilterRep.deserialize(PARAMS, rep.m, rep.k_h, data, bits)
    rng = random.Random(19)
    for _ in range(2000):
        x = rng.randrange(PARAMS.universe)
        assert back.query(x) == rep.query(x)


def test_enumerator_only_at_toy_scale():
    toy = FilterParams(n=4, eps=2 ** -4, t=16, u_bits=10)
    rep = build_bloom([1, 2, 3, 4], toy, rng_seed=21, m=16)
    space = rep.rep_space_enumerator()
    assert space is not None and space.memory_bits == 16
    # the true array appears in the space and models the filter exactly
    rep_id = int.from_bytes(rep.array, "little") & 0xFFFF
    assert all(space.model_query(rep_id, x) == rep.query(x) for x in range(1024))
    big = build_bloom([1, 2], PARAMS, rng_seed=22)
    assert big.rep_space_enumerator() is None


@pytest.mark.parametrize("m", [1, 16, 20])
@pytest.mark.parametrize("u_bits", [10, 16])
def test_position_masks_match_scalar_positions(u_bits, m):
    # seed 2^64-1 makes x + seed wrap for every x > 0
    rng = random.Random(u_bits * 100 + m)
    seeds = (0, (1 << 64) - 1) + tuple(rng.getrandbits(64) for _ in range(2))
    structure = BloomIndexStructure(m, seeds, u_bits)
    masks = structure.position_masks()
    assert masks.dtype == np.uint64 and len(masks) == 1 << u_bits
    expected = []
    for x in range(1 << u_bits):
        mk = 0
        for p in structure.positions(x):
            mk |= 1 << p
        expected.append(mk)
    assert masks.tolist() == expected


def test_position_masks_refuse_unenumerable_shapes():
    with pytest.raises(ValueError):
        BloomIndexStructure(16, (1,), 17).position_masks()
    with pytest.raises(ValueError):
        BloomIndexStructure(65, (1,), 10).position_masks()


@pytest.mark.parametrize("u_bits", [10, 32, 64])
def test_query_many_equals_the_scalar_loop(u_bits):
    p = FilterParams(n=200, eps=2 ** -4, t=0, u_bits=u_bits)
    rng = random.Random(u_bits)
    S = sample_set(p, rng)
    rep = build_bloom(S, p, rng_seed=u_bits + 1)
    xs = [rng.randrange(p.universe) for _ in range(3000)] + sorted(S)
    xs += [0, p.universe - 1, 2 ** 64 - 1]
    xs += [-1, 2 ** 64, 2 ** 70 + 5]  # a Bloom query reduces any int mod 2^64
    rng.shuffle(xs)
    ys = rep.query_many(xs)
    assert ys == [rep.query(x) for x in xs]
    assert 0 < sum(ys) < len(xs)
    assert rep.query_many([]) == []
