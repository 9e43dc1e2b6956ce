import hashlib
import random

import numpy as np
import pytest

from filterlab import FilterParams, build_bloom, build_shield, sample_set
from filterlab.bloom import (
    BloomFilterRep,
    BloomRepSpace,
    index_count,
    standard_bloom_bits,
)
from filterlab.core import BuildError, build_exact_set
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
    # the batch hash of every member under every seed against `mix64`,
    # member by member
    p = FilterParams(n=n, eps=2 ** -5, t=0, u_bits=u_bits)
    S = sample_set(p, random.Random(n))
    rep = build_bloom(S, p, rng_seed=u_bits)
    ref = bytearray(rep.m)
    for x in S:
        for s in rep.seeds:
            ref[mix64(s, x) % rep.m] = 1
    assert rep.array == ref


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
    ones = sum(rep.array)
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
    rep.array[:] = bytes([1]) * len(rep.array)
    assert all(rep.query(x) for x in (0, 5, 17, 2 ** 31, PARAMS.universe - 1))


def test_steadiness_byte_identical_after_queries():
    S = sample_set(PARAMS, random.Random(12))
    rep = build_bloom(S, PARAMS, rng_seed=13)
    before = rep.serialize()
    rng = random.Random(14)
    for _ in range(2000):
        rep.query(rng.randrange(PARAMS.universe))
    assert rep.serialize() == before


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
    back = BloomFilterRep.deserialize(PARAMS, rep.m, data, bits)
    assert (back.seeds, back.array) == (rep.seeds, rep.array)
    rng = random.Random(19)
    for _ in range(2000):
        x = rng.randrange(PARAMS.universe)
        assert back.query(x) == rep.query(x)


def test_deserialize_reads_exactly_the_payload():
    # a 70-bit array's payload read as a 67-bit array (same k_h = 12) leaves
    # 3 bits unread, and so does a payload with a byte after it
    p = FilterParams(n=4, eps=2 ** -4, t=0, u_bits=10)
    rep = build_bloom(sample_set(p, random.Random(17)), p, rng_seed=18, m=70)
    data, bits = rep.serialize()
    assert index_count(67, p.n) == rep.k_h
    for args in ((67, data, bits), (70, data + b"\0", bits + 8)):
        with pytest.raises(ValueError, match="bits past the payload"):
            BloomFilterRep.deserialize(p, *args)


# SHA-256 over (bit length, payload) of the builds below: how the array is
# held in memory must not change a payload bit
PAYLOAD_SHA = "b4798c07b1207f1017faafa36051687699ee9174703d7a224f3b685853a59074"


def test_payloads_are_pinned():
    toy = FilterParams(n=4, eps=2 ** -4, t=51200, u_bits=10)
    calibration = FilterParams(n=1000, eps=2 ** -6, t=0, u_bits=32)
    shielded = FilterParams(n=100, eps=2 ** -5, t=50, u_bits=16)
    reps = [
        build_bloom(sample_set(toy, random.Random(1)), toy, 2, m=16),
        build_bloom(sample_set(calibration, random.Random(3)), calibration, 4),
        build_shield(build_bloom, sample_set(shielded, random.Random(5)), shielded, 6),
    ]
    h = hashlib.sha256()
    for rep in reps:
        data, bits = rep.serialize()
        assert bits == rep.bits
        h.update(bits.to_bytes(8, "big") + data)
    assert h.hexdigest() == PAYLOAD_SHA


def test_a_corrupt_array_does_not_serialize():
    rep = build_bloom([1, 2, 3], PARAMS, rng_seed=11, m=64)
    rep.array[5] = 2
    with pytest.raises(ValueError, match="does not fit in 1 bits"):
        rep.serialize()


def test_enumerator_only_at_toy_scale():
    toy = FilterParams(n=4, eps=2 ** -4, t=16, u_bits=10)
    rep = build_bloom([1, 2, 3, 4], toy, rng_seed=21, m=16)
    space = rep.rep_space_enumerator()
    assert space is not None and space.memory_bits == 16
    big = build_bloom([1, 2], PARAMS, rng_seed=22)
    assert big.rep_space_enumerator() is None


def test_model_of_a_filters_own_id_is_that_filter():
    toy = FilterParams(n=4, eps=2 ** -4, t=16, u_bits=10)
    for seed in range(4):
        rep = build_bloom([1, 2, 3, 4], toy, rng_seed=seed, m=16)
        rep_id = sum(b << p for p, b in enumerate(rep.array))
        model = rep.rep_space_enumerator().model(rep_id)
        assert type(model) is BloomFilterRep
        assert model.array == rep.array and model.seeds == rep.seeds
        assert model.params == rep.params
        xs = list(range(toy.universe))
        assert [model.query(x) for x in xs] == [rep.query(x) for x in xs]


def test_model_of_the_exact_set_is_the_exact_set():
    toy = FilterParams(n=4, eps=2 ** -4, t=16, u_bits=10)
    rep = build_exact_set([1, 2, 3, 4], toy, 0)
    assert rep.rep_space_enumerator().model(0) is rep


def _filter_with_seeds(u_bits, m, seeds):
    params = FilterParams(n=4, eps=2 ** -4, t=0, u_bits=u_bits)
    return BloomFilterRep(params, seeds, bytearray(m))


@pytest.mark.parametrize("m", [1, 16, 20])
@pytest.mark.parametrize("u_bits", [10, 16])
def test_position_masks_match_scalar_positions(u_bits, m):
    # seed 2^64-1 makes x + seed wrap for every x > 0
    rng = random.Random(u_bits * 100 + m)
    seeds = (0, (1 << 64) - 1) + tuple(rng.getrandbits(64) for _ in range(2))
    masks = BloomRepSpace(_filter_with_seeds(u_bits, m, seeds)).masks
    assert masks.dtype == np.uint32 and len(masks) == 1 << u_bits
    expected = []
    for x in range(1 << u_bits):
        mk = 0
        for s in seeds:
            mk |= 1 << mix64(s, x) % m
        expected.append(mk)
    assert masks.tolist() == expected


def test_rep_space_refuses_unenumerable_shapes():
    with pytest.raises(ValueError, match="too large"):
        BloomRepSpace(_filter_with_seeds(10, 21, (1,)))
    with pytest.raises(ValueError, match="too large"):
        BloomRepSpace(_filter_with_seeds(17, 16, (1,)))


@pytest.mark.parametrize("u_bits", [10, 32, 64])
def test_query_many_equals_the_scalar_loop(u_bits):
    p = FilterParams(n=200, eps=2 ** -4, t=0, u_bits=u_bits)
    rng = random.Random(u_bits)
    S = sample_set(p, rng)
    rep = build_bloom(S, p, rng_seed=u_bits + 1)
    xs = [rng.randrange(p.universe) for _ in range(3000)] + sorted(S)
    xs += [0, p.universe - 1]
    rng.shuffle(xs)
    ys = rep.query_many(xs)
    assert ys == [rep.query(x) for x in xs]
    assert 0 < sum(ys) < len(xs)
    assert rep.query_many([]) == []
