import random

import pytest

from filterlab import permutation
from filterlab.hashing import mix64
from filterlab.permutation import PermKey, invert, permute, permute_many, sample_key


def _key(seed: int, domain: int) -> PermKey:
    return PermKey(random.Random(seed).getrandbits(128), 128, domain)


def test_roundtrip_exhaustive_256():
    key = _key(1, 256)
    for x in range(256):
        assert invert(key, permute(key, x)) == x
        assert permute(key, invert(key, x)) == x


def test_output_multiset_is_the_domain():
    key = _key(2, 256)
    assert sorted(permute(key, x) for x in range(256)) == list(range(256))


def test_cycle_walking_domain_1000():
    key = _key(3, 1000)
    outs = [permute(key, x) for x in range(1000)]
    assert all(0 <= y < 1000 for y in outs)
    assert sorted(outs) == list(range(1000))
    assert all(invert(key, y) == x for x, y in zip(range(1000), outs))


def test_determinism_under_fixed_key():
    key = _key(4, 1024)
    assert [permute(key, x) for x in range(50)] == [permute(key, x) for x in range(50)]


def test_distinct_keys_give_distinct_permutations():
    rng = random.Random(5)
    for _ in range(100):
        k1 = PermKey(rng.getrandbits(128), 128, 256)
        k2 = PermKey(rng.getrandbits(128), 128, 256)
        if k1.key_bits == k2.key_bits:
            continue
        assert any(permute(k1, x) != permute(k2, x) for x in range(256))


def test_every_key_word_reaches_the_round_keys():
    # the first two 64-bit words give the round keys they always gave, and
    # a bit above 128 still changes the permutation
    rng = random.Random(10)
    for lambda_bits in (5, 64, 128):
        kb = rng.getrandbits(lambda_bits)
        key = PermKey(kb, lambda_bits, 256)
        assert key.round_keys == tuple(
            mix64(r, kb & (1 << 64) - 1) ^ mix64(r + permutation.ROUNDS, kb >> 64)
            for r in range(permutation.ROUNDS))
    kb = rng.getrandbits(256)
    k1, k2 = PermKey(kb, 256, 256), PermKey(kb ^ 1 << 200, 256, 256)
    assert all(a != b for a, b in zip(k1.round_keys, k2.round_keys))
    assert any(permute(k1, x) != permute(k2, x) for x in range(256))


def test_no_tested_key_is_the_identity():
    rng = random.Random(6)
    for _ in range(100):
        key = PermKey(rng.getrandbits(128), 128, 256)
        assert any(permute(key, x) != x for x in range(256))


def test_avalanche_smoke_u16():
    # flipping one input bit changes the output for (essentially) every
    # input; a statistical sanity check, not a security claim
    key = _key(7, 1 << 16)
    rng = random.Random(8)
    changed = 0
    total = 1 << 16
    for x in range(total):
        y = x ^ (1 << rng.randrange(16))
        if permute(key, x) != permute(key, y):
            changed += 1
    assert changed / total >= 0.99


def test_domain_errors():
    key = _key(9, 1000)
    with pytest.raises(ValueError):
        permute(key, 1000)
    with pytest.raises(ValueError):
        invert(key, -1)
    with pytest.raises(ValueError):
        PermKey(1 << 130, 128, 256)  # key material too wide
    with pytest.raises(ValueError):
        PermKey(0, 128, 1)  # degenerate domain


def test_sample_key_uses_lambda_bits():
    key = sample_key(128, 1 << 10, random.Random(10))
    assert 0 <= key.key_bits < (1 << 128)
    assert key.lambda_bits == 128
    assert key.domain_size == 1 << 10


@pytest.mark.parametrize("domain", [256, 1000, 1024, 3000, 2 ** 32 - 5, 2 ** 63, 2 ** 64])
def test_permute_many_equals_permute(domain):
    # 1000 and 3000 cycle-walk; 2^63 and 2^64 are u_bits 63 and 64, and
    # 2^64 itself does not fit the uint64 the batch works in
    rng = random.Random(domain)
    for seed in range(3):
        key = _key(seed, domain)
        xs = [rng.randrange(domain) for _ in range(2000)] + [0, 1, domain - 1, domain - 2]
        if domain <= 3000:
            xs += range(domain)
        assert permute_many(key, xs) == [permute(key, x) for x in xs]
        few = xs[-permutation.BATCH_MIN:]  # the smallest batch the numpy route takes
        assert permute_many(key, few) == [permute(key, x) for x in few]
    assert permute_many(key, []) == []


@pytest.mark.parametrize("bad", [-1, 1000, 2 ** 64])
def test_permute_many_rejects_out_of_domain_points(bad):
    key = _key(6, 1000)
    for xs in ([3, 5, bad, 7], [3, 5, bad] + list(range(7, 47))):  # scalar route, then batch
        with pytest.raises(ValueError, match=f"{bad} outside permutation domain"):
            permute_many(key, xs)
