import random
import re
from functools import partial

import numpy as np
import pytest

from filterlab import (
    FilterParams,
    GameConfig,
    build_bloom,
    build_exact_set,
    minimal_error,
    run_campaign,
    run_challenge,
    sample_set,
    split_seed,
)
from filterlab.adversaries import RandomProbeAttack
from filterlab.bitio import BitReader, BitWriter
from filterlab.core import EXPOSURES, BuildError, GameTranscript, ParamError
from filterlab.experiments import FILTERS, build_filter
from filterlab.hashing import DRAW_BATCH_MIN, mix64, positions, randbelow_many


def test_check_members_keeps_every_rule_for_sets_and_lists():
    p = FilterParams(n=4, eps=0.25, t=4, u_bits=8)
    # a set cannot repeat, so it skips the repeat scan, but not the range check
    for S in (frozenset({1, 2, 300, 4}), {1, 2, -1, 4}):
        with pytest.raises(ValueError, match="outside universe"):
            p.check_members(S)
    with pytest.raises(BuildError, match="duplicate elements in S"):
        p.check_members([1, 2, 1, 3])
    # a repeat is reported before the range, the range before the size
    with pytest.raises(BuildError, match="duplicate elements in S"):
        p.check_members([1, 2, 1])
    with pytest.raises(ValueError, match="outside universe"):
        p.check_members([1, 2, 300])
    for S in ([1, 2, 3], frozenset({1, 2, 3, 4, 5})):
        with pytest.raises(BuildError, match=re.escape(f"|S|={len(S)} but params.n=4")):
            p.check_members(S)
    assert p.check_members(frozenset({5, 7, 9, 11})) == list(frozenset({5, 7, 9, 11}))
    assert p.check_members([11, 7, 9, 5]) == [11, 7, 9, 5]


def test_minimal_error_examples():
    assert minimal_error(16, 4) == 0.0625
    assert minimal_error(10, 10) == 0.5
    assert minimal_error(60, 10) == 0.015625


def test_minimal_error_monotonicity():
    for n in (1, 3, 10):
        vals = [minimal_error(m, n) for m in range(0, 60, 7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for m in (16, 40):
        vals = [minimal_error(m, n) for n in range(1, 12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_minimal_error_domain():
    with pytest.raises(ValueError):
        minimal_error(10, 0)
    with pytest.raises(ValueError):
        minimal_error(-1, 5)


def test_k_independence_is_at_least_pairwise():
    # ceil(2t/L) with a floor of 2: a 1-wise g_j would be a constant bit
    ks = [FilterParams(n=4, eps=2 ** -6, t=t, u_bits=13).k_independence for t in range(8)]
    assert ks == [2, 2, 2, 2, 2, 2, 2, 3]


def test_params_derivations_and_validation():
    p = FilterParams(n=1024, eps=2 ** -6, t=4096, u_bits=13)
    assert p.log_inv_eps == 6
    assert p.ell == 24
    assert p.k_independence == 1366
    assert FilterParams(n=1000, eps=0.01, t=0, u_bits=32).log_inv_eps == 7
    with pytest.raises(ValueError):
        FilterParams(n=0, eps=0.5, t=1, u_bits=8)
    with pytest.raises(ValueError):
        FilterParams(n=4, eps=1.5, t=1, u_bits=8)
    with pytest.raises(ValueError):
        FilterParams(n=4, eps=0.5, t=-1, u_bits=8)
    with pytest.raises(ValueError):
        FilterParams(n=200, eps=0.5, t=1, u_bits=8)  # universe too small
    with pytest.raises(ValueError, match="u_bits"):
        FilterParams(n=4, eps=0.5, t=1, u_bits=65)  # wider than any field


def test_split_seed_stable_and_distinct():
    # the derivation scheme is a documented contract: pin two values
    assert split_seed(0, 0) == split_seed(0, 0)
    assert split_seed(7, 1) != split_seed(7, 2)
    assert split_seed(7, 1) != split_seed(8, 1)
    assert all(0 <= split_seed(3, i) < 2 ** 63 for i in range(100))


def test_sample_set_properties():
    p = FilterParams(n=50, eps=0.1, t=10, u_bits=10)
    S = sample_set(p, random.Random(4))
    assert len(S) == 50
    assert all(0 <= x < 1024 for x in S)
    assert S == sample_set(p, random.Random(4))


@pytest.mark.parametrize("u_bits", [32, 62, 63, 64])
def test_sample_set_wide_universes(u_bits):
    # S is drawn as random.sample's set branch draws it, also past
    # sys.maxsize, where range() of the universe cannot be sampled at all
    p = FilterParams(n=50, eps=0.1, t=10, u_bits=u_bits)
    S = sample_set(p, random.Random(4))
    assert len(S) == 50
    assert all(0 <= x < 2 ** u_bits for x in S)
    assert S == sample_set(p, random.Random(4))
    if u_bits < 63:
        assert S == frozenset(random.Random(4).sample(range(2 ** u_bits), 50))


@pytest.mark.parametrize("n", [2 ** b for b in (0, 1, 10, 13, 16, 31, 32, 33, 63, 64)]
                         + [3, 1000, 2 ** 32 + 1, 2 ** 63 + 5])
@pytest.mark.parametrize("count", [0, 1, DRAW_BATCH_MIN - 1, DRAW_BATCH_MIN, 4096])
def test_randbelow_many_equals_randrange(n, count):
    # values and generator state exactly as the randrange loop leaves them:
    # one 32-bit word per draw up to n < 2^32, two up to n < 2^64, the loop
    # itself above, and a rejection rate of up to a half at n = 2^b; a
    # uint64 array at every n and count
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        xs = randbelow_many(rng, n, count)
        assert xs.dtype == np.uint64
        assert xs.tolist() == [ref.randrange(n) for _ in range(count)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("size", [1, 3, 16, 1127, 8864, 2 ** 32 + 15, 2 ** 63 + 5])
def test_positions_equal_the_scalar_remainder(size):
    # the batch remainder z - (z // size) * size against mix64(s, x) % size,
    # with the seed that wraps x + seed and points at both ends of 64 bits
    rng = random.Random(size)
    xs = [0, 1, 2 ** 63, 2 ** 64 - 1] + [rng.getrandbits(64) for _ in range(500)]
    seeds = (0, 2 ** 64 - 1)
    got = positions(seeds, np.array(xs, dtype=np.uint64), size)
    assert got.dtype == np.uint64 and got.shape == (2, len(xs))
    for row, s in zip(got.tolist(), seeds):
        assert row == [mix64(s, x) % size for x in xs]


def test_sample_set_equals_the_draw_by_draw_loop():
    # n = 400 of 1,024 points: duplicates force several top-up rounds
    p = FilterParams(n=400, eps=0.1, t=10, u_bits=10)
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        S: set[int] = set()
        while len(S) < p.n:
            S.add(ref.randrange(p.universe))
        assert sample_set(p, rng) == frozenset(S)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("key,kwargs", [
    ("n", dict(n=0)), ("eps", dict(eps=1.5)), ("t", dict(t=-1)),
    ("u_bits", dict(n=200)), ("u_bits", dict(u_bits=65)),
    ("lambda_bits", dict(lambda_bits=0)),
])
def test_param_errors_name_their_key(key, kwargs):
    with pytest.raises(ParamError) as err:
        FilterParams(**{**dict(n=4, eps=0.5, t=1, u_bits=8), **kwargs})
    assert err.value.key == key


def test_universe_rule_at_its_boundary():
    # 2^u_bits >= 2n: n=4 fits 8 points exactly, n=5 does not
    assert FilterParams(n=4, eps=0.5, t=1, u_bits=3).universe == 8
    with pytest.raises(ParamError, match="must hold at least 2n points") as err:
        FilterParams(n=5, eps=0.5, t=1, u_bits=3)
    assert err.value.key == "u_bits"


class _EchoMember:
    """Degenerate adversary: outputs a member (must always lose)."""

    name = "echo_member"

    def run(self, ctx):
        return next(iter(sorted(ctx.S)))


class _RepeatQueried:
    """Queries one element, then outputs that same element (must lose)."""

    name = "repeat_queried"

    def run(self, ctx):
        x = ctx.rng.randrange(ctx.params.universe)
        ctx.oracle.query(x)
        return x


class _BudgetRogue:
    """Exceeds its budget (protocol violation)."""

    name = "budget_rogue"

    def run(self, ctx):
        for i in range(ctx.params.t + 1):
            ctx.oracle.query(i % ctx.params.universe)
        return 0


PARAMS_SMALL = FilterParams(n=8, eps=2 ** -3, t=16, u_bits=10)


def _bloom_factory(S, params, seed):
    return build_bloom(S, params, seed)


def test_member_output_never_wins():
    tr = run_challenge(_bloom_factory, _EchoMember(), None, PARAMS_SMALL, 11)
    assert tr.valid and not tr.success
    assert tr.challenge_response is True  # a member always answers True


def test_previously_queried_output_never_wins():
    for i in range(20):
        tr = run_challenge(_bloom_factory, _RepeatQueried(), None, PARAMS_SMALL,
                           split_seed(21, i))
        assert tr.valid and not tr.success


def test_budget_violation_invalidates_transcript():
    tr = run_challenge(_bloom_factory, _BudgetRogue(), None, PARAMS_SMALL, 5)
    assert not tr.valid and not tr.success
    assert len(tr.queries) == PARAMS_SMALL.t


def test_transcript_bounded_and_success_recomputable():
    p = FilterParams(n=8, eps=2 ** -3, t=32, u_bits=12)
    for i in range(25):
        seed = split_seed(33, i)
        tr = run_challenge(_bloom_factory, RandomProbeAttack(), None, p, seed)
        assert len(tr.queries) <= p.t
        S = sample_set(p, random.Random(tr.seed_record["set"]))
        assert tr.recompute_success(S) == tr.success


def test_exact_set_filter_never_attacked():
    p = FilterParams(n=8, eps=2 ** -3, t=32, u_bits=12)
    res = run_campaign(GameConfig("exact_set", "random_probe", p), 50, 77,
                       fp_samples=100)
    assert res.success_rate == 0.0
    assert res.ci_half_width == 0.0


def test_games_replay_identically():
    p = FilterParams(n=8, eps=2 ** -3, t=32, u_bits=12)
    a = run_challenge(_bloom_factory, RandomProbeAttack(), None, p, 123)
    b = run_challenge(_bloom_factory, RandomProbeAttack(), None, p, 123)
    assert a.queries == b.queries
    assert a.challenge == b.challenge
    assert a.success == b.success


def test_random_probe_vs_bloom_hits_target_band():
    # blind-guess games against the calibrated baseline: the success rate
    # is the non-adaptive false-positive rate (frozen seed, target 2^-6)
    p = FilterParams(n=1000, eps=2 ** -6, t=0, u_bits=32)
    res = run_campaign(GameConfig("baseline_bloom", "random_probe", p), 3000, 2024,
                       fp_samples=100)
    assert 0.010 <= res.success_rate <= 0.022


def test_run_challenge_refuses_an_unknown_exposure_policy():
    # a misspelled policy must not reveal the structure, nor build a filter
    built = []

    def factory(S, params, seed):
        built.append(seed)
        return build_exact_set(S, params, seed)

    assert EXPOSURES == ("none", "structure", "full")
    with pytest.raises(ValueError, match="unknown exposure policy 'ful'"):
        run_challenge(factory, RandomProbeAttack(), None, PARAMS_SMALL, 1, expose="ful")
    assert built == []


@pytest.mark.parametrize("kind", FILTERS)
def test_run_challenge_refuses_a_wrong_size_set_before_any_query(kind):
    # the factory's member rule refuses |S| != n, so the adversary never runs
    class _Recorder:
        ran = False

        def run(self, ctx):
            self.ran = True
            return 0

    factory = partial(build_filter, GameConfig(kind, "random_probe", PARAMS_SMALL))
    for size in (PARAMS_SMALL.n - 1, PARAMS_SMALL.n + 1):
        strategy = _Recorder()
        with pytest.raises(BuildError, match=re.escape(f"|S|={size} but params.n=8")):
            run_challenge(factory, strategy, frozenset(range(size)), PARAMS_SMALL, 1)
        assert not strategy.ran
    # a list whose repeat would collapse to n points in a frozenset: the
    # game refuses it as the factory does
    S = list(range(PARAMS_SMALL.n)) + [0]
    strategy = _Recorder()
    with pytest.raises(BuildError, match="duplicate elements in S"):
        factory(S, PARAMS_SMALL, 1)
    with pytest.raises(BuildError, match="duplicate elements in S"):
        run_challenge(factory, strategy, S, PARAMS_SMALL, 1)
    assert not strategy.ran


def test_exact_set_build_and_bits():
    p = FilterParams(n=8, eps=0.25, t=4, u_bits=10)
    S = sample_set(p, random.Random(1))
    rep = build_exact_set(S, p, 0)
    assert all(rep.query(x) for x in S)
    assert rep.bits == 8 * 10
    data, bits = rep.serialize()
    assert bits == rep.bits


def test_bitio_roundtrip():
    w = BitWriter()
    w.write(0b101, 3)
    w.write(0xDEAD, 16)
    w.write(1, 1)
    data = w.getvalue()
    assert w.bit_length == 20
    r = BitReader(data, 20)
    assert r.read(3) == 0b101
    assert r.read(16) == 0xDEAD
    assert r.read(1) == 1
    assert r.remaining == 0
    with pytest.raises(ValueError):
        r.read(1)
    with pytest.raises(ValueError):
        BitWriter().write(4, 2)  # does not fit
    r = BitReader(data + b"\xff", 20)  # bytes past the declared length are never read
    assert [r.read(3), r.read(16), r.read(1), r.remaining] == [0b101, 0xDEAD, 1, 0]
    with pytest.raises(ValueError):
        r.read(1)


def _fold(pairs):
    """The stream as one integer built write by write, padded at its tail."""
    acc = nbits = 0
    for value, width in pairs:
        acc = (acc << width) | value
        nbits += width
    pad = (-nbits) % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big"), nbits


@pytest.mark.parametrize("seed", range(5))
def test_bitwriter_matches_reference_fold(seed):
    rng = random.Random(seed)
    for _ in range(40):
        pairs = []
        for _ in range(rng.randrange(80)):
            width = rng.choice((0, 1, 1, 2, 3, 7, 8, 9, 13, 24, 63, 64, 64, 65, 130))
            value = rng.choice((0, (1 << width) - 1, rng.getrandbits(width))) if width else 0
            pairs.append((value, width))
        w = BitWriter()
        for value, width in pairs:
            w.write(value, width)
        assert (w.getvalue(), w.bit_length) == _fold(pairs)
        r = BitReader(w.getvalue(), w.bit_length)
        assert [r.read(width) for _, width in pairs] == [v for v, _ in pairs]
        assert r.remaining == 0


def test_transcript_recompute_rules():
    tr = GameTranscript(queries=[(1, True)], challenge=2, challenge_response=True,
                        success=False, valid=True)
    assert not tr.recompute_success(frozenset({2}))   # challenge in S
    assert tr.recompute_success(frozenset({5}))       # fresh + answered True
    tr2 = GameTranscript(queries=[(2, True)], challenge=2, challenge_response=True,
                         success=False, valid=True)
    assert not tr2.recompute_success(frozenset({5}))  # challenge was queried
    tr3 = GameTranscript(queries=[], challenge=2, challenge_response=False,
                         success=False, valid=True)
    assert not tr3.recompute_success(frozenset({5}))  # answered False
