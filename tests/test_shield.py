import random

from filterlab import FilterParams, build_bloom, build_exact_set, build_shield, sample_set
from filterlab.experiments import GameConfig, play_game
from filterlab.hashing import split_seed

PARAMS = FilterParams(n=100, eps=2 ** -5, t=50, u_bits=16)


def _bloom(S, params, seed):
    return build_bloom(S, params, seed)


def test_completeness_through_the_shield():
    S = sample_set(PARAMS, random.Random(1))
    rep = build_shield(_bloom, S, PARAMS, rng_seed=2)
    assert all(rep.query(x) for x in S)


def test_bits_accounting_inner_plus_lambda():
    p = FilterParams(n=1000, eps=2 ** -6, t=0, u_bits=32)
    S = sample_set(p, random.Random(3))
    rep = build_shield(lambda s, pp, sd: build_bloom(s, pp, sd, m=9592), S, p, 4)
    assert rep.inner.bits == 9592 + rep.inner.k_h * 64
    assert rep.bits == rep.inner.bits + 128
    data, bits = rep.serialize()
    assert bits == rep.bits


def test_shield_over_exact_set_stays_exact():
    S = sample_set(PARAMS, random.Random(5))
    rep = build_shield(build_exact_set, S, PARAMS, rng_seed=6)
    rng = random.Random(7)
    for _ in range(3000):
        x = rng.randrange(PARAMS.universe)
        assert rep.query(x) == (x in S)


def test_steadiness_inherited():
    S = sample_set(PARAMS, random.Random(8))
    rep = build_shield(_bloom, S, PARAMS, rng_seed=9)
    before = rep.serialize()
    for x in range(500):
        rep.query(x)
    assert rep.serialize() == before


class _InstrumentedInner:
    """Wraps an inner rep to record the points it is actually queried at."""

    def __init__(self, rep):
        self.rep = rep
        self.params = rep.params
        self.inputs = []

    @property
    def bits(self):
        return self.rep.bits

    def query(self, x):
        self.inputs.append(x)
        return self.rep.query(x)

    def write(self, w):
        self.rep.write(w)


def test_distinct_outer_queries_never_collide_inside():
    S = sample_set(PARAMS, random.Random(10))
    rep = build_shield(_bloom, S, PARAMS, rng_seed=11)
    inst = _InstrumentedInner(rep.inner)
    rep.inner = inst
    rng = random.Random(12)
    outer = rng.sample(range(PARAMS.universe), 4000)
    for x in outer:
        rep.query(x)
    assert len(set(inst.inputs)) == len(inst.inputs) == 4000


def test_only_the_key_is_secret():
    # publishing the inner representation must not lift attack success
    # beyond the non-adaptive rate + 0.05
    p = FilterParams(n=1000, eps=2 ** -6, t=100, u_bits=32)
    cfg = GameConfig("baseline_bloom", "seed_exposed", p, shielded=True,
                     expose="full")
    games = 300
    wins = sum(play_game(cfg, split_seed(77, i)).success for i in range(games))
    assert wins / games <= p.eps + 0.05


def test_seed_exposed_attack_beats_unshielded_baseline():
    # contrast for the previous test: same attack, no shield, near-certain win
    p = FilterParams(n=1000, eps=2 ** -6, t=100, u_bits=32)
    cfg = GameConfig("baseline_bloom", "seed_exposed", p, expose="full")
    games = 60
    wins = sum(play_game(cfg, split_seed(78, i)).success for i in range(games))
    assert wins / games >= 0.9


def test_shield_publishes_inner_but_never_key():
    S = sample_set(PARAMS, random.Random(13))
    rep = build_shield(_bloom, S, PARAMS, rng_seed=14)
    pub = rep.unshielded
    assert pub is rep.inner
    assert not hasattr(pub, "key")


def test_permuted_build_is_complete_for_every_seed():
    for seed in range(20):
        S = sample_set(PARAMS, random.Random(100 + seed))
        rep = build_shield(_bloom, S, PARAMS, rng_seed=seed)
        assert all(rep.query(x) for x in S)


def test_shield_is_generic_over_the_cuckoo_filter():
    from filterlab import build_cuckoo

    p = FilterParams(n=32, eps=2 ** -3, t=64, u_bits=12)
    S = sample_set(p, random.Random(15))
    rep = build_shield(build_cuckoo, S, p, rng_seed=16)
    assert all(rep.query(x) for x in S)
    assert rep.bits == rep.inner.bits + p.lambda_bits
    data, bits = rep.serialize()
    assert bits == rep.bits
