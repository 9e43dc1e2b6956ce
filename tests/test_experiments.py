import random
from dataclasses import replace

import pytest

from filterlab import FilterParams, run_challenge, sample_set, split_seed
from filterlab.adversaries import fresh_element
from filterlab.bloom import BloomRepSpace
from filterlab.core import ExactSetRepSpace, ParamError
from filterlab.experiments import (
    ADVERSARIES,
    FILTERS,
    GameConfig,
    audit_memory,
    build_filter,
    count_wins,
    measure_fp_rate,
    play_game,
    result_record,
    run_campaign,
    RESULT_COLUMNS,
)

P_SMALL = FilterParams(n=32, eps=2 ** -3, t=64, u_bits=12)


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        GameConfig("nope", "random_probe", P_SMALL)
    with pytest.raises(ValueError):
        GameConfig("exact_set", "nope", P_SMALL)
    with pytest.raises(ValueError):
        GameConfig("exact_set", "random_probe", P_SMALL, expose="everything")
    with pytest.raises(ValueError, match="adversary options"):
        GameConfig("exact_set", "seed_exposed", P_SMALL, adversary_opts={"bogus": 5})
    with pytest.raises(ValueError, match="adversary options"):
        GameConfig("exact_set", "random_probe", P_SMALL, adversary_opts={"bogus": 5})


@pytest.mark.parametrize("key,kwargs", [
    ("filter_kind", dict(filter_kind="nope")),
    ("adversary_kind", dict(adversary_kind="nope")),
    ("expose", dict(expose="everything")),
    ("bogus", dict(adversary_kind="seed_exposed",
                   adversary_opts={"candidate_budget": 9, "bogus": 5})),
])
def test_config_errors_name_their_field(key, kwargs):
    with pytest.raises(ParamError) as err:
        GameConfig(**{**dict(filter_kind="exact_set", adversary_kind="random_probe",
                             params=P_SMALL), **kwargs})
    assert err.value.key == key


@pytest.mark.parametrize("kind", sorted(ADVERSARIES))
def test_every_adversary_constructs_without_options(kind):
    assert ADVERSARIES[kind]() is not None
    assert GameConfig("exact_set", kind, P_SMALL).adversary_opts == {}


def test_count_wins_plays_the_stream_trials():
    cfg = GameConfig("baseline_bloom", "random_probe", P_SMALL)
    by_hand = sum(play_game(cfg, split_seed(11, 3, i)).success for i in range(40))
    assert by_hand > 0
    assert count_wins(cfg, 40, 11, (3,)) == by_hand
    assert count_wins(cfg, 40, 11, (3,), parallel=2) == by_hand
    assert count_wins(cfg, 40, 11) == run_campaign(cfg, 40, 11, fp_samples=1).wins
    with pytest.raises(ValueError):
        count_wins(cfg, 0, 11)
    with pytest.raises(ValueError):
        count_wins(cfg, 4, 11, parallel=0)


@pytest.mark.parametrize("kind", sorted(FILTERS))
def test_every_filter_kind_plays_at_u_bits_64(kind):
    p = FilterParams(n=8, eps=2 ** -3, t=16, u_bits=64)
    for shielded in (False, True):
        tr = play_game(GameConfig(kind, "mutate_positives", p, shielded=shielded), 5)
        assert tr.valid and len(tr.queries) == p.t
        assert 0 <= tr.challenge < 2 ** 64


@pytest.mark.parametrize("kind,shielded",
                         [(kind, shielded) for kind in FILTERS for shielded in (False, True)])
def test_audit_memory_every_filter_kind(kind, shielded):
    # the filter contract: `write` lays down exactly `bits` bits, a shield's
    # key and inner payload with no padding between, at any key size
    for lambda_bits in (128, 5):
        p = replace(P_SMALL, lambda_bits=lambda_bits)
        cfg = GameConfig(kind, "random_probe", p, shielded=shielded)
        S = sample_set(p, random.Random(1))
        rep = build_filter(cfg, S, p, 2)
        data, bits = rep.serialize()
        assert bits == rep.bits and len(data) == -(-bits // 8)
        audit = audit_memory(rep)
        assert audit["match"], audit
        assert audit["declared_bits"] == rep.bits
        assert rep.unshielded is (rep.inner if shielded else rep)


class _Recorder:
    """A strategy that keeps the context the game hands it."""

    def run(self, ctx):
        self.ctx = ctx
        return fresh_element(ctx.rng, ctx.params.universe, ctx.S)


@pytest.mark.parametrize("expose", ["none", "structure", "full"])
@pytest.mark.parametrize("shielded", [False, True])
@pytest.mark.parametrize("kind", list(FILTERS))
def test_only_the_game_applies_an_exposure_policy(kind, shielded, expose):
    # the adversary may see the unshielded filter (under "full") and an
    # enumerator over its space (under "structure" and "full"), never a key
    toy = FilterParams(n=4, eps=2 ** -4, t=16, u_bits=10)
    cfg = GameConfig(kind, "random_probe", toy, shielded=shielded, bloom_bits=16)
    built = []

    def factory(S, p, seed):
        built.append(build_filter(cfg, S, p, seed))
        return built[0]

    strategy = _Recorder()
    run_challenge(factory, strategy, None, toy, 3, expose=expose)
    rep, ctx = built[0], strategy.ctx
    inner = rep.inner if shielded else rep
    assert ctx.published is (inner if expose == "full" else None)
    spaces = {"baseline_bloom": BloomRepSpace, "exact_set": ExactSetRepSpace}
    if expose == "none" or kind not in spaces:
        assert ctx.enumerator is None
    else:
        assert type(ctx.enumerator) is spaces[kind]
        # it models the inner filter, so the inner filter's labels fit it
        labels = [(x, inner.query(x)) for x in range(toy.universe)]
        assert ctx.enumerator.first_consistent(labels) is not None
    if shielded:
        assert rep.rep_space_enumerator() is None  # keyed: not enumerable


def test_campaign_order_independent_of_worker_count():
    cfg = GameConfig("baseline_bloom", "random_probe", P_SMALL)
    seq = run_campaign(cfg, trials=40, master_seed=11, parallel=1, fp_samples=500)
    par = run_campaign(cfg, trials=40, master_seed=11, parallel=2, fp_samples=500)
    assert seq.wins == par.wins
    assert seq.success_rate == par.success_rate
    assert seq.fp_rate_baseline == par.fp_rate_baseline
    assert seq.memory_bits == par.memory_bits


def test_play_game_deterministic():
    cfg = GameConfig("cuckoo_resilient", "mutate_positives", P_SMALL)
    a = play_game(cfg, 99)
    b = play_game(cfg, 99)
    assert a.queries == b.queries and a.challenge == b.challenge


def test_result_record_has_every_column():
    cfg = GameConfig("cuckoo_resilient", "random_probe", P_SMALL)
    res = run_campaign(cfg, trials=5, master_seed=3, fp_samples=300)
    rec = result_record(res)
    assert set(rec) == set(RESULT_COLUMNS)
    assert rec["filter"] == "cuckoo_resilient"
    assert rec["mean_bit_comparisons"] != ""  # cuckoo reports telemetry


def test_result_record_blank_telemetry_for_bloom():
    cfg = GameConfig("baseline_bloom", "random_probe", P_SMALL)
    res = run_campaign(cfg, trials=5, master_seed=4, fp_samples=300)
    assert result_record(res)["mean_bit_comparisons"] == ""


def test_measure_fp_rate_reads_comparisons_through_the_shield():
    plain = measure_fp_rate(GameConfig("cuckoo_resilient", "random_probe", P_SMALL),
                            6, samples=500)
    shielded = measure_fp_rate(GameConfig("cuckoo_resilient", "random_probe", P_SMALL,
                                          shielded=True), 6, samples=500)
    assert plain[2] is not None and shielded[2] is not None
    assert 0 < shielded[2] <= 2 * P_SMALL.ell  # two cells of ell bits at most
    assert shielded[1] == plain[1] + P_SMALL.lambda_bits


def test_measure_fp_rate_exact_set_is_zero():
    cfg = GameConfig("exact_set", "random_probe", P_SMALL)
    rate, bits, mean_cmp = measure_fp_rate(cfg, 5, samples=2000)
    assert rate == 0.0
    assert bits == P_SMALL.n * P_SMALL.u_bits
    assert mean_cmp is None
