import random

import pytest

from filterlab import FilterParams, sample_set, split_seed
from filterlab.core import ParamError
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


@pytest.mark.parametrize("kind,shielded", [
    ("baseline_bloom", False),
    ("baseline_bloom", True),
    ("exact_set", False),
    ("cuckoo_resilient", False),
    ("cuckoo_random_query", False),
])
def test_audit_memory_every_filter_kind(kind, shielded):
    cfg = GameConfig(kind, "random_probe", P_SMALL, shielded=shielded)
    S = sample_set(P_SMALL, random.Random(1))
    rep = build_filter(cfg, S, P_SMALL, 2)
    audit = audit_memory(rep)
    assert audit["match"], audit
    assert audit["declared_bits"] == rep.bits


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
