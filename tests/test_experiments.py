import importlib
import random
import re
import runpy
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from filterlab import FilterParams, experiments, run_challenge, sample_set, split_seed
from filterlab.adversaries import fresh_element
from filterlab.bloom import BloomRepSpace
from filterlab.core import BuildError, ExactSetRepSpace, ParamError
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
    ("c", dict(adversary_kind="consistency_search", adversary_opts={"c": "lots"})),
    ("c", dict(adversary_kind="consistency_search", adversary_opts={"c": True})),
    ("strict", dict(adversary_kind="consistency_search",
                    adversary_opts={"c": 200, "strict": "maybe"})),
    ("strict", dict(adversary_kind="consistency_search", adversary_opts={"strict": 1})),
    ("candidate_budget", dict(adversary_kind="seed_exposed",
                              adversary_opts={"candidate_budget": 2.5})),
    ("c", dict(adversary_kind="consistency_search", adversary_opts={"c": -1})),
    ("c", dict(adversary_kind="consistency_search", adversary_opts={"c": 0})),
    ("candidate_budget", dict(adversary_kind="seed_exposed",
                              adversary_opts={"candidate_budget": 0})),
    # configs the adversary cannot play: no room for t + n points, no space
    ("t", dict(params=FilterParams(n=4, eps=0.25, t=4, u_bits=3))),
    ("t", dict(adversary_kind="mutate_positives",
               params=FilterParams(n=4, eps=0.25, t=4, u_bits=3))),
    ("expose", dict(adversary_kind="consistency_search")),
    # configs whose filter has no representation space to search
    ("filter_kind", dict(filter_kind="cuckoo_resilient", adversary_kind="consistency_search",
                         expose="structure")),
    ("filter_kind", dict(filter_kind="cuckoo_random_query", shielded=True,
                         adversary_kind="consistency_search", expose="full")),
])
def test_config_errors_name_their_field(key, kwargs):
    with pytest.raises(ParamError) as err:
        GameConfig(**{**dict(filter_kind="exact_set", adversary_kind="random_probe",
                             params=P_SMALL), **kwargs})
    assert err.value.key == key


@pytest.mark.parametrize("kwargs", [
    dict(),  # the standard m = 139 at n = 32
    dict(bloom_bits=21),
    dict(bloom_bits=16, params=FilterParams(n=4, eps=2 ** -4, t=64, u_bits=17)),
], ids=["standard_m", "m21", "u17"])
def test_consistency_search_plays_a_bloom_filter_of_any_shape(kwargs):
    # no size ceiling: a standard m, m above 20 and a universe above 2^16
    for shielded in (False, True):
        for expose in ("structure", "full"):
            cfg = GameConfig(**{**dict(filter_kind="baseline_bloom",
                                       adversary_kind="consistency_search", params=P_SMALL,
                                       shielded=shielded, expose=expose,
                                       adversary_opts={"strict": not shielded}), **kwargs})
            rep = build_filter(cfg, sample_set(cfg.params, random.Random(3)), cfg.params, 4)
            assert rep.unshielded.rep_space_enumerator().memory_bits == rep.unshielded.m
            assert play_game(cfg, 5).valid


def test_bloom_bits_below_one_refused_when_the_config_is_made():
    # not in every game, where build_bloom would raise
    with pytest.raises(ParamError, match="m must be >= 1") as err:
        GameConfig("baseline_bloom", "random_probe", P_SMALL, bloom_bits=0)
    assert err.value.key == "bloom_bits"


def test_bloom_bits_refused_for_a_filter_without_an_array():
    for kind in sorted(set(FILTERS) - {"baseline_bloom"}):
        with pytest.raises(ParamError, match=f"kind = {kind} has none") as err:
            GameConfig(kind, "random_probe", P_SMALL, bloom_bits=16)
        assert err.value.key == "bloom_bits"


def test_consistency_search_configs_follow_the_enumerators():
    # a config is refused exactly where the built filter has no enumerator
    for kind in sorted(FILTERS):
        for params, m in ((FilterParams(n=4, eps=2 ** -4, t=64, u_bits=10), 20),
                          (FilterParams(n=4, eps=2 ** -4, t=64, u_bits=10), 21),
                          (FilterParams(n=2, eps=2 ** -4, t=64, u_bits=16), None),
                          (FilterParams(n=4, eps=2 ** -4, t=64, u_bits=17), 16)):
            m = m if kind == "baseline_bloom" else None  # m sizes a Bloom array only
            try:
                GameConfig(kind, "consistency_search", params, bloom_bits=m,
                           expose="structure")
                playable = True
            except ParamError:
                playable = False
            cfg = GameConfig(kind, "random_probe", params, bloom_bits=m)
            rep = build_filter(cfg, sample_set(params, random.Random(1)), params, 2)
            assert playable == (rep.rep_space_enumerator() is not None), (kind, params, m)


@pytest.mark.parametrize("kind", sorted(FILTERS))
def test_non_adaptive_fp_rate_at_small_budgets(kind):
    # at t <= L/2 the budget ceil(2t/L) is 1, and a 1-wise g_j is a constant
    # bit: every fingerprint matched every full cell.  Averaged over builds,
    # every kind stays within 2 eps (criterion 2's upper edge).
    eps, L = 2 ** -4, 4
    builds = 100
    for shielded in (False, True):
        for n in (1, 2, 16):
            for t in (0, 1, L // 2, L // 2 + 1):
                p = FilterParams(n=n, eps=eps, t=t, u_bits=16)
                cfg = GameConfig(kind, "random_probe", p, shielded=shielded)
                rate = sum(measure_fp_rate(cfg, split_seed(40, n, t, b), 100)[0]
                           for b in range(builds)) / builds
                assert rate <= 2 * eps, (shielded, n, t, rate)


@pytest.mark.parametrize("kind", sorted(ADVERSARIES))
def test_every_adversary_constructs_without_options(kind):
    assert ADVERSARIES[kind]() is not None
    # consistency search cannot play without the representation space
    expose = "structure" if kind == "consistency_search" else "none"
    assert GameConfig("exact_set", kind, P_SMALL, expose=expose).adversary_opts == {}


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


def test_run_campaign_refuses_no_fp_samples_before_its_first_game(monkeypatch):
    cfg = GameConfig("baseline_bloom", "random_probe", P_SMALL)
    played = []
    monkeypatch.setattr(experiments, "play_game", lambda *a: played.append(a))
    with pytest.raises(ValueError, match="fp_samples must be >= 1"):
        run_campaign(cfg, trials=2, master_seed=1, fp_samples=0)
    assert played == []


@pytest.mark.parametrize("kind", sorted(FILTERS))
def test_every_filter_kind_plays_at_u_bits_64(kind):
    p = FilterParams(n=8, eps=2 ** -3, t=16, u_bits=64)
    for shielded in (False, True):
        tr = play_game(GameConfig(kind, "mutate_positives", p, shielded=shielded), 5)
        assert tr.valid and len(tr.queries) == p.t
        assert 0 <= tr.challenge < 2 ** 64


@pytest.mark.parametrize("kind,shielded",
                         [(kind, shielded) for kind in FILTERS for shielded in (False, True)])
def test_every_filter_kind_accepts_the_same_members_and_points(kind, shielded):
    # one rule for every kind, plain or shielded: S holds n distinct points
    # of the universe, and every query is a point of the universe
    p = FilterParams(n=4, eps=2 ** -4, t=16, u_bits=13)
    cfg = GameConfig(kind, "random_probe", p, shielded=shielded)
    with pytest.raises(BuildError, match="duplicate elements in S"):
        build_filter(cfg, [1, 2, 3, 2], p, 5)
    for wrong in ([1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(BuildError, match=re.escape(f"|S|={len(wrong)} but params.n=4")):
            build_filter(cfg, wrong, p, 5)
    S = [1, 2, 3, p.universe - 1]
    rep = build_filter(cfg, S, p, 5)
    assert rep.query_many(S) == [rep.query(x) for x in S] == [True] * 4
    for bad in (-1, p.universe, 2 ** 64):
        outside = re.escape(f"element {bad} outside universe [0, 2^13)")
        with pytest.raises(ValueError, match=outside):
            build_filter(cfg, [1, 2, 3, bad], p, 5)
        with pytest.raises(ValueError, match=outside):
            rep.query(bad)
        with pytest.raises(ValueError, match=outside):
            rep.query_many([1, bad, 2])


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
    cfg = GameConfig(kind, "random_probe", toy, shielded=shielded,
                     bloom_bits=16 if kind == "baseline_bloom" else None)
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
        xs = list(range(toy.universe))
        assert ctx.enumerator.first_consistent(xs, [inner.query(x) for x in xs]) is not None
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


# hooks the benchmark tracer names but the program no longer has
STALE_HOOKS = {"shield.ShieldedRep.rep_space_enumerator", "gfamily.GFamily.fingerprint"}


def test_every_benchmark_hook_resolves():
    # the tracer silently skips a hook it cannot find, so a refactor that
    # drops a traced name would only show as a layer reading 0; run_path
    # reads the tracer's source and writes nothing beside it
    tracing = runpy.run_path(str(Path(__file__).resolve().parent.parent
                                 / "benchmarks" / "tracing.py"))
    hooks = tracing["HOOKS"]
    lab = SimpleNamespace(**{m: importlib.import_module(f"filterlab.{m}")
                             for _, m, _ in hooks})
    missing = {f"{m}.{path}" for _, m, path in hooks
               if tracing["_resolve"](lab, m, path) is None}
    assert missing <= STALE_HOOKS


# the benchmark's deterministic block of each workload at --seed 5, without
# xcache_entries
BENCHMARK_BLOCKS = {
    "adaptive_u13": {
        "wins": [0, 0], "oracle_queries": 131072, "bit_comparisons": 629316,
        "candidates_scanned": 0,
        "digest": "97b454449c9477856a7877a9c1f92f3ee44879fd1c2692ebf74b424039a456b8"},
    "wide_u32": {
        "wins": [0, 0], "oracle_queries": 768, "bit_comparisons": 1383,
        "candidates_scanned": 0,
        "digest": "9c14023e67b95eeef8a2fb9ec2b39a7c869aa358d8bbd1d5a135ea770260dd6e"},
    "inversion_toy": {
        "wins": [48, 9], "oracle_queries": 196608, "bit_comparisons": 0,
        "candidates_scanned": 4911119,
        "digest": "e57ed618ded7ab515314dea3d6044950189d5a311bd4a05b16881c090a60af36"},
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_BLOCKS))
def test_benchmark_deterministic_block_is_pinned(name):
    # the fixed pairs that `benchmarks/run.py --seed 5` reports, replayed in
    # process through the benchmark's own game loop, read without writing
    workloads = runpy.run_path(str(Path(__file__).resolve().parent.parent
                                   / "benchmarks" / "workloads.py"))
    lab = SimpleNamespace(**{m: importlib.import_module(f"filterlab.{m}")
                             for m in workloads["LAB_MODULES"]})
    wl = workloads["WORKLOADS"][name]
    loop = workloads["GameLoop"](lab, wl, 5)
    outcomes = workloads["Outcomes"]()
    try:
        for j in range(wl.fixed_pairs):
            for c in range(len(loop.configs)):
                outcomes.add(loop.play(c, j))
    finally:
        loop.close()
    block = outcomes.as_dict(None)
    del block["xcache_entries"]
    assert block == BENCHMARK_BLOCKS[name]
