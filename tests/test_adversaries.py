import hashlib
import math
import random
import re
from functools import partial
from pathlib import Path

import pytest

from filterlab import FilterParams, build_bloom, build_exact_set, sample_set
from filterlab.adversaries import (
    CANDIDATE_CAP,
    ConsistencySearchAttack,
    InconsistentOracleError,
    MutatePositivesAttack,
    RandomProbeAttack,
    SamplingError,
    SeedExposedAttack,
    err_estimate,
    fresh_element,
    mu_estimate,
)
from filterlab.bloom import BloomFilterRep, BloomRepSpace
from filterlab.core import (
    AdversaryContext,
    ExactSetRepSpace,
    QueryOracle,
    minimal_error,
    run_challenge,
    stopped,
)
from filterlab.experiments import (ADVERSARIES, GameConfig, build_filter,
                                   make_adversary, play_game)
from filterlab.hashing import split_seed
from test_query_many import _state

TOY = FilterParams(n=4, eps=2 ** -4, t=51200, u_bits=10)


def _toy_bloom(S, params, seed):
    return build_bloom(S, params, seed, m=16)


def test_random_probe_never_beats_exact_set():
    p = FilterParams(n=16, eps=2 ** -3, t=64, u_bits=12)
    for i in range(40):
        tr = run_challenge(build_exact_set, RandomProbeAttack(), None, p,
                           split_seed(1, i))
        assert tr.valid and not tr.success
        assert len(tr.queries) == p.t


def test_random_probe_exhausted_universe_raises():
    p = FilterParams(n=4, eps=0.25, t=8, u_bits=3)  # u = 8 <= t + n
    with pytest.raises(SamplingError):
        run_challenge(_toy_bloom, RandomProbeAttack(), None, p, 3)


def test_fresh_element_avoids_exclusions():
    rng = random.Random(5)
    for _ in range(200):
        x = fresh_element(rng, 16, {0, 1, 2, 3}, {4, 5})
        assert x in range(6, 16)
    with pytest.raises(SamplingError):
        fresh_element(rng, 4, {0, 1}, {2, 3})


def test_fresh_element_counts_overlapping_exclusions_once():
    # 4 + 12 excluded points cover only 0..11 of 16: 12..15 are fresh
    rng = random.Random(1)
    for _ in range(50):
        assert fresh_element(rng, 16, frozenset(range(4)), set(range(12))) in range(12, 16)
    with pytest.raises(SamplingError):
        fresh_element(rng, 16, frozenset(range(8)), set(range(4, 16)))


def test_mutate_positives_respects_contract():
    p = FilterParams(n=16, eps=2 ** -3, t=64, u_bits=12)
    for i in range(20):
        tr = run_challenge(_toy_bloom, MutatePositivesAttack(), None,
                           FilterParams(n=16, eps=2 ** -3, t=64, u_bits=12),
                           split_seed(7, i))
        assert tr.valid
        assert len(tr.queries) == p.t
    for i in range(20):
        tr = run_challenge(build_exact_set, MutatePositivesAttack(), None, p,
                           split_seed(8, i))
        assert not tr.success


class ScalarMutatePositives:
    """MutatePositivesAttack as one oracle query at a time: the reference its
    speculative blocks must match draw for draw and query for query."""

    def run(self, ctx):
        params, rng, oracle = ctx.params, ctx.rng, ctx.oracle
        u = params.universe
        if u <= params.t + params.n:
            raise SamplingError(f"universe 2^{params.u_bits} <= t + n")
        positives = []
        for _ in range(params.t):
            if positives and rng.random() < 0.5:
                x = rng.choice(positives) ^ (1 << rng.randrange(params.u_bits))
            else:
                x = rng.randrange(u)
            if oracle.query(x) and x not in ctx.S:
                positives.append(x)
        if positives:
            for _ in range(256):
                x = rng.choice(positives) ^ (1 << rng.randrange(params.u_bits))
                if x not in ctx.S and x not in oracle.queried:
                    return x
        return fresh_element(rng, u, ctx.S, oracle.queried)


class ScalarRandomProbe:
    """RandomProbeAttack drawing its t queries one `randrange` at a time."""

    def run(self, ctx):
        params, rng, oracle = ctx.params, ctx.rng, ctx.oracle
        u = params.universe
        if u <= params.t + params.n:
            raise SamplingError(f"universe 2^{params.u_bits} <= t + n")
        oracle.query_many([rng.randrange(u) for _ in range(params.t)])
        return fresh_element(rng, u, ctx.S, oracle.queried)


class ScalarConsistencySearch(ConsistencySearchAttack):
    """ConsistencySearchAttack drawing its label sample one `randrange` at a
    time."""

    def run(self, ctx):
        params, rng, oracle, enum = ctx.params, ctx.rng, ctx.oracle, ctx.enumerator
        u = params.universe
        eps0 = minimal_error(enum.memory_bits, params.n)
        budget = math.ceil(self.c * enum.memory_bits / eps0)
        xs = [rng.randrange(u) for _ in range(min(oracle.budget, budget, 2 * u))]
        ys = oracle.query_many(xs)
        chosen = self.last_consistent_rep = enum.first_consistent(xs, ys)
        if chosen is None:
            if self.strict:
                raise InconsistentOracleError("no consistent representation")
            return fresh_element(rng, u, ctx.S, oracle.queried)
        model = enum.model(chosen)
        for _ in range(min(math.ceil(100.0 / eps0), CANDIDATE_CAP)):
            x = rng.randrange(u)
            if x in ctx.S or x in oracle.queried:
                continue
            if model.query(x):
                return x
        return fresh_element(rng, u, ctx.S, oracle.queried)


def _played(cfg, strategy, seed):
    """The transcript of one game of cfg's filter against strategy, and the
    filter it left behind."""
    reps = []

    def build(S, params, build_seed):
        reps.append(build_filter(cfg, S, params, build_seed))
        return reps[-1]

    tr = run_challenge(build, strategy, None, cfg.params, seed, expose=cfg.expose)
    return tr, reps[0]


@pytest.mark.parametrize("kind,shielded,params", [
    ("cuckoo_resilient", False, FilterParams(n=1024, eps=2 ** -2, t=4096, u_bits=13)),
    ("cuckoo_resilient", True, FilterParams(n=1024, eps=2 ** -2, t=4096, u_bits=13)),
    ("baseline_bloom", False, FilterParams(n=64, eps=2 ** -2, t=1000, u_bits=12)),
    ("cuckoo_resilient", False, FilterParams(n=1024, eps=2 ** -2, t=1024, u_bits=32)),
    ("baseline_bloom", True, FilterParams(n=64, eps=2 ** -2, t=1000, u_bits=12)),
])
def test_mutate_positives_equals_the_scalar_loop(kind, shielded, params):
    # shapes where non-member positives are frequent, so blocks stop, the
    # RNG rewinds and the block size restarts many times in one game
    cfg = GameConfig(kind, "mutate_positives", params, shielded=shielded)
    positives = 0
    for i in range(3):
        seed = split_seed(21, i)
        tr, rep = _played(cfg, MutatePositivesAttack(), seed)
        ref, ref_rep = _played(cfg, ScalarMutatePositives(), seed)
        assert tr == ref
        assert _state(rep) == _state(ref_rep)
        S = sample_set(params, random.Random(tr.seed_record["set"]))
        positives += sum(y and x not in S for x, y in tr.queries)
    assert positives >= 15


def test_mutate_positives_sizes_each_block_by_the_mean_gap(monkeypatch):
    # the first block is the whole budget; after a stop the next block is
    # ceil(queries answered / positives found), and a block without a stop
    # doubles the next one
    params = FilterParams(n=64, eps=2 ** -2, t=1000, u_bits=12)
    cfg = GameConfig("baseline_bloom", "mutate_positives", params)
    blocks = []  # (size sent, answers, whether it ended at a stop)
    query_many = QueryOracle.query_many

    def recorded(self, xs, stop=None):
        ys = query_many(self, xs, stop)
        blocks.append((len(xs), len(ys), stopped(ys, stop)))
        return ys

    monkeypatch.setattr(QueryOracle, "query_many", recorded)
    _played(cfg, MutatePositivesAttack(), split_seed(22, 0))
    left = block = params.t
    positives = 0
    for size, answered, stop in blocks:
        assert size == min(block, left)
        left -= answered
        block *= 2
        if stop:
            positives += 1
            block = math.ceil((params.t - left) / positives)
    assert left == 0
    assert positives >= 100


U13 = FilterParams(n=1024, eps=2 ** -6, t=4096, u_bits=13)
U32 = FilterParams(n=1024, eps=2 ** -6, t=64, u_bits=32)


@pytest.mark.parametrize("shielded", [False, True])
@pytest.mark.parametrize("params", [U13, U32], ids=["u13", "u32"])
def test_random_probe_equals_the_scalar_draws(params, shielded):
    cfg = GameConfig("cuckoo_resilient", "random_probe", params, shielded=shielded)
    for i in range(2):
        seed = split_seed(23, i)
        tr, rep = _played(cfg, RandomProbeAttack(), seed)
        ref, ref_rep = _played(cfg, ScalarRandomProbe(), seed)
        assert tr == ref
        assert _state(rep) == _state(ref_rep)


@pytest.mark.parametrize("shielded", [False, True])
def test_consistency_search_equals_the_scalar_draws(shielded):
    cfg = GameConfig("baseline_bloom", "consistency_search", TOY, shielded=shielded,
                     bloom_bits=16, expose="structure")
    for i in range(4):
        seed = split_seed(24, i)
        attack = ConsistencySearchAttack(strict=not shielded)
        ref_attack = ScalarConsistencySearch(strict=not shielded)
        tr, rep = _played(cfg, attack, seed)
        ref, ref_rep = _played(cfg, ref_attack, seed)
        assert tr == ref
        assert attack.last_consistent_rep == ref_attack.last_consistent_rep
        assert _state(rep) == _state(ref_rep)


def test_seed_exposed_white_box_wins_without_oracle_queries():
    p = FilterParams(n=1000, eps=2 ** -6, t=100, u_bits=32)
    cfg = GameConfig("baseline_bloom", "seed_exposed", p, expose="full")
    wins = 0
    for i in range(60):
        tr = play_game(cfg, split_seed(9, i))
        assert len(tr.queries) == 0
        wins += tr.success
    assert wins / 60 >= 0.9


def test_seed_exposed_falls_through_on_exact_set():
    p = FilterParams(n=16, eps=2 ** -3, t=64, u_bits=12)
    cfg = GameConfig("exact_set", "seed_exposed", p, expose="full",
                     adversary_opts={"candidate_budget": 20_000})
    for i in range(3):
        tr = play_game(cfg, split_seed(10, i))
        assert tr.valid and not tr.success


def test_seed_exposed_without_exposure_is_blind():
    p = FilterParams(n=1000, eps=2 ** -6, t=100, u_bits=32)
    cfg = GameConfig("baseline_bloom", "seed_exposed", p, expose="none")
    wins = sum(play_game(cfg, split_seed(11, i)).success for i in range(100))
    assert wins / 100 <= p.eps + 0.05


def test_consistency_search_beats_toy_bloom():
    cfg = GameConfig("baseline_bloom", "consistency_search", TOY,
                     bloom_bits=16, expose="structure",
                     adversary_opts={"c": 200, "strict": True})
    wins = sum(play_game(cfg, split_seed(12, i)).success for i in range(12))
    assert wins / 12 >= 2 / 3


def test_consistency_search_needs_enumerator():
    cfg_params = FilterParams(n=4, eps=2 ** -4, t=512, u_bits=10)
    with pytest.raises(InconsistentOracleError):
        run_challenge(_toy_bloom, ConsistencySearchAttack(), None, cfg_params,
                      13, expose="none")


def test_consistency_search_strict_raises_through_shield():
    cfg = GameConfig("baseline_bloom", "consistency_search", TOY, shielded=True,
                     bloom_bits=16, expose="structure",
                     adversary_opts={"c": 200, "strict": True})
    with pytest.raises(InconsistentOracleError):
        play_game(cfg, 14)


def test_consistency_search_nonstrict_degrades_gracefully():
    cfg = GameConfig("baseline_bloom", "consistency_search", TOY, shielded=True,
                     bloom_bits=16, expose="structure",
                     adversary_opts={"c": 200, "strict": False})
    tr = play_game(cfg, 15)
    assert tr.valid and tr.challenge is not None


def test_consistency_search_concedes_a_covered_universe():
    # 2 members among 4 points and 8 labels: when S and the labels cover the
    # universe no fresh guess exists, and the attack names its first label
    p = FilterParams(n=2, eps=0.25, t=64, u_bits=2)
    cfg = GameConfig("baseline_bloom", "consistency_search", p, bloom_bits=4,
                     expose="structure")
    conceded = 0
    for i in range(40):
        tr = play_game(cfg, split_seed(43, i))
        S = sample_set(p, random.Random(tr.seed_record["set"]))
        if S | {x for x, _ in tr.queries} == set(range(p.universe)):
            assert tr.valid and tr.challenge == tr.queries[0][0] and not tr.success
            conceded += 1
    assert conceded > 0


def test_consistency_search_on_exact_set_finds_truth_but_no_positive():
    p = FilterParams(n=4, eps=2 ** -4, t=512, u_bits=10)
    for i in range(5):
        tr = run_challenge(build_exact_set, ConsistencySearchAttack(), None, p,
                           split_seed(16, i), expose="structure")
        assert tr.valid and not tr.success


def test_recovered_model_approximates_the_oracle():
    # drive the attack by hand so the chosen model can be inspected:
    # err(true, model) <= eps0/10 in >= 95% of runs, exhaustively measured
    eps0 = minimal_error(16, 4)
    good = 0
    runs = 40
    for i in range(runs):
        rng = random.Random(split_seed(17, i))
        S = sample_set(TOY, rng)
        rep = _toy_bloom(S, TOY, rng.getrandbits(63))
        oracle = QueryOracle(rep, TOY.t)
        enum = rep.rep_space_enumerator()
        ctx = AdversaryContext(oracle=oracle, S=S, params=TOY,
                               rng=random.Random(split_seed(18, i)),
                               enumerator=enum)
        attack = ConsistencySearchAttack(c=200, strict=True)
        attack.run(ctx)
        chosen = attack.last_consistent_rep
        assert chosen is not None
        model = enum.model(chosen)
        err = sum(model.query(x) != rep.query(x)
                  for x in range(TOY.universe)) / TOY.universe
        if err <= eps0 / 10:
            good += 1
    assert good / runs >= 0.95


def _rule(enum):
    """(rid, x) -> how id rid answers x, by the reference mask rule: array
    rid answers x iff it holds x's OR-mask.  The exact set's one id
    answers as the set."""
    if isinstance(enum, ExactSetRepSpace):
        return lambda rid, x: enum.model(rid).query(x)
    masks = enum.masks.tolist()
    return lambda rid, x: (rid & masks[x]) == masks[x]


def _scan(enum, ids, labels):
    """The ascending candidate scan `first_consistent` replaced, as reference."""
    answer = _rule(enum)
    for rid in ids:
        ok = True
        for x, y in labels:
            if answer(rid, x) != y:
                ok = False
                break
        if ok:
            return rid
    return None


def _bloom_space(m, seed, k_h=3, u_bits=10):
    rng = random.Random(seed)
    seeds = tuple(rng.getrandbits(64) for _ in range(k_h))
    params = FilterParams(n=4, eps=2 ** -4, t=0, u_bits=u_bits)
    return BloomRepSpace(BloomFilterRep(params, seeds, bytearray(m)))


def _check_against_scan(enum, labels):
    chosen = enum.first_consistent([x for x, _ in labels], [y for _, y in labels])
    assert chosen == _scan(enum, range(1 << enum.m), labels)
    return chosen


@pytest.mark.parametrize("m", [1, 16])
def test_first_consistent_matches_scan_on_random_labels(m):
    for case in range(12):
        enum = _bloom_space(m, split_seed(30, m, case), k_h=1 + case % 3)
        rng = random.Random(split_seed(31, m, case))
        truth = rng.getrandbits(m)
        xs = [rng.randrange(1 << 10) for _ in range(rng.choice((1, 4, 40, 400)))]
        xs += xs[:len(xs) // 2]  # duplicate labels
        answer = _rule(enum)
        labels = [(x, answer(truth, x)) for x in xs]
        chosen = _check_against_scan(enum, labels)
        assert chosen is not None and chosen <= truth
        noisy = [(x, rng.random() < 0.5) for x in xs[:rng.choice((1, 3, 12))]]
        _check_against_scan(enum, noisy)


def test_first_consistent_edge_label_sets():
    enum = _bloom_space(16, 32)
    assert _check_against_scan(enum, []) == 0
    xs = range(0, 1 << 10, 97)
    positives = [(x, True) for x in xs]
    need = 0
    for x in xs:
        need |= enum.masks[x]
    assert _check_against_scan(enum, positives) == need
    assert _check_against_scan(enum, [(x, False) for x in xs]) == 0
    assert _check_against_scan(enum, [(5, True), (7, False), (5, False)]) is None
    # a negative whose mask lies inside a positive's leaves no array
    x = next(x for x in range(1, 1 << 10) if enum.masks[x] & ~enum.masks[0] == 0)
    assert _check_against_scan(enum, [(0, True), (x, False)]) is None


def test_first_consistent_at_one_bit():
    enum = _bloom_space(1, 33)
    assert _check_against_scan(enum, [(3, False), (9, False)]) == 0
    assert _check_against_scan(enum, [(3, True)]) == 1
    assert _check_against_scan(enum, [(3, True), (9, False)]) is None


def test_first_consistent_at_twenty_bits():
    enum = _bloom_space(20, 34, k_h=2)
    truth = 0b1011_0000_0000_0110_0001
    xs = random.Random(35).sample(range(1 << 10), 300)
    answer = _rule(enum)
    assert _check_against_scan(enum, [(x, answer(truth, x)) for x in xs]) == truth
    full = (1 << 20) - 1
    labels = [(x, answer(full ^ int(enum.masks[xs[0]]), x)) for x in xs]
    assert _check_against_scan(enum, labels) is not None
    assert _check_against_scan(enum, labels + [(xs[0], True)]) is None


@pytest.mark.parametrize("m", [2, 7, 12])
def test_first_consistent_matches_scan_on_superset_edges(m):
    for case in range(8):
        enum = _bloom_space(m, split_seed(39, m, case), k_h=1 + case % 3)
        rng = random.Random(split_seed(40, m, case))
        xs = [rng.randrange(1 << 10) for _ in range(rng.choice((3, 30, 300)))]
        truth = rng.getrandbits(m)
        answer = _rule(enum)
        labels = [(x, answer(truth, x)) for x in xs]
        assert _check_against_scan(enum, []) == 0
        assert _check_against_scan(enum, labels + labels[::2]) <= truth  # duplicates
        need = 0
        for x in xs:
            need |= enum.masks[x]
        assert _check_against_scan(enum, [(x, True) for x in xs]) == need
        # positives until `need` covers all m bits: the one superset is all ones
        full, covered, covering = (1 << m) - 1, 0, []
        for x in range(1 << 10):
            covering.append((x, True))
            covered |= enum.masks[x]
            if covered == full:
                break
        assert _check_against_scan(enum, covering) == full
        assert _check_against_scan(enum, covering + [(xs[0], False)]) is None
        # a negative whose mask lies inside `need` leaves no superset
        inside = next(x for x in range(1 << 10) if enum.masks[x] & ~need == 0)
        assert _check_against_scan(enum, [(x, True) for x in xs] + [(inside, False)]) is None
        noisy = [(x, rng.random() < 0.3) for x in xs]
        _check_against_scan(enum, noisy + noisy[:5])


def test_first_consistent_at_twenty_bits_without_positives():
    # no positive label: all 2^20 ids are candidates, and 0 holds no mask
    enum = _bloom_space(20, 41, k_h=2)
    xs = random.Random(42).sample(range(1 << 10), 200)
    assert _check_against_scan(enum, []) == 0
    assert _check_against_scan(enum, [(x, False) for x in xs]) == 0


@pytest.mark.parametrize("m", [1, 5, 12])
def test_first_consistent_is_the_or_of_positive_masks(m):
    # labels from a true array: the answer is the positive masks' OR, it lies
    # inside the truth, and its model answers every label as the truth does
    for case in range(6):
        enum = _bloom_space(m, split_seed(43, m, case), k_h=1 + case % 3)
        rng = random.Random(split_seed(44, m, case))
        truth = rng.getrandbits(m)
        xs = rng.sample(range(1 << 10), rng.choice((1, 8, 64, 1 << 10)))
        answer = _rule(enum)
        ys = [answer(truth, x) for x in xs]
        need = 0
        for x, y in zip(xs, ys):
            if y:
                need |= int(enum.masks[x])
        assert enum.first_consistent(xs, ys) == need
        assert need & ~truth == 0
        assert enum.model(need).query_many(xs) == ys


def test_first_consistent_on_exact_set():
    p = FilterParams(n=4, eps=2 ** -4, t=512, u_bits=10)
    rep = build_exact_set(sample_set(p, random.Random(36)), p, 0)
    enum = rep.rep_space_enumerator()
    assert isinstance(enum, ExactSetRepSpace)
    labels = [(x, rep.query(x)) for x in range(p.universe)]
    for subset in ([], labels, labels[:10]):
        xs, ys = [x for x, _ in subset], [y for _, y in subset]
        assert enum.first_consistent(xs, ys) == _scan(enum, range(1), subset) == 0
    x, y = labels[3]
    bad = labels[:10] + [(x, not y)]
    xs, ys = [x for x, _ in bad], [y for _, y in bad]
    assert enum.first_consistent(xs, ys) is None and _scan(enum, range(1), bad) is None


@pytest.mark.parametrize("shielded", [False, True])
def test_first_consistent_matches_scan_in_played_games(shielded):
    cfg = GameConfig("baseline_bloom", "consistency_search", TOY, shielded=shielded,
                     bloom_bits=16, expose="structure")
    for i in range(3):
        rng = random.Random(split_seed(37, shielded, i))
        S = sample_set(TOY, rng)
        rep = build_filter(cfg, S, TOY, rng.getrandbits(63))
        oracle = QueryOracle(rep, TOY.t)
        enum = rep.unshielded.rep_space_enumerator()
        ctx = AdversaryContext(oracle=oracle, S=S, params=TOY, rng=rng,
                               enumerator=enum)
        attack = ConsistencySearchAttack(strict=not shielded)
        attack.run(ctx)
        assert attack.last_consistent_rep == _scan(enum, range(1 << 16), oracle.queries)
        assert (attack.last_consistent_rep is None) == shielded


def test_inversion_games_are_unchanged():
    # SHA-256 over (challenge, success, queries, chosen id) of 20 games of
    # each inversion config, computed with the candidate scan this replaced
    h = hashlib.sha256()
    for shielded in (False, True):
        cfg = GameConfig("baseline_bloom", "consistency_search", TOY, shielded=shielded,
                         bloom_bits=16, expose="structure")
        for i in range(20):
            attack = ConsistencySearchAttack(c=200, strict=not shielded)
            tr = run_challenge(partial(build_filter, cfg), attack, None, TOY,
                               split_seed(19, i), expose="structure")
            h.update(repr((tr.challenge, tr.success, len(tr.queries),
                           attack.last_consistent_rep)).encode())
    assert h.hexdigest() == ("a0859cddb9212ea77ff91f36cfdbeb48"
                             "0080598691915526a92479a12b84cb7a")


# (name, config) pairs whose games end through every branch of the challenge
# rule: candidates from a search or from mutations, a fresh guess, and the
# concession on a covered universe
CHALLENGE_SHAPES = [
    ("random_probe", GameConfig("cuckoo_resilient", "random_probe",
                                FilterParams(n=64, eps=2 ** -4, t=64, u_bits=12))),
    ("mutate_cuckoo", GameConfig("cuckoo_resilient", "mutate_positives",
                                 FilterParams(n=64, eps=2 ** -4, t=64, u_bits=12))),
    ("mutate_dense_bloom", GameConfig("baseline_bloom", "mutate_positives",
                                      FilterParams(n=64, eps=2 ** -2, t=1000, u_bits=12))),
    ("seed_exposed_full", GameConfig("baseline_bloom", "seed_exposed",
                                     FilterParams(n=1000, eps=2 ** -6, t=100, u_bits=32),
                                     expose="full")),
    ("seed_exposed_none", GameConfig("baseline_bloom", "seed_exposed",
                                     FilterParams(n=1000, eps=2 ** -6, t=100, u_bits=32))),
    ("consistency_exact_set", GameConfig("exact_set", "consistency_search",
                                         FilterParams(n=4, eps=2 ** -4, t=512, u_bits=10),
                                         expose="structure")),
    ("consistency_toy_bloom", GameConfig("baseline_bloom", "consistency_search", TOY,
                                         bloom_bits=16, expose="structure")),
    ("consistency_shielded", GameConfig("baseline_bloom", "consistency_search", TOY,
                                        shielded=True, bloom_bits=16, expose="structure",
                                        adversary_opts={"strict": False})),
    ("consistency_covered", GameConfig("baseline_bloom", "consistency_search",
                                       FilterParams(n=2, eps=0.25, t=64, u_bits=2),
                                       bloom_bits=4, expose="structure")),
]


def test_challenges_are_unchanged():
    # SHA-256 over (challenge, success, number of queries) of a few games of
    # every shape, computed before the strategies shared one challenge rule
    h = hashlib.sha256()
    for j, (name, cfg) in enumerate(CHALLENGE_SHAPES):
        for i in range(8):
            tr = play_game(cfg, split_seed(53, j, i))
            h.update(repr((name, tr.challenge, tr.success, len(tr.queries))).encode())
    assert h.hexdigest() == ("9f234b2cf0ddcfb09e58c9402bd24c27"
                             "d6169d8ae30662e22f80e7541baf5cf3")


class _KeepContext:
    """A strategy that plays another and keeps the context it was given."""

    def __init__(self, inner):
        self.inner, self.ctx = inner, None

    def run(self, ctx):
        self.ctx = ctx
        return self.inner.run(ctx)


@pytest.mark.parametrize("name,cfg", CHALLENGE_SHAPES, ids=[n for n, _ in CHALLENGE_SHAPES])
def test_games_record_plain_ints(name, cfg):
    # batches go to the oracle as uint64 arrays; what a game records (the
    # transcript, the queried set, the challenge) holds ints and bools, so
    # no np.uint64 reaches a transcript, a CSV or a JSON record
    assert {c.adversary_kind for _, c in CHALLENGE_SHAPES} == set(ADVERSARIES)
    for i in range(2):
        strategy = _KeepContext(make_adversary(cfg))
        tr = run_challenge(partial(build_filter, cfg), strategy, None, cfg.params,
                           split_seed(71, i), expose=cfg.expose)
        assert all(type(x) is int and type(y) is bool for x, y in tr.queries)
        assert all(type(x) is int for x in strategy.ctx.oracle.queried)
        assert type(tr.challenge) is int


def test_wide_u32_games_are_unchanged():
    # SHA-256 over (challenge, success, number of queries, bit comparisons) of
    # the benchmark's wide_u32 shape, plain and shielded: every X-vector of
    # these games is built over GF(2^32), so this pins that build end to end.
    # Computed while the powers still came from chained carry-less products.
    h = hashlib.sha256()
    p = FilterParams(n=1024, eps=2 ** -6, t=64, u_bits=32)
    for shielded in (False, True):
        cfg = GameConfig("cuckoo_resilient", "mutate_positives", p, shielded=shielded)
        for i in range(4):
            reps = []

            def build(S, params, seed):
                reps.append(build_filter(cfg, S, params, seed))
                return reps[-1]

            tr = run_challenge(build, make_adversary(cfg), None, p,
                               split_seed(61, int(shielded), i), expose=cfg.expose)
            h.update(repr((tr.challenge, tr.success, len(tr.queries),
                           reps[0].unshielded.bit_comparisons)).encode())
    assert h.hexdigest() == ("6733a23295191793a7c7c0882972bd38"
                             "2ae35403d20584cecc361e6caef1fe34")


def test_consistency_search_rejects_a_contradicted_model(monkeypatch):
    # an enumerator answering an id that contradicts the labels must raise,
    # also under `python -O`, which strips asserts
    monkeypatch.setattr(BloomRepSpace, "first_consistent",
                        lambda self, xs, ys: (1 << self.m) - 1)
    with pytest.raises(InconsistentOracleError, match="contradicts"):
        run_challenge(_toy_bloom, ConsistencySearchAttack(), None, TOY, 38,
                      expose="structure")


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_readme_lists_the_enumerator_contract():
    # the attributes both spaces share are the contract the README lists
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    things = re.search(r"An\s+enumerator offers \w+ things:(.*?)\.\s+The Bloom", readme,
                       flags=re.S).group(1)
    listed = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", things))
    assert len(listed) == len(set(listed))
    assert set(listed) == _public(BloomRepSpace) & _public(ExactSetRepSpace)
    assert set(listed) == {"memory_bits", "first_consistent", "model"}


def test_readme_adversaries_sentence_names_the_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"^Adversaries:(.*?)\.\s", readme, flags=re.S | re.M).group(1)
    listed = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", sentence))
    assert listed == [cls.__name__ for cls in ADVERSARIES.values()]


def test_err_estimate_identity_and_extremes():
    p = FilterParams(n=16, eps=2 ** -3, t=8, u_bits=10)
    S = sample_set(p, random.Random(20))
    rep = build_bloom(S, p, 21, m=128)
    assert err_estimate(rep, rep) == 0.0

    zero = BloomFilterRep(p, rep.seeds, bytearray(64))
    ones = BloomFilterRep(p, rep.seeds, bytearray([1]) * 64)
    assert err_estimate(zero, ones) == 1.0


def test_mu_estimate_extremes_and_exact_set():
    p = FilterParams(n=16, eps=2 ** -3, t=8, u_bits=10)
    S = sample_set(p, random.Random(23))
    exact = build_exact_set(S, p, 0)
    assert mu_estimate(exact) == 16 / 1024

    ones = BloomFilterRep(p, (24,), bytearray([1]) * 64)
    assert mu_estimate(ones) == 1.0


def test_estimators_sample_large_universes():
    p = FilterParams(n=50, eps=2 ** -4, t=8, u_bits=32)
    S = sample_set(p, random.Random(25))
    rep = build_bloom(S, p, 26)
    mu = mu_estimate(rep, sample_count=4000, rng=random.Random(27))
    assert 0.0 <= mu <= 0.2
    assert err_estimate(rep, rep, sample_count=1000, rng=random.Random(28)) == 0.0
