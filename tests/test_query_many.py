"""`query_many` against the scalar loop it replaces, on every filter kind.

Two filters are built from one seed; one answers each stream point by point
through `query`, the other in one `query_many`.  The streams run one after
the other on the same pair, so cursors carry from batch to batch, and after
each stream the answers, the counters, the cursors, the per-function loads
and the serialized payloads must be equal.
"""

import random
from functools import partial

import pytest

from filterlab import FilterParams, GameConfig, run_challenge, sample_set
from filterlab.adversaries import MutatePositivesAttack
from filterlab.core import QueryBudgetExceeded, QueryOracle
from filterlab import cuckoo
from filterlab.cuckoo import CuckooFilterRep
from filterlab.experiments import FILTERS, build_filter
from filterlab.hashing import mix64

CASES = [(kind, shielded) for kind in sorted(FILTERS) for shielded in (False, True)]


def _params(u_bits: int, eps: float) -> FilterParams:
    return FilterParams(n=64, eps=eps, t=256, u_bits=u_bits)


def _pair(kind: str, shielded: bool, params: FilterParams, seed: int):
    cfg = GameConfig(kind, "mutate_positives", params, shielded=shielded)
    S = sample_set(params, random.Random(seed))
    build = partial(build_filter, cfg, S, params, seed + 1)
    return cfg, S, build(), build()


def _state(rep):
    inner = rep.unshielded
    return (getattr(inner, "bit_comparisons", None), getattr(inner, "query_count", None),
            list(getattr(inner, "cursors", ())), list(getattr(inner, "participation", ())),
            rep.serialize())


def _streams(cfg: GameConfig, S: frozenset, seed: int) -> dict[str, list[int]]:
    params = cfg.params
    rng = random.Random(seed)
    members = sorted(S)
    uniform = [rng.randrange(params.universe) for _ in range(500)]
    hot = uniform[:30] + members[:10]
    game = run_challenge(partial(build_filter, cfg), MutatePositivesAttack(), S, params,
                         seed + 2)
    return {
        "uniform": uniform,
        "repeats": [rng.choice(hot) for _ in range(600)],
        "mutate_positives": [x for x, _ in game.queries],
        "members": members + members[::-1],
        "empty": [],
    }


def _answers_until_error(query, xs):
    answers = []
    try:
        for x in xs:
            answers.append(query(x))
    except ValueError as exc:
        return answers, str(exc)
    return answers, None


@pytest.mark.parametrize("kind,shielded", CASES)
@pytest.mark.parametrize("u_bits,eps", [(13, 2 ** -6), (13, 2 ** -17), (32, 2 ** -6),
                                        (32, 2 ** -17)])
def test_query_many_equals_the_scalar_loop(kind, shielded, u_bits, eps):
    # eps 2^-6 gives ell = 24 on the resilient cuckoo filter, 2^-17 gives 68
    params = _params(u_bits, eps)
    for seed in (1, 2):
        cfg, S, loop_rep, batch_rep = _pair(kind, shielded, params, 100 * u_bits + seed)
        for name, xs in _streams(cfg, S, seed).items():
            assert batch_rep.query_many(xs) == [loop_rep.query(x) for x in xs], name
            assert _state(batch_rep) == _state(loop_rep), name
        inner = loop_rep.unshielded
        if isinstance(inner, CuckooFilterRep):  # the streams moved what they compare
            assert max(inner.participation) > 0
            assert any(inner.cursors) == inner.cursors_enabled


@pytest.mark.parametrize("kind", ["cuckoo_random_query", "cuckoo_resilient"])
def test_a_batch_in_several_passes_equals_the_scalar_loop(monkeypatch, kind):
    # a batch longer than QUERY_CHUNK goes through numpy in passes, each one
    # starting from the cursors the pass before it left
    monkeypatch.setattr(cuckoo, "QUERY_CHUNK", 7)
    params = _params(13, 2 ** -6)
    cfg, S, loop_rep, batch_rep = _pair(kind, False, params, 11)
    xs = [x for stream in _streams(cfg, S, 12).values() for x in stream]
    xs.insert(300, params.universe)  # rejected after 42 passes and 6 points
    answers, error = _answers_until_error(loop_rep.query, xs)
    assert len(answers) == 300
    with pytest.raises(ValueError) as exc:
        batch_rep.query_many(xs)
    assert str(exc.value) == error
    assert _state(batch_rep) == _state(loop_rep)
    rest = xs[301:]
    assert batch_rep.query_many(rest) == [loop_rep.query(x) for x in rest]
    assert _state(batch_rep) == _state(loop_rep)


@pytest.mark.parametrize("kind,shielded", CASES)
@pytest.mark.parametrize("bad", [-1, "universe", 2 ** 64])
def test_a_rejected_point_raises_after_the_same_prefix(kind, shielded, bad):
    params = _params(13, 2 ** -6)
    cfg, S, loop_rep, batch_rep = _pair(kind, shielded, params, 7)
    rng = random.Random(8)
    bad = params.universe if bad == "universe" else bad
    xs = [rng.randrange(params.universe) for _ in range(200)] + sorted(S)
    xs.insert(150, bad)
    answers, error = _answers_until_error(loop_rep.query, xs)
    assert len(answers) == 150
    with pytest.raises(ValueError) as exc:
        batch_rep.query_many(xs)
    assert str(exc.value) == error
    assert _state(batch_rep) == _state(loop_rep)


@pytest.mark.parametrize("kind,shielded", CASES)
def test_oracle_batch_crossing_the_budget_records_the_prefix(kind, shielded):
    params = _params(13, 2 ** -6)
    cfg, S, loop_rep, batch_rep = _pair(kind, shielded, params, 9)
    rng = random.Random(10)
    first = [rng.randrange(params.universe) for _ in range(100)]
    crossing = [rng.randrange(params.universe) for _ in range(60)] + sorted(S)[:5]
    loop, batch = QueryOracle(loop_rep, 130), QueryOracle(batch_rep, 130)

    assert batch.query_many(first) == [loop.query(x) for x in first]
    with pytest.raises(QueryBudgetExceeded):
        for x in crossing:
            loop.query(x)
    with pytest.raises(QueryBudgetExceeded):
        batch.query_many(crossing)
    assert len(batch.queries) == 130
    assert batch.queries == loop.queries
    assert batch.queried == loop.queried
    assert _state(batch_rep) == _state(loop_rep)
    with pytest.raises(QueryBudgetExceeded):
        batch.query_many(crossing[:1])
    assert batch.query_many([]) == []
    assert len(batch.queries) == 130


@pytest.mark.parametrize("kind", ["cuckoo_random_query", "cuckoo_resilient"])
def test_points_on_two_empty_cells_equal_the_scalar_loop(kind):
    # no probe compares anything: every answer is no, no cursor moves and
    # no function gains load, yet every point counts as a query
    params = _params(13, 2 ** -6)
    cfg, S, loop_rep, batch_rep = _pair(kind, False, params, 13)
    loop_rep.query_many(sorted(S))  # move some cursors first
    batch_rep.query_many(sorted(S))
    before = _state(batch_rep)
    (s1, s2), r = batch_rep.seeds, batch_rep.r
    xs = [x for x in range(params.universe)
          if batch_rep.slots[mix64(s1, x) % r] is None
          and batch_rep.slots[r + mix64(s2, x) % r] is None][:300]
    assert len(xs) == 300
    xs += xs[:50]
    assert batch_rep.query_many(xs) == [loop_rep.query(x) for x in xs] == [False] * 350
    assert _state(batch_rep) == _state(loop_rep)
    assert _state(batch_rep)[:4] == (before[0], before[1] + 350, *before[2:4])
