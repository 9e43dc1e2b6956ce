"""`query_many` against the scalar loop it replaces, on every filter kind.

Two filters are built from one seed; one answers each stream point by point
through `query`, the other in one `query_many`.  The streams run one after
the other on the same pair, so cursors carry from batch to batch, and after
each stream the answers, the counters, the cursors, the per-function loads
and the serialized payloads must be equal.  A batch is given as a list of
ints or as a uint64 array, the format the adversaries draw.  A batch with a stop predicate
is held to the loop that breaks right after the first answer holding it.
"""

import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import filterlab
from filterlab import FilterParams, GameConfig, run_challenge, sample_set
from filterlab.adversaries import MutatePositivesAttack
from filterlab.core import QueryBudgetExceeded, QueryOracle
from filterlab.cuckoo import CuckooFilterRep
from filterlab.experiments import FILTERS, build_filter
from filterlab.hashing import mix64

CASES = [(kind, shielded) for kind in sorted(FILTERS) for shielded in (False, True)]


def _params(u_bits: int, eps: float) -> FilterParams:
    return FilterParams(n=64, eps=eps, t=256, u_bits=u_bits)


def _pair(kind: str, shielded: bool, params: FilterParams, seed: int, copies: int = 2):
    cfg = GameConfig(kind, "mutate_positives", params, shielded=shielded)
    S = sample_set(params, random.Random(seed))
    build = partial(build_filter, cfg, S, params, seed + 1)
    return (cfg, S, *(build() for _ in range(copies)))


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


def _first_true(S, xs):
    return lambda i, y: y


def _first_nonmember_true(S, xs):  # MutatePositivesAttack's stop
    return lambda i, y: y and xs[i] not in S


STOPS = {"none": None, "first True": _first_true,
         "first non-member True": _first_nonmember_true}


def _loop(query, xs, stop=None):
    """The scalar loop a batch with `stop` replaces."""
    ys = []
    for i, x in enumerate(xs):
        ys.append(query(x))
        if stop is not None and stop(i, ys[-1]):
            break
    return ys


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
@pytest.mark.parametrize("stop", sorted(STOPS))
def test_query_many_equals_the_scalar_loop(kind, shielded, u_bits, eps, stop):
    # eps 2^-6 gives ell = 24 on the resilient cuckoo filter, 2^-17 gives 68
    params = _params(u_bits, eps)
    for seed in (1, 2):
        cfg, S, loop_rep, batch_rep, array_rep = _pair(kind, shielded, params,
                                                       100 * u_bits + seed, copies=3)
        for name, xs in _streams(cfg, S, seed).items():
            at = STOPS[stop] and STOPS[stop](S, xs)
            ys = batch_rep.query_many(xs, at)
            assert ys == _loop(loop_rep.query, xs, at), name
            assert array_rep.query_many(np.array(xs, dtype=np.uint64), at) == ys, name
            assert _state(batch_rep) == _state(loop_rep) == _state(array_rep), name
            if stop == "first True" and True in ys:
                assert len(ys) == ys.index(True) + 1
        inner = loop_rep.unshielded
        if isinstance(inner, CuckooFilterRep):  # the streams moved what they compare
            assert max(inner.participation) > 0
            assert any(inner.cursors) == inner.cursors_enabled


@pytest.mark.parametrize("kind", ["cuckoo_random_query", "cuckoo_resilient"])
def test_a_batch_in_several_passes_equals_the_scalar_loop(kind):
    # every stream in one pass, rejected at point 300, then the rest of it
    # in a second pass, which starts from the cursors the first one left
    params = _params(13, 2 ** -6)
    cfg, S, loop_rep, batch_rep = _pair(kind, False, params, 11)
    xs = [x for stream in _streams(cfg, S, 12).values() for x in stream]
    xs.insert(300, params.universe)
    answers, error = _answers_until_error(loop_rep.query, xs)
    assert len(answers) == 300
    with pytest.raises(ValueError) as exc:
        batch_rep.query_many(xs)
    assert str(exc.value) == error
    assert _state(batch_rep) == _state(loop_rep)
    rest = xs[301:]
    assert batch_rep.query_many(rest) == [loop_rep.query(x) for x in rest]
    assert _state(batch_rep) == _state(loop_rep)


@pytest.mark.parametrize("kind", ["cuckoo_random_query", "cuckoo_resilient"])
@pytest.mark.parametrize("at", [0, 6, 7, 13, 14, 20])
def test_a_stop_across_passes_equals_the_scalar_loop(kind, at):
    # a stop on the first or a later point ends the batch there, and the
    # points after it are never queried, so a point outside the universe
    # among them raises nothing
    params = _params(13, 2 ** -6)
    cfg, S, loop_rep, batch_rep = _pair(kind, False, params, 14)
    xs = _streams(cfg, S, 15)["repeats"][:40]
    xs[at + 2] = params.universe

    def stop(i, y):
        return i == at

    assert batch_rep.query_many(xs, stop) == _loop(loop_rep.query, xs, stop)
    assert loop_rep.query_count == at + 1
    assert _state(batch_rep) == _state(loop_rep)
    with pytest.raises(ValueError):  # without the stop it is reached
        batch_rep.query_many(xs)


@pytest.mark.parametrize("kind,shielded", CASES)
@pytest.mark.parametrize("bad", [-1, "universe", 2 ** 64])
def test_a_rejected_point_raises_after_the_same_prefix(kind, shielded, bad):
    # as a list, and as a uint64 array where the point fits one
    params = _params(13, 2 ** -6)
    cfg, S, loop_rep, batch_rep, array_rep = _pair(kind, shielded, params, 7, copies=3)
    rng = random.Random(8)
    bad = params.universe if bad == "universe" else bad
    xs = [rng.randrange(params.universe) for _ in range(200)] + sorted(S)
    xs.insert(150, bad)
    answers, error = _answers_until_error(loop_rep.query, xs)
    assert len(answers) == 150
    batches = [(batch_rep, xs)]
    if bad == params.universe:
        batches.append((array_rep, np.array(xs, dtype=np.uint64)))
    for rep, batch in batches:
        with pytest.raises(ValueError) as exc:
            rep.query_many(batch)
        assert str(exc.value) == error
        assert _state(rep) == _state(loop_rep)


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


@pytest.mark.parametrize("kind,shielded", CASES)
def test_oracle_batch_stopped_records_the_answered_prefix(kind, shielded):
    params = _params(13, 2 ** -6)
    cfg, S, loop_rep, batch_rep = _pair(kind, shielded, params, 16)
    rng = random.Random(17)
    members = sorted(S)
    xs = [rng.randrange(params.universe) for _ in range(40)] + members[:1] + [-1]
    xs += [rng.randrange(params.universe) for _ in range(200)]  # past the budget

    def stop(i, y):
        return y

    loop, batch = QueryOracle(loop_rep, 130), QueryOracle(batch_rep, 130)
    ys = batch.query_many(xs, stop)  # a stop before the budget is no overrun
    assert ys == _loop(loop.query, xs, stop)
    assert len(ys) <= 41 and ys[-1] and not any(ys[:-1])
    answered = xs[:len(ys)]
    assert batch.queries == loop.queries == list(zip(answered, ys))
    assert batch.queried == loop.queried == set(answered)
    assert _state(batch_rep) == _state(loop_rep)

    # a stop on the last point inside the budget ends the batch before the
    # point that would cross it; without the stop the same batch raises
    left = 130 - len(batch.queries)
    xs = [rng.randrange(params.universe) for _ in range(left - 1)] + members[1:5]

    def last(i, y):
        return i == left - 1

    assert batch.query_many(xs, last) == _loop(loop.query, xs, last)
    assert batch.queries == loop.queries and len(batch.queries) == 130
    assert _state(batch_rep) == _state(loop_rep)
    with pytest.raises(QueryBudgetExceeded):
        batch.query_many(xs, last)


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


@pytest.mark.parametrize("kind", ["cuckoo_random_query", "cuckoo_resilient"])
@pytest.mark.parametrize("u_bits", [13, 32])
def test_replayed_members_equal_the_scalar_loop(kind, u_bits):
    # the load adversary's pattern: one member 4,096 times, then every member
    # over and over, so that each query is a full match and the pass answers
    # thousands of queries from a handful of distinct points
    params = _params(u_bits, 2 ** -6)
    cfg, S, loop_rep, batch_rep = _pair(kind, False, params, 17 + u_bits)
    members = sorted(S)
    for xs in ([members[0]] * 4096, members * 64):
        assert batch_rep.query_many(xs) == [loop_rep.query(x) for x in xs] == [True] * 4096
        assert _state(batch_rep) == _state(loop_rep)
    assert batch_rep.query_count == 8192
    assert batch_rep.participation == [8192] * batch_rep.ell  # a full match compares every bit


def test_a_batched_game_leaves_numpy_ma_unimported():
    # `np.unique` can import numpy.ma (with numpy 2.4 it does on an index
    # array), some 2 MB of resident memory; the batch path dedups by a sort
    code = (
        "import sys\n"
        "from filterlab import FilterParams, GameConfig\n"
        "from filterlab.experiments import play_game\n"
        "p = FilterParams(n=1024, eps=2 ** -6, t=64, u_bits=32)\n"
        "cfg = GameConfig('cuckoo_resilient', 'mutate_positives', p, shielded=True)\n"
        "assert len(play_game(cfg, 1).queries) == 64\n"
        "print('numpy.ma' in sys.modules)\n")
    src = str(Path(filterlab.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
