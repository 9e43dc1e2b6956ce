"""Attack strategies for the challenge game, plus agreement/positive-rate
estimators used to analyse them.

Strategies receive an `AdversaryContext`: a budgeted oracle, the set S, the
public parameters, and a seeded RNG.  Under debug exposure policies the
context may also carry the unshielded representation itself (white-box
attacks) or an enumerator over its representation space (consistency
search).  Every strategy is a deterministic function of its seed and the
oracle's responses, and every one ends in `challenge`, the game's one last
move: its own candidates first, then a fresh uniform guess.  The two
white-box attacks draw their candidates with `hits`, the uniform points a
filter they hold answers True on.

A batch of points goes to the oracle as one uint64 array, as
`randbelow_many` draws it; the transcript, the positives a strategy keeps
and its challenge hold plain ints.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator

import numpy as np

from .core import AdversaryContext, FilterParams, Representation, minimal_error, stopped
from .hashing import randbelow_many

EXHAUSTIVE_LIMIT = 1 << 16  # universes up to this size are swept exactly
CANDIDATE_CAP = 1_000_000  # most draws a consistency search makes for a model positive


class SamplingError(RuntimeError):
    """The universe is too small to leave fresh elements for a challenge."""


class InconsistentOracleError(RuntimeError):
    """No candidate representation matched the recorded labels."""


def fresh_element(rng: random.Random, universe: int, *excluded: set[int] | frozenset[int]) -> int:
    """Uniform element avoiding the excluded sets (rejection sampling).

    Raises SamplingError, before any draw, when the union of the excluded
    sets covers the universe."""
    if (universe <= sum(len(e) for e in excluded)
            and universe <= len(set().union(*excluded))):
        raise SamplingError("universe exhausted: no fresh element can exist")
    for _ in range(100_000):
        x = rng.randrange(universe)
        if not any(x in e for e in excluded):
            return x
    # pathological density: deterministic sweep from a random offset
    start = rng.randrange(universe)
    for d in range(universe):
        x = (start + d) % universe
        if not any(x in e for e in excluded):
            return x
    raise SamplingError("universe exhausted during sweep")


def challenge(ctx: AdversaryContext, candidates: Iterable[int] = ()) -> int:
    """The x* a strategy names: the first of its candidates outside S and the
    queried points (read lazily, so a stream draws no further); else a fresh
    uniform guess; else, when S and the queried points cover the universe,
    the first queried point, a guess that cannot win."""
    S, queried = ctx.S, ctx.oracle.queried
    for x in candidates:
        if x not in S and x not in queried:
            return x
    try:
        return fresh_element(ctx.rng, ctx.params.universe, S, queried)
    except SamplingError:
        return ctx.oracle.queries[0][0]  # S alone never covers the universe


def hits(ctx: AdversaryContext, rep: Representation, attempts: int) -> Iterator[int]:
    """In order, those of `attempts` uniform draws that lie outside S and the
    queried points and that rep answers True on."""
    S, queried, u = ctx.S, ctx.oracle.queried, ctx.params.universe
    for _ in range(attempts):
        x = ctx.rng.randrange(u)
        if x not in S and x not in queried and rep.query(x):
            yield x


def _check_room(params: FilterParams) -> None:
    """2^u_bits > t + n: room for t queries, the n members and a fresh guess."""
    if params.universe <= params.t + params.n:
        raise SamplingError(f"universe 2^{params.u_bits} <= t + n")


class RandomProbeAttack:
    """Non-adaptive baseline: t uniform queries, then a fresh uniform guess."""

    def run(self, ctx: AdversaryContext) -> int:
        params = ctx.params
        _check_room(params)
        ctx.oracle.query_many(randbelow_many(ctx.rng, params.universe, params.t))
        return challenge(ctx)


class MutatePositivesAttack:
    """Feedback strategy: steer queries toward neighbours of observed positives.

    Keeps every non-member that answered True; half of the remaining budget
    probes single-bit mutations of those, the rest stays uniform.  The
    challenge is the first fresh one of up to 256 such mutations when a
    positive exists.

    Only a new positive changes the next draw, so the queries go out in
    speculative blocks, drawn ahead with the positives known so far and
    sent as one `query_many` that stops right after the first non-member
    answering True.  The RNG state is saved before each block; on a stop it
    is restored and the answered prefix drawn again, so every draw and
    every query is the one the query-by-query loop makes.
    While there is no positive every draw is `randrange(u)`, so a block and
    the redraw of an answered prefix come from `randbelow_many`; once a
    positive exists the blocks draw point by point.  Either way a block is
    one uint64 array, and a positive is kept as an int.
    After a stop the next block is the mean gap so far, ceil(queries
    answered / positives found); before any positive that is the whole
    budget, the one batch a game without positives needs.  A block that
    finds no positive doubles the next one.  So the points drawn past the
    next stop, work thrown away, number at most the mean gap plus the
    queries answered since this one.
    """

    def run(self, ctx: AdversaryContext) -> int:
        params, rng, oracle = ctx.params, ctx.rng, ctx.oracle
        u, S = params.universe, ctx.S
        _check_room(params)
        positives: list[int] = []

        def mutant() -> int:  # a random positive with one bit flipped
            return rng.choice(positives) ^ (1 << rng.randrange(params.u_bits))

        def draw() -> int:  # once a positive exists
            return mutant() if rng.random() < 0.5 else rng.randrange(u)

        def draws(count: int) -> np.ndarray:
            if positives:
                return np.array([draw() for _ in range(count)], dtype=np.uint64)
            return randbelow_many(rng, u, count)

        def new_positive(i: int, y: bool) -> bool:  # on the block in flight
            return y and int(xs[i]) not in S

        left = block = params.t
        while left:
            state = rng.getstate()
            xs = draws(min(block, left))
            ys = oracle.query_many(xs, new_positive)
            left -= len(ys)
            block *= 2
            if stopped(ys, new_positive):  # the draws after it change
                if len(ys) < len(xs):
                    rng.setstate(state)
                    draws(len(ys))
                positives.append(int(xs[len(ys) - 1]))
                block = math.ceil((params.t - left) / len(positives))  # the mean gap
        return challenge(ctx, (mutant() for _ in range(256)) if positives else ())


class SeedExposedAttack:
    """White-box search against a published representation.

    Demonstrates that resilience is exactly the secrecy of the build
    randomness: with the representation (and its seeds) public, a false
    positive is found offline without touching the oracle.  Against a
    shielded filter only the inner representation is ever published, so the
    found candidate is derailed by the secret permutation.
    """

    def __init__(self, candidate_budget: int = 1_000_000):
        self.candidate_budget = candidate_budget

    def run(self, ctx: AdversaryContext) -> int:
        if ctx.published is None:
            return challenge(ctx)
        return challenge(ctx, hits(ctx, ctx.published, self.candidate_budget))


class ConsistencySearchAttack:
    """Label every sampled point via the oracle, invert the labels, then
    predict a false positive from the recovered model.

    The inverter is the enumerator's `first_consistent(xs, ys)`, fed the
    sampled points and the oracle's answers as they come: the least
    representation id consistent with every label is taken as the model M'
    (only toy filters have an enumerator; the Bloom space answers in
    closed form, the OR of the positive labels' position masks).  M' is
    itself a filter, the enumerator's `model(id)`: the attack re-checks
    every label with one `query_many` of it, then samples for a fresh
    element M' answers positive on.  Since the model approximates the
    oracle on all of U, such an element is a true false positive with high
    probability.

    The query budget is c*m/eps0; the default c = 200 is sized for the
    regime where the universe dwarfs the budget, so at desk scale the
    sample phase is additionally capped at 2u draws, keeping a constant
    fraction of the universe unqueried and eligible as a challenge.
    When no candidate is consistent the attack either raises (strict mode:
    a matched enumerator guarantees existence, so absence is a bug) or
    falls back to `challenge`'s fresh guess (black-box mode, e.g. attacking
    through a shield whose inner space the enumerator models).
    """

    def __init__(self, c: int = 200, strict: bool = True):
        self.c = c
        self.strict = strict
        self.last_consistent_rep: int | None = None  # inspectable by analyses

    def run(self, ctx: AdversaryContext) -> int:
        params, rng, oracle = ctx.params, ctx.rng, ctx.oracle
        enum = ctx.enumerator
        if enum is None:
            raise InconsistentOracleError(
                "consistency search needs a representation-space enumerator "
                "(published structure on an enumerable toy filter)")
        u = params.universe
        m = enum.memory_bits
        eps0 = minimal_error(m, params.n)

        budget = math.ceil(self.c * m / eps0)
        samples_wanted = min(oracle.budget, budget, 2 * u)
        xs = randbelow_many(rng, u, samples_wanted)
        ys = oracle.query_many(xs)

        chosen = enum.first_consistent(xs, ys)
        self.last_consistent_rep = chosen

        if chosen is None:
            if self.strict:
                raise InconsistentOracleError(
                    "no representation consistent with the oracle labels")
            return challenge(ctx)

        model = enum.model(chosen)
        if model.query_many(xs) != ys:
            raise InconsistentOracleError(
                f"enumerator chose representation {chosen}, which contradicts "
                "the oracle labels")
        return challenge(ctx, hits(ctx, model, min(math.ceil(100.0 / eps0), CANDIDATE_CAP)))


def _estimate_points(u: int, sample_count: int, rng: random.Random | None) -> np.ndarray:
    """The whole universe when it fits in EXHAUSTIVE_LIMIT, else sample_count
    uniform draws (from random.Random(0) when no rng is given): one uint64
    array either way."""
    if u <= EXHAUSTIVE_LIMIT:
        return np.arange(u, dtype=np.uint64)
    if rng is None:
        rng = random.Random(0)
    return randbelow_many(rng, u, sample_count)


def err_estimate(rep_a: Representation, rep_b: Representation,
                 sample_count: int = 10_000,
                 rng: random.Random | None = None) -> float:
    """Fraction of the universe on which two representations disagree.

    Exhaustive when the universe fits in 2^16, Monte Carlo otherwise.
    Meant for steady representations (the estimate itself queries both).
    """
    xs = _estimate_points(rep_a.params.universe, sample_count, rng)
    diff = sum(a != b for a, b in zip(rep_a.query_many(xs), rep_b.query_many(xs)))
    return diff / len(xs)


def mu_estimate(rep: Representation,
                sample_count: int = 10_000,
                rng: random.Random | None = None) -> float:
    """Fraction of the universe the representation answers True on."""
    xs = _estimate_points(rep.params.universe, sample_count, rng)
    return sum(rep.query_many(xs)) / len(xs)
