"""Attack strategies for the challenge game, plus agreement/positive-rate
estimators used to analyse them.

Strategies receive an `AdversaryContext`: a budgeted oracle, the set S, the
public parameters, and a seeded RNG.  Under debug exposure policies the
context may also carry the unshielded representation itself (white-box
attacks) or an enumerator over its representation space (consistency
search).  Every strategy is a deterministic function of its seed and the
oracle's responses.
"""

from __future__ import annotations

import math
import random

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


def _check_room(params: FilterParams) -> None:
    """2^u_bits > t + n: room for t queries, the n members and a fresh guess."""
    if params.universe <= params.t + params.n:
        raise SamplingError(f"universe 2^{params.u_bits} <= t + n")


class RandomProbeAttack:
    """Non-adaptive baseline: t uniform queries, then a fresh uniform guess."""

    def run(self, ctx: AdversaryContext) -> int:
        params, rng, oracle = ctx.params, ctx.rng, ctx.oracle
        u = params.universe
        _check_room(params)
        oracle.query_many(randbelow_many(rng, u, params.t))
        return fresh_element(rng, u, ctx.S, oracle.queried)


class MutatePositivesAttack:
    """Feedback strategy: steer queries toward neighbours of observed positives.

    Keeps every non-member that answered True; half of the remaining budget
    probes single-bit mutations of those, the rest stays uniform.  The final
    challenge is a fresh mutation of a random positive when one exists.

    Only a new positive changes the next draw, so the queries go out in
    speculative blocks, drawn ahead with the positives known so far and
    sent as one `query_many` that stops right after the first non-member
    answering True.  The RNG state is saved before each block; on a stop it
    is restored and the answered prefix drawn again, so every draw and
    every query is the one the query-by-query loop makes.  The first block
    is the whole budget, the one batch a game without positives needs.
    While there is no positive every draw is `randrange(u)`, so a block and
    the redraw of an answered prefix come from `randbelow_many`; once a
    positive exists the blocks draw point by point.
    After a stop the blocks restart at RESTART points and double, so the
    points drawn past the next stop, work thrown away, number at most
    RESTART plus the queries answered since this one.
    """

    RESTART = 64

    def run(self, ctx: AdversaryContext) -> int:
        params, rng, oracle = ctx.params, ctx.rng, ctx.oracle
        u, S = params.universe, ctx.S
        _check_room(params)
        positives: list[int] = []

        def draw() -> int:  # once a positive exists
            if rng.random() < 0.5:
                return rng.choice(positives) ^ (1 << rng.randrange(params.u_bits))
            return rng.randrange(u)

        def draws(count: int) -> list[int]:
            if positives:
                return [draw() for _ in range(count)]
            return randbelow_many(rng, u, count)

        def new_positive(i: int, y: bool) -> bool:  # on the block in flight
            return y and xs[i] not in S

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
                positives.append(xs[len(ys) - 1])
                block = self.RESTART
        if positives:
            for _ in range(256):
                x = rng.choice(positives) ^ (1 << rng.randrange(params.u_bits))
                if x not in ctx.S and x not in oracle.queried:
                    return x
        return fresh_element(rng, u, ctx.S, oracle.queried)


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
        params, rng = ctx.params, ctx.rng
        u = params.universe
        published = ctx.published
        if published is not None:
            for _ in range(self.candidate_budget):
                x = rng.randrange(u)
                if x in ctx.S:
                    continue
                if published.query(x):
                    return x
        return fresh_element(rng, u, ctx.S, ctx.oracle.queried)


class ConsistencySearchAttack:
    """Label every sampled point via the oracle, invert by exhaustion, then
    predict a false positive from the recovered model.

    The inverter is the enumerator's `first_consistent(xs, ys)`, fed the
    sampled points and the oracle's answers as they come: the least
    representation id consistent with every label is taken as the model M'
    (an exhaustive search, feasible only for toy filters with ~2^20
    candidate states; the Bloom space enumerates only the arrays holding
    every positive label's positions).  M' is itself a filter, the
    enumerator's `model(id)`: the attack re-checks every label with one
    `query_many` of it, then samples for a fresh element M' answers
    positive on.  Since the model approximates the oracle on all of U, such
    an element is a true false positive with high probability.

    The query budget is c*m/eps0; the default c = 200 is sized for the
    regime where the universe dwarfs the budget, so at desk scale the
    sample phase is additionally capped at 2u draws, keeping a constant
    fraction of the universe unqueried and eligible as a challenge.
    When no candidate is consistent the attack either raises (strict mode:
    a matched enumerator guarantees existence, so absence is a bug) or
    falls back to an arbitrary fresh guess (black-box mode, e.g. attacking
    through a shield whose inner space the enumerator models).  When the
    sample and the set cover a tiny universe, no fresh guess exists and the
    attack concedes: it names a point it queried, which scores as a loss.
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
            return self._guess(ctx, xs)

        model = enum.model(chosen)
        if model.query_many(xs) != ys:
            raise InconsistentOracleError(
                f"enumerator chose representation {chosen}, which contradicts "
                "the oracle labels")
        attempts = min(math.ceil(100.0 / eps0), CANDIDATE_CAP)
        for _ in range(attempts):
            x = rng.randrange(u)
            if x in ctx.S or x in oracle.queried:
                continue
            if model.query(x):
                return x
        return self._guess(ctx, xs)

    @staticmethod
    def _guess(ctx: AdversaryContext, xs: list[int]) -> int:
        """A fresh uniform guess, or, when S and the queried points cover the
        universe, the first queried point: a guess that cannot win."""
        try:
            return fresh_element(ctx.rng, ctx.params.universe, ctx.S, ctx.oracle.queried)
        except SamplingError:
            return xs[0]  # S alone never covers the universe, so xs is not empty


def _estimate_points(u: int, sample_count: int, rng: random.Random | None) -> list[int]:
    """The whole universe when it fits in EXHAUSTIVE_LIMIT, else sample_count
    uniform draws (from random.Random(0) when no rng is given)."""
    if u <= EXHAUSTIVE_LIMIT:
        return list(range(u))
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
