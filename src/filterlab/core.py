"""Domain types, the filter contract, and the adversarial challenge game.

A filter is built once on a set S drawn from the integer universe
[0, 2^u_bits) and then answers membership queries with one-sided error:
members always answer True, non-members answer True with small probability.
The challenge game hands an adversary oracle access (never the internal
representation), a query budget t, and the set S itself; the adversary wins
if it names a fresh false positive.

All randomness is derived from integer seeds through `split_seed`, so every
game, trial, and campaign is bit-reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .bitio import BitWriter
from .hashing import randbelow_many, split_seed

SEED_BITS = 64  # size at which per-representation hash seeds are accounted

# what a game reveals besides the oracle: nothing, the enumerator, or the filter too
EXPOSURES = ("none", "structure", "full")


class ProtocolViolation(Exception):
    """An adversary stepped outside the game contract."""


class QueryBudgetExceeded(ProtocolViolation):
    """The adversary issued more oracle queries than its budget t."""


class BuildError(Exception):
    """A filter could not be constructed for the given set and parameters."""


class ParamError(ValueError):
    """A configuration value is invalid; `key` names the field at fault."""

    def __init__(self, key: str, msg: str):
        super().__init__(msg)
        self.key = key


def _ceil_log2_inv(eps: float) -> int:
    # guard against float fuzz for eps that are exact powers of two
    return max(1, math.ceil(math.log2(1.0 / eps) - 1e-12))


@dataclass(frozen=True)
class FilterParams:
    """Instance parameters shared by every filter and game.

    n: set size; eps: target error rate; t: adaptive query budget;
    lambda_bits: secret-key size used by the shield; u_bits: universe width.
    """

    n: int
    eps: float
    t: int
    u_bits: int
    lambda_bits: int = 128

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ParamError("eps", f"eps must be a probability in (0,1), got {self.eps}")
        if not math.isfinite(1.0 / self.eps):
            raise ParamError("eps", f"eps {self.eps} is too small: 1/eps overflows a float")
        if self.n < 1:
            raise ParamError("n", "n must be >= 1")
        if self.t < 0:
            raise ParamError("t", "t must be >= 0")
        if self.u_bits < math.ceil(math.log2(self.n)) + 1:
            raise ParamError("u_bits", "u_bits too small: universe must hold at least 2n points")
        if self.u_bits > 64:
            raise ParamError("u_bits", "u_bits must be <= 64, the widest supported field")
        if self.lambda_bits < 1:
            raise ParamError("lambda_bits", "lambda_bits must be >= 1")

    @property
    def universe(self) -> int:
        return 1 << self.u_bits

    @property
    def log_inv_eps(self) -> int:
        """ceil(log2(1/eps)), the bit budget behind all derived sizes."""
        return _ceil_log2_inv(self.eps)

    @property
    def ell(self) -> int:
        """Fingerprint width: 4*ceil(log2(1/eps))."""
        return 4 * self.log_inv_eps

    @property
    def k_independence(self) -> int:
        """Per-function independence: ceil(2t / ceil(log2(1/eps))), >= 2.

        The floor of 2 keeps the fingerprints of distinct points pairwise
        independent, which the non-adaptive error needs: a 1-wise g_j is a
        constant, and every fingerprint the same word."""
        return max(2, math.ceil(2 * self.t / self.log_inv_eps))

    def check_element(self, x: int) -> None:
        if not (0 <= x < self.universe):
            raise ValueError(f"element {x} outside universe [0, 2^{self.u_bits})")

    def check_members(self, S: Iterable[int]) -> list[int]:
        """list(S), the one member rule of every builder and of `run_challenge`:
        raises BuildError on a repeated element, then `check_element`'s
        ValueError on a point outside, then BuildError unless |S| = n.  A set
        or frozenset cannot repeat, so only other inputs are scanned."""
        xs = list(S)
        if not isinstance(S, (set, frozenset)) and len(set(xs)) != len(xs):
            raise BuildError("duplicate elements in S")
        bad = first_outside(xs, self.universe)
        if bad < len(xs):
            self.check_element(xs[bad])  # raises
        if len(xs) != self.n:
            raise BuildError(f"|S|={len(xs)} but params.n={self.n}")
        return xs


def minimal_error(m: int, n: int) -> float:
    """Best error rate any m-bit filter on n elements can reach: 2^(-m/n).

    Companion of the classic memory lower bound m >= n*log2(1/eps).  Exact
    when n divides m (m/n is then an integral float), float otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    return 2.0 ** (-(m / n))


def first_outside(xs: list[int], size: int) -> int:
    """Index of the first x outside [0, size), or len(xs) when there is none."""
    if not xs or (min(xs) >= 0 and max(xs) < size):
        return len(xs)
    return next(i for i, x in enumerate(xs) if not 0 <= x < size)


def as_points(xs: Sequence[int] | np.ndarray, size: int) -> tuple[np.ndarray, int | None]:
    """(points, bad): the points of a batch before its first point outside
    [0, size) as one uint64 array, and that point (None when there is none);
    size <= 2^64.

    A uint64 array is checked in one comparison and cut to a view.  Any
    other iterable is checked point by point (`first_outside`), so that -1
    or 2^64, which no uint64 holds, is found and reported as it is.
    """
    if isinstance(xs, np.ndarray) and xs.dtype == np.uint64:
        if size < 1 << 64 and len(xs):
            out = xs >= np.uint64(size)
            if out.any():
                ok = int(out.argmax())
                return xs[:ok], int(xs[ok])
        return xs, None
    xs = list(xs)
    ok = first_outside(xs, size)
    return np.array(xs[:ok], dtype=np.uint64), xs[ok] if ok < len(xs) else None


# A batch's stop predicate: stop(i, y) holds at the answer y to point i that
# ends the batch.  It must be pure, since `stopped` asks it again.
Stop = Callable[[int, bool], bool]


def stopped(ys: list[bool], stop: Stop | None) -> bool:
    """Whether a batch that answered ys ended at a stop: every answer before
    the last one failed the predicate, so the last one alone can hold it."""
    return stop is not None and bool(ys) and stop(len(ys) - 1, ys[-1])


def sample_set(params: FilterParams, rng: random.Random) -> frozenset[int]:
    """Sample S of size n without replacement from the universe.

    Makes the draws of `random.sample`'s set branch, the one it takes for
    every universe above 12n + 21, and works where `range(u)` overflows.
    The draws come in rounds of `randbelow_many`, one per point still
    missing, added in order: a round can fill S only on its last draw, so
    S and the RNG end as the draw-by-draw loop leaves them.
    """
    S: set[int] = set()
    while len(S) < params.n:
        S.update(randbelow_many(rng, params.universe, params.n - len(S)).tolist())
    return frozenset(S)


class Representation:
    """Base class for built filters.

    Concrete filters expose exact bit accounting (`bits`), a query method,
    and `write`, which appends their bit-exact payload to a shared writer.
    """

    params: FilterParams

    @property
    def bits(self) -> int:
        raise NotImplementedError

    def query(self, x: int) -> bool:
        raise NotImplementedError

    def query_many(self, xs: Sequence[int] | np.ndarray,
                   stop: Stop | None = None) -> list[bool]:
        """`[self.query(x) for x in xs]`, and exactly that: the same answers,
        and every counter and cursor left as that loop leaves it.  A point
        outside the universe raises `check_element`'s ValueError, as `query`
        does, after `_query_batch` has answered the points before it.

        A batch is a uint64 array (`as_points`): one is taken as it is, and
        any other sequence of ints is checked and converted once, here.

        With `stop`, the batch ends right after the first answer y, at index
        i, for which `stop(i, y)` holds, as the loop would with
        `if stop(i, y): break`; only that prefix is answered, and a point
        outside the universe after it raises nothing.
        """
        points, bad = as_points(xs, self.params.universe)
        ys = self._query_batch(points, stop)
        if bad is not None and not stopped(ys, stop):
            self.params.check_element(bad)  # raises after the same prefix
        return ys

    def _query_batch(self, xs: np.ndarray, stop: Stop | None = None) -> list[bool]:
        """`query_many` of a uint64 array of points all inside the universe;
        filters batch it."""
        ys = []
        for i, x in enumerate(xs.tolist()):
            ys.append(self.query(x))
            if stop is not None and stop(i, ys[-1]):
                break
        return ys

    def write(self, w: BitWriter) -> None:
        """Append the payload, exactly `bits` bits, to w."""
        raise NotImplementedError

    def serialize(self) -> tuple[bytes, int]:
        """Payload bytes plus exact payload bit length (== self.bits)."""
        w = BitWriter()
        self.write(w)
        return w.getvalue(), w.bit_length

    @property
    def unshielded(self) -> Representation:
        """The filter a debug exposure policy may reveal: this one, unless
        a shield's secret key stands in front of it."""
        return self

    def rep_space_enumerator(self):
        """Enumerator over candidate representations, when desk-scale small.

        The game hands it over under expose="structure" or "full"; None when
        the representation space is not enumerable.
        """
        return None


FilterFactory = Callable[[Iterable[int], FilterParams, int], Representation]


@dataclass
class GameTranscript:
    """Ordered record of one challenge game."""

    queries: list[tuple[int, bool]]
    challenge: int | None
    challenge_response: bool | None
    success: bool
    valid: bool
    seed_record: dict[str, int] = field(default_factory=dict)

    def recompute_success(self, S: frozenset[int]) -> bool:
        """Re-derive the success flag from the transcript contents alone."""
        if not self.valid or self.challenge is None:
            return False
        if self.challenge in S:
            return False
        if any(q == self.challenge for q, _ in self.queries):
            return False
        return bool(self.challenge_response)


class QueryOracle:
    """Budgeted oracle handle the adversary queries through."""

    def __init__(self, rep: Representation, budget: int):
        self._rep = rep
        self.budget = budget
        self.queries: list[tuple[int, bool]] = []
        self.queried: set[int] = set()

    def query(self, x: int) -> bool:
        if len(self.queries) >= self.budget:
            raise QueryBudgetExceeded(f"query budget t={self.budget} exhausted")
        y = self._rep.query(x)
        self.queries.append((x, y))
        self.queried.add(x)
        return y

    def query_many(self, xs: Sequence[int] | np.ndarray,
                   stop: Stop | None = None) -> list[bool]:
        """Answers to xs, for a strategy that chose them before any answer, or
        that would change course only where `stop(i, y)` holds.  A batch is
        best a uint64 array (see `Representation.query_many`); the transcript
        records the answered points as ints either way.

        Records and raises as a loop of `query` does: a batch that crosses
        the budget is answered and recorded up to the budget, then raises
        QueryBudgetExceeded.  With `stop`, the batch ends right after the
        first answer that holds it (see `Representation.query_many`): only
        that prefix is answered and recorded, and a stop before the budget
        is no overrun.  The filter may still have built X-vectors for points
        of the batch after the stop (a cuckoo batch fingerprints all of its
        points first); that fills a cache and changes no answer or counter.
        A point outside the universe raises after the filter has answered
        the points before it; the oracle then records none of the batch, as
        the game ends there either way.
        """
        if not isinstance(xs, np.ndarray):
            xs = list(xs)
        fit = xs[:self.budget - len(self.queries)]
        ys = self._rep.query_many(fit, stop)
        answered = fit[:len(ys)]
        if isinstance(answered, np.ndarray):
            answered = answered.tolist()
        self.queries += zip(answered, ys)
        self.queried.update(answered)
        if len(fit) < len(xs) and not stopped(ys, stop):
            raise QueryBudgetExceeded(f"query budget t={self.budget} exhausted")
        return ys


@dataclass
class AdversaryContext:
    """Everything a strategy may see: oracle, the set, public parameters.

    Never the build seeds or key material.  `published` (the unshielded
    representation, under expose="full") and `enumerator` (its space, under
    "structure" or "full") are only populated under a debug exposure policy.
    """

    oracle: QueryOracle
    S: frozenset[int]
    params: FilterParams
    rng: random.Random
    published: object | None = None
    enumerator: object | None = None


class Strategy(Protocol):
    def run(self, ctx: AdversaryContext) -> int: ...


def run_challenge(
    filter_factory: FilterFactory,
    strategy: Strategy,
    S: frozenset[int] | None,
    params: FilterParams,
    rng_seed: int,
    expose: str = "none",
) -> GameTranscript:
    """Play one challenge game and report the transcript.

    The filter is built on S (sampled fresh from a derived seed when None;
    the factory's `check_members` refuses |S| != n, and an S that is no set
    meets the same rule before it is frozen, so a repeat raises as it would
    at the factory), the adversary runs with
    oracle access and up to t queries, and its output x* wins only if it is
    a fresh non-member answering True.  The verification query goes through
    the same (possibly mutating) query path and is issued exactly once.
    `expose` is one of `EXPOSURES`; any other value raises ValueError before
    anything is built.
    """
    if expose not in EXPOSURES:
        raise ValueError(f"unknown exposure policy {expose!r} (known: {', '.join(EXPOSURES)})")
    set_seed = split_seed(rng_seed, 0)
    build_seed = split_seed(rng_seed, 1)
    adv_seed = split_seed(rng_seed, 2)
    if S is None:
        S = sample_set(params, random.Random(set_seed))
    elif not isinstance(S, (set, frozenset)):
        S = params.check_members(S)  # before the frozenset collapses a repeat
    S = frozenset(S)

    rep = filter_factory(S, params, build_seed)
    oracle = QueryOracle(rep, params.t)
    ctx = AdversaryContext(
        oracle=oracle,
        S=S,
        params=params,
        rng=random.Random(adv_seed),
        published=rep.unshielded if expose == "full" else None,
        enumerator=rep.unshielded.rep_space_enumerator() if expose != "none" else None,
    )
    seeds = {"master": rng_seed, "set": set_seed, "build": build_seed, "adversary": adv_seed}

    try:
        challenge = strategy.run(ctx)
    except QueryBudgetExceeded:
        return GameTranscript(
            queries=oracle.queries, challenge=None, challenge_response=None,
            success=False, valid=False, seed_record=seeds,
        )

    response = rep.query(challenge)  # post-transcript verification, once
    success = (
        challenge not in S
        and challenge not in oracle.queried
        and response
    )
    return GameTranscript(
        queries=oracle.queries, challenge=challenge, challenge_response=response,
        success=success, valid=True, seed_record=seeds,
    )


def normal_ci_half_width(rate: float, trials: int, z: float = 1.96) -> float:
    """95% normal-approximation confidence half-width for a rate."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return z * math.sqrt(rate * (1.0 - rate) / trials)


class ExactSetRep(Representation):
    """Trivial baseline that stores S verbatim: zero false positives."""

    def __init__(self, S: frozenset[int], params: FilterParams):
        self.params = params
        self._members = frozenset(S)

    @property
    def bits(self) -> int:
        return self.params.n * self.params.u_bits

    def query(self, x: int) -> bool:
        self.params.check_element(x)
        return x in self._members

    def write(self, w: BitWriter) -> None:
        for x in sorted(self._members):
            w.write(x, self.params.u_bits)

    def rep_space_enumerator(self):
        # No secret randomness: the set itself is the only candidate.
        return ExactSetRepSpace(self)


class ExactSetRepSpace:
    """Degenerate representation space for the exact-set filter."""

    def __init__(self, rep: ExactSetRep):
        self._rep = rep

    @property
    def memory_bits(self) -> int:
        return self._rep.bits

    def first_consistent(self, xs: np.ndarray, ys: list[bool]) -> int | None:
        """0, the one representation, if it answers ys[i] on every xs[i];
        else None."""
        return 0 if self._rep.query_many(xs) == list(ys) else None

    def model(self, rep_id: int) -> ExactSetRep:
        """The exact set itself, the one representation."""
        return self._rep


def build_exact_set(S: Iterable[int], params: FilterParams, rng_seed: int) -> ExactSetRep:
    return ExactSetRep(frozenset(params.check_members(S)), params)
