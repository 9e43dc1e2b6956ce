"""Permutation shield: make any filter resilient by randomizing its inputs.

Every element is passed through a secret keyed bijection before it reaches
the wrapped filter, both at build time (the filter is built on the permuted
set) and at query time.  Adaptive queries therefore reach the inner filter
as points the adversary cannot steer, and the memory overhead is exactly
the key: lambda_bits.

Only the key must stay secret: publishing the inner representation must not
help an attacker, and the debug exposure policies deliberately exercise
that claim.
"""

from __future__ import annotations

import random
from typing import Iterable

from .bitio import BitWriter
from .core import FilterParams, FilterFactory, Representation, first_outside
from .permutation import PermKey, permute, permute_many, sample_key


class ShieldedRep(Representation):
    def __init__(self, params: FilterParams, key: PermKey, inner: Representation):
        self.params = params
        self.key = key
        self.inner = inner
        # the permutation is a pure function of the key: memoizing it is a
        # query-time cache, not representation state
        self._memo: dict[int, int] = {}

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.inner.kind

    @property
    def bits(self) -> int:
        return self.inner.bits + self.params.lambda_bits

    def _permute(self, x: int) -> int:
        y = self._memo.get(x)
        if y is None:
            y = self._memo[x] = permute(self.key, x)
        return y

    def query(self, x: int) -> bool:
        return self.inner.query(self._permute(x))

    def query_many(self, xs: list[int]) -> list[bool]:
        """Permute the points in one batch, then query the inner batch."""
        xs = list(xs)
        ok = first_outside(xs, self.key.domain_size)
        ys = self.inner.query_many(permute_many(self.key, xs[:ok]))
        if ok < len(xs):
            self.query(xs[ok])  # raises, after the same prefix as the scalar loop
        return ys

    def write(self, w: BitWriter) -> None:
        # the key, then the inner payload with no padding between
        w.write(self.key.key_bits, self.params.lambda_bits)
        self.inner.write(w)

    @property
    def unshielded(self) -> Representation:
        # exposure applies to the inner filter; the key is never published
        return self.inner


def build_shield(
    inner_builder: FilterFactory,
    S: Iterable[int],
    params: FilterParams,
    rng_seed: int,
) -> ShieldedRep:
    """Sample a key, permute S, and build the wrapped filter on the image."""
    rng = random.Random(rng_seed)
    key = sample_key(params.lambda_bits, params.universe, rng)
    members = frozenset(S)
    permuted = set(permute_many(key, list(members)))
    assert len(permuted) == len(members), "bijection cannot collapse the set"
    inner_seed = rng.getrandbits(63)
    inner = inner_builder(permuted, params, inner_seed)
    return ShieldedRep(params, key, inner)
