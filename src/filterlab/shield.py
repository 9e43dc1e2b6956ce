"""Permutation shield: make any filter resilient by randomizing its inputs.

Every element is passed through a secret keyed bijection before it reaches
the wrapped filter, both at build time (the filter is built on the permuted
set) and at query time.  Adaptive queries therefore reach the inner filter
as points the adversary cannot steer, and the memory overhead is exactly
the key: lambda_bits.

It checks S and every query point by the filters' own rule before permuting,
so a repeated member, a point outside the universe or a wrong size raises as
it would unshielded.

Only the key must stay secret: publishing the inner representation must not
help an attacker, and the debug exposure policies deliberately exercise
that claim.
"""

from __future__ import annotations

import random
from typing import Iterable

from .bitio import BitWriter
from .core import FilterParams, FilterFactory, Representation, Stop
from .permutation import PermKey, permute, permute_many, sample_key


class ShieldedRep(Representation):
    def __init__(self, params: FilterParams, key: PermKey, inner: Representation):
        self.params = params
        self.key = key
        self.inner = inner

    @property
    def bits(self) -> int:
        return self.inner.bits + self.params.lambda_bits

    def query(self, x: int) -> bool:
        self.params.check_element(x)
        return self.inner.query(permute(self.key, x))

    def _query_batch(self, xs: list[int], stop: Stop | None = None) -> list[bool]:
        """Permute the points in one batch, then answer them by the inner
        batch: a bijection of the universe leaves every point inside it, and
        keeps each point's index, which is all `stop` sees of it."""
        return self.inner._query_batch(permute_many(self.key, xs), stop)

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
    """Check S, sample a key, permute S, and build the wrapped filter on the image."""
    members = params.check_members(S)
    rng = random.Random(rng_seed)
    key = sample_key(params.lambda_bits, params.universe, rng)
    permuted = set(permute_many(key, members))
    assert len(permuted) == len(members), "bijection cannot collapse the set"
    inner_seed = rng.getrandbits(63)
    inner = inner_builder(permuted, params, inner_seed)
    return ShieldedRep(params, key, inner)
