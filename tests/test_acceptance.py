"""Acceptance gate: every criterion at its stated scale and tolerance.

One test per criterion; each prints its pass/fail line with the measured
value, threshold, and replay seed.  The memory decomposition behind
criterion 6 (C ~ 4.60 against the required 8) is laid out in the acceptance
module docstring and the README.
"""

import os
from collections import OrderedDict

import numpy as np
import pytest

from filterlab import acceptance, gf2, gfamily


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    # only the criteria that count wins (3, 4, 5, 10) take the workers, and
    # `count_wins` makes each count the same for any worker count
    res = acceptance.run_criterion(number, acceptance.DEFAULT_SEED,
                                   parallel=min(2, os.cpu_count() or 1))
    print(res.line())
    assert res.passed, res.line()


def test_worker_count_does_not_change_a_criterion():
    one = acceptance.run_criterion(3, acceptance.DEFAULT_SEED, parallel=1)
    two = acceptance.run_criterion(3, acceptance.DEFAULT_SEED, parallel=2)
    assert (two.measured, two.threshold, two.seed) == (one.measured, one.threshold, one.seed)


def test_selftest_detects_corrupted_build(monkeypatch):
    # fault injection: force full-width comparisons (no early exit) and the
    # telemetry criterion must trip; criterion 7 queries in one batch, so the
    # batch runs as the scalar loop that reaches the corrupted probe
    from filterlab.core import Representation
    from filterlab.cuckoo import CuckooFilterRep

    def corrupted(self, i, X, bits):
        fp = self.slots[i]
        if fp is None:
            return False, 0
        packed = self.gfam.packed
        n = 0
        matched = True
        for j in range(self.ell):  # compares every bit, ignores cursors
            b = bits[j]
            if b < 0:
                b = (packed[j] & X).bit_count() & 1
                bits[j] = b
            n += 1
            if b != ((fp >> j) & 1):
                matched = False
        return matched, n

    monkeypatch.setattr(CuckooFilterRep, "_probe", corrupted)
    monkeypatch.setattr(CuckooFilterRep, "_query_batch", Representation._query_batch)
    monkeypatch.setattr(acceptance, "C7_SAMPLES", 3000)
    res = acceptance.criterion_7(seed=123)
    assert not res.passed


def test_selftest_detects_a_degenerate_family_on_the_batch_path(monkeypatch):
    # fault injection through the path criterion 7 really runs: a family
    # whose every fingerprint is 0 makes every probe of a full cell a full
    # match, about 2 * (n / 2r) * ell = 21.8 comparisons per query
    from filterlab.cuckoo import CuckooFilterRep

    monkeypatch.setattr(gfamily.GFamily, "fingerprints", lambda self, xs: [0] * len(xs))
    monkeypatch.setattr(CuckooFilterRep, "query", None)  # no scalar fallback
    monkeypatch.setattr(acceptance, "C7_SAMPLES", 3000)
    res = acceptance.criterion_7(seed=123)
    assert res.measured == "mean=21.4480"
    assert not res.passed


def test_independence_criterion_detects_even_powers(monkeypatch):
    # fault injection: point vectors of even powers (x^2, x^4, ...) are
    # GF(2)-linear in x, so four points a, b, c, a^b^c give dependent bits
    # and the exhaustive k=5 count must trip
    def even_powers(xs, m, w):
        return np.array([[gf2.gf_pow(int(x), 2 * i + 2, w) for i in range(m)] for x in xs],
                        dtype=np.uint64).reshape(len(xs), m)

    monkeypatch.setattr(gfamily, "_PROVIDERS", OrderedDict())
    monkeypatch.setattr(gf2, "odd_power_rows", even_powers)
    res = acceptance.criterion_8(seed=123)
    assert not res.passed
