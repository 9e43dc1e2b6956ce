import copy
import hashlib
import random
from functools import partial

import numpy as np
import pytest

from filterlab import FilterParams, build_cuckoo, build_cuckoo_random_query, sample_set
from filterlab.adversaries import MutatePositivesAttack, RandomProbeAttack
from filterlab.core import SEED_BITS, BuildError, run_challenge
from filterlab.cuckoo import CuckooFilterRep, _place_all, cursor_bits, max_kicks, table_size
from filterlab.gfamily import GFamily, XProvider
from filterlab.hashing import mix64
from filterlab.shield import build_shield

SMALL = FilterParams(n=64, eps=2 ** -3, t=256, u_bits=12)


def _nonmember(rng, params, S):
    x = rng.randrange(params.universe)
    while x in S:
        x = rng.randrange(params.universe)
    return x


def test_completeness_immediately_after_build():
    for seed in range(10):
        S = sample_set(SMALL, random.Random(seed))
        rep = build_cuckoo(S, SMALL, rng_seed=1000 + seed)
        assert all(rep.query(x) for x in S)


def test_completeness_survives_interleaved_negatives():
    S = sample_set(SMALL, random.Random(3))
    rep = build_cuckoo(S, SMALL, rng_seed=4)
    rng = random.Random(5)
    members = sorted(S)
    for round_ in range(30):
        for _ in range(40):
            rep.query(_nonmember(rng, SMALL, S))
        assert all(rep.query(x) for x in members)


def test_production_memory_formula():
    # n=1024, eps=2^-6, t=4096: r=1127, ell=24, cursor 5 bits, k=1366, w=16
    p = FilterParams(n=1024, eps=2 ** -6, t=4096, u_bits=13)
    S = sample_set(p, random.Random(6))
    rep = build_cuckoo(S, p, rng_seed=7)
    assert rep.r == 1127
    cells = 2 * 1127 * (1 + 24 + 5)
    assert cells == 67620
    g_bits = 24 * (1 + (1366 // 2) * 16)      # s0 bit + k//2 field elements
    assert g_bits == 262296
    assert rep.bits == cells + 2 * 64 + g_bits == 330044
    data, bits = rep.serialize()
    assert bits == rep.bits


def test_variant_memory_excludes_cursors():
    p = FilterParams(n=256, eps=2 ** -6, t=1024, u_bits=12)
    S = sample_set(p, random.Random(8))
    rep = build_cuckoo_random_query(S, p, rng_seed=9)
    assert rep.ell == 12                       # 2 * log2(1/eps)
    assert rep.gfam.k == 256                   # k = n
    r = table_size(256)
    assert rep.bits == 2 * r * (1 + 12) + 2 * 64 + 12 * (1 + 128 * 16) == 32048
    data, bits = rep.serialize()
    assert bits == rep.bits


def test_single_element_build():
    p = FilterParams(n=1, eps=2 ** -3, t=8, u_bits=8)
    rep = build_cuckoo([42], p, rng_seed=10)
    assert rep.query(42)
    full = [fp is not None for fp in rep.slots]
    assert sum(full[:rep.r]) == 1              # placed in the first table
    assert sum(full[rep.r:]) == 0


def test_member_match_costs_exactly_ell_comparisons():
    p = FilterParams(n=1, eps=2 ** -3, t=8, u_bits=8)
    rep = build_cuckoo([42], p, rng_seed=11)
    # the member's cell is fully compared; the other cell is empty
    before = rep.bit_comparisons
    assert rep.query(42)
    assert rep.bit_comparisons - before == rep.ell


def test_duplicate_and_wrong_size_rejected():
    with pytest.raises(BuildError):
        build_cuckoo([1, 1, 2], FilterParams(n=3, eps=0.25, t=4, u_bits=8), 0)
    with pytest.raises(BuildError):
        build_cuckoo([1, 2], FilterParams(n=3, eps=0.25, t=4, u_bits=8), 0)


def test_build_failure_after_rebuild_limit(monkeypatch):
    from filterlab import cuckoo as cuckoo_mod

    monkeypatch.setattr(cuckoo_mod, "_place_all", lambda *a, **k: None)
    with pytest.raises(BuildError, match="rebuild"):
        build_cuckoo(sample_set(SMALL, random.Random(1)), SMALL, 12)


def _reference_place_all(members, seeds, r, kicks):
    """Cuckoo placement with one scalar mix64 per kick."""
    cells = [None] * (2 * r)
    for x in members:
        cur, tbl = x, 0
        for _ in range(kicks):
            i = tbl * r + mix64(seeds[tbl], cur) % r
            cur, cells[i] = cells[i], cur
            if cur is None:
                break
            tbl = 1 - tbl
        else:
            return None
    return cells


def _placed(members, seeds, r, kicks):
    """`_place_all`'s cells as the members they hold, None when empty."""
    xs = list(members)
    cells = _place_all(np.array(xs, dtype=np.uint64), seeds, r, kicks)
    return None if cells is None else [None if i < 0 else xs[i] for i in cells.tolist()]


TINY = FilterParams(n=4, eps=2 ** -3, t=256, u_bits=12)


@pytest.mark.parametrize("params, r, kicks", [
    pytest.param(SMALL, table_size(64), max_kicks(64), id="71"),
    pytest.param(SMALL, 40, max_kicks(64), id="40"),
    # where the empty-home fast path and the table alternation end: both
    # outcomes at each limit (161, 10, 10 and 3 of the 200 fail)
    *(pytest.param(TINY, table_size(4), kicks, id=f"5-kicks{kicks}") for kicks in (1, 2, 3, 4)),
])
def test_placement_matches_the_scalar_kick_loop(params, r, kicks):
    # the same cells on every seed pair, and None on the same pairs; some
    # placements fail at both sizes (9 and 197 of the 200 at r = 71 and 40)
    failed = 0
    for i in range(200):
        rng = random.Random(i)
        members = sample_set(params, rng)
        seeds = (rng.getrandbits(SEED_BITS), rng.getrandbits(SEED_BITS))
        cells = _placed(members, seeds, r, kicks)
        assert cells == _reference_place_all(members, seeds, r, kicks)
        failed += cells is None
    assert 0 < failed < 200


def test_cursor_state_never_changes_answers():
    S = sample_set(SMALL, random.Random(13))
    rep = build_cuckoo(S, SMALL, rng_seed=14)
    frozen = copy.deepcopy(rep)
    frozen.cursors = [0] * (2 * frozen.r)
    frozen.cursors_enabled = False             # compare from bit 0, never store
    rng = random.Random(15)
    seq = [rng.randrange(SMALL.universe) for _ in range(4000)]
    seq += sorted(S)
    answers = [rep.query(x) for x in seq]
    frozen_answers = [frozen.query(x) for x in seq]
    assert answers == frozen_answers


def test_cursors_actually_move():
    S = sample_set(SMALL, random.Random(16))
    rep = build_cuckoo(S, SMALL, rng_seed=17)
    rng = random.Random(18)
    for _ in range(500):
        rep.query(rng.randrange(SMALL.universe))
    moved = sum(c != 0 for c in rep.cursors)
    assert moved > 0
    # the variant never moves cursors
    repv = build_cuckoo_random_query(S, SMALL, rng_seed=19)
    for _ in range(500):
        repv.query(rng.randrange(SMALL.universe))
    assert all(c == 0 for c in repv.cursors)


def test_mean_comparisons_small_scale():
    S = sample_set(SMALL, random.Random(20))
    rep = build_cuckoo(S, SMALL, rng_seed=21)
    rng = random.Random(22)
    for _ in range(5000):
        rep.query(_nonmember(rng, SMALL, S))
    assert rep.mean_bit_comparisons <= 4.5
    assert rep.query_count == 5000


def test_fresh_query_fp_rate_tracks_two_to_minus_ell():
    # small fingerprints make the 2*2^-ell bound measurable
    p = FilterParams(n=64, eps=2 ** -1, t=64, u_bits=12)
    rng = random.Random(23)
    hits = total = 0
    for trial in range(25):
        S = sample_set(p, random.Random(200 + trial))
        rep = build_cuckoo(S, p, rng_seed=300 + trial)
        assert rep.ell == 4
        for _ in range(800):
            hits += rep.query(_nonmember(rng, p, S))
            total += 1
    rate = hits / total
    assert rate <= 2 * 2 ** -4 + 0.02
    assert rate > 0  # sanity: collisions do exist at ell=4


def test_per_function_load_stays_below_k():
    p = FilterParams(n=128, eps=2 ** -4, t=512, u_bits=11)
    trials_ok = 0
    for trial in range(10):
        S = sample_set(p, random.Random(400 + trial))
        rep = build_cuckoo(S, p, rng_seed=500 + trial)
        rng = random.Random(600 + trial)
        for _ in range(p.t):
            rep.query(rng.randrange(p.universe))
        if max(rep.participation) <= rep.gfam.k:
            trials_ok += 1
    assert trials_ok == 10


def test_per_function_load_below_k_at_production_scale():
    # over the full budget t, no single g_j should be compared in more than
    # k queries; the cyclic cursors spread the comparison work
    p = FilterParams(n=1024, eps=2 ** -6, t=4096, u_bits=13)
    for trial in range(3):
        S = sample_set(p, random.Random(700 + trial))
        rep = build_cuckoo(S, p, rng_seed=800 + trial)
        rng = random.Random(900 + trial)
        for _ in range(p.t):
            rep.query(rng.randrange(p.universe))
        assert max(rep.participation) <= rep.gfam.k
        assert sum(rep.participation) >= p.t  # every query touches some g_j


@pytest.mark.parametrize("attack", [RandomProbeAttack, MutatePositivesAttack])
@pytest.mark.parametrize("u_bits", [11, 32])
def test_per_function_load_below_k_under_adaptive_adversaries(u_bits, attack):
    # the paper's argument needs every g_j compared on at most k points under
    # the real adversaries too, not only under uniform queries; u_bits = 32
    # builds over GF(2^32) through the batch X-vector path
    p = FilterParams(n=128, eps=2 ** -4, t=512, u_bits=u_bits)
    built = []

    def tracked_cuckoo(S, params, seed):
        rep = build_cuckoo(S, params, seed)
        built.append(rep)
        return rep

    for trial in range(3):
        tr = run_challenge(tracked_cuckoo, attack(), None, p, rng_seed=1000 + trial)
        rep = built[-1]
        assert rep.gfam.field_width == (16 if u_bits == 11 else 32)
        assert len(tr.queries) == p.t
        assert max(rep.participation) <= rep.gfam.k
        assert sum(rep.participation) >= p.t


@pytest.mark.xfail(strict=True, reason="every cursor starts at 0 (`_build`), so the "
                   "first query at each of the n full cells evaluates g_0")
@pytest.mark.parametrize("t", [64, 512, 2048])
@pytest.mark.parametrize("u_bits", [13, 32])
def test_per_function_load_below_k_below_the_full_budget(u_bits, t):
    # the criterion-5 shape at budgets under 4n, where k = ceil(2t/L) is
    # smaller than the n cells whose first probe starts at g_0
    p = FilterParams(n=1024, eps=2 ** -6, t=t, u_bits=u_bits)
    rng = random.Random(11)
    S = sample_set(p, rng)
    rep = build_cuckoo(S, p, rng.getrandbits(63))
    rep.query_many([_nonmember(rng, p, S) for _ in range(t)])
    assert max(rep.participation) <= rep.gfam.k


@pytest.mark.parametrize("attack", [RandomProbeAttack, MutatePositivesAttack])
def test_criterion_5_shape_over_gf_2_32(attack):
    # the full budget of criterion 5 over a 32-bit universe: every query
    # builds its X-vector by the wide routes, one game per adaptive adversary
    p = FilterParams(n=1024, eps=2 ** -6, t=4096, u_bits=32)
    built = []

    def tracked_cuckoo(S, params, seed):
        rep = build_cuckoo(S, params, seed)
        built.append(rep)
        return rep

    S = sample_set(p, random.Random(1100))
    tr = run_challenge(tracked_cuckoo, attack(), S, p, rng_seed=1101)
    rep = built[-1]
    assert tr.valid and len(tr.queries) == p.t
    assert rep.gfam.field_width == 32
    assert max(rep.participation) <= rep.gfam.k
    assert all(rep.query_many(sorted(S)))


def test_participation_counts_each_evaluated_function_once_per_query():
    S = sample_set(SMALL, random.Random(30))
    rep = build_cuckoo(S, SMALL, rng_seed=31)
    assert rep.participation == [0] * rep.ell  # counted from the build on
    s1, s2 = rep.seeds

    def cells(x):
        return mix64(s1, x) % rep.r, rep.r + mix64(s2, x) % rep.r

    # a member whose other cell is full too: both cells compare some of the
    # same bits, yet each g_j counts once for the query
    x = next(x for x in sorted(S) if all(rep.slots[i] is not None for i in cells(x)))
    before = rep.bit_comparisons
    assert rep.query(x)
    assert rep.bit_comparisons - before > rep.ell
    assert rep.participation == [1] * rep.ell
    # a point whose two cells are both empty compares nothing
    y = next(y for y in range(SMALL.universe) if all(rep.slots[i] is None for i in cells(y)))
    before = rep.bit_comparisons
    assert not rep.query(y)
    assert rep.bit_comparisons == before
    assert rep.participation == [1] * rep.ell


# SHA-256 over the answers, comparison counts, cursors, per-function loads and
# serialized payloads of fixed query streams at u_bits 13 and 32, both
# builders: it pins placement, probing, cursor movement, load counting and
# the payload layout bit for bit.
GOLDEN_DIGEST = "df09a699cc97dfd8a55ff524a4a9855baa7111044b63ec881e4844a058518290"


def test_golden_streams_are_unchanged():
    h = hashlib.sha256()
    for u_bits in (13, 32):
        p = FilterParams(n=64, eps=2 ** -3, t=64, u_bits=u_bits)
        for builder in (build_cuckoo, build_cuckoo_random_query):
            S = sample_set(p, random.Random(u_bits))
            rep = builder(S, p, rng_seed=7 + u_bits)
            rng = random.Random(100 + u_bits)
            members = sorted(S)
            seq = [rng.randrange(p.universe) for _ in range(300)]
            seq += [rng.choice(members) ^ (1 << rng.randrange(u_bits)) for _ in range(100)]
            seq += members
            answers = bytes(rep.query(x) for x in seq)
            data, nbits = rep.serialize()
            h.update(repr((answers, rep.bit_comparisons, rep.query_count, rep.cursors,
                           rep.participation, rep.bits, nbits)).encode())
            h.update(data)
    assert h.hexdigest() == GOLDEN_DIGEST


@pytest.mark.parametrize("build", [build_cuckoo, build_cuckoo_random_query])
def test_serialize_roundtrip_preserves_answers_and_cursors(build):
    S = sample_set(SMALL, random.Random(24))
    rep = build(S, SMALL, rng_seed=25)
    rng = random.Random(26)
    for _ in range(200):
        rep.query(rng.randrange(SMALL.universe))
    data, bits = rep.serialize()
    back = CuckooFilterRep.deserialize(
        SMALL, rep.ell, rep.gfam.k, rep.gfam.field_width, rep.r,
        rep.cursors_enabled, data, bits)
    assert back.cursors == rep.cursors
    seq = [rng.randrange(SMALL.universe) for _ in range(1500)] + sorted(S)
    assert [back.query(x) for x in seq] == [rep.query(x) for x in seq]


@pytest.mark.parametrize("u_bits", [13, 32])
@pytest.mark.parametrize("build", [build_cuckoo, build_cuckoo_random_query])
def test_a_deserialized_batch_equals_the_original_scalar_loop(build, u_bits):
    p = FilterParams(n=64, eps=2 ** -6, t=256, u_bits=u_bits)
    S = sample_set(p, random.Random(u_bits))
    rep = build(S, p, rng_seed=27 + u_bits)
    rng = random.Random(28 + u_bits)
    for _ in range(100):
        rep.query(rng.randrange(p.universe))
    back = CuckooFilterRep.deserialize(p, rep.ell, rep.gfam.k, rep.gfam.field_width,
                                       rep.r, rep.cursors_enabled, *rep.serialize())
    before = rep.bit_comparisons, rep.query_count, rep.participation[:]
    members = sorted(S)
    seq = [rng.randrange(p.universe) for _ in range(600)] + members + members[::3]
    assert back.query_many(seq) == [rep.query(x) for x in seq]
    assert back.bit_comparisons == rep.bit_comparisons - before[0]
    assert back.query_count == rep.query_count - before[1] == len(seq)
    assert back.participation == [a - b for a, b in zip(rep.participation, before[2])]
    assert back.cursors == rep.cursors
    assert back.serialize() == rep.serialize()


@pytest.mark.parametrize("u_bits", [13, 32])
@pytest.mark.parametrize("build", [build_cuckoo, build_cuckoo_random_query])
def test_full_mask_follows_the_slots(build, u_bits):
    # the build takes the mask from its placement and a read from the slots
    # it reads; either way it marks exactly the slots holding a fingerprint
    p = FilterParams(n=64, eps=2 ** -3, t=64, u_bits=u_bits)
    rep = build(sample_set(p, random.Random(u_bits)), p, rng_seed=30 + u_bits)
    assert rep._full.dtype == bool
    assert rep._full.tolist() == [fp is not None for fp in rep.slots]
    assert rep._full.sum() == p.n
    data, bits = rep.serialize()
    back = CuckooFilterRep.deserialize(p, rep.ell, rep.gfam.k, rep.gfam.field_width,
                                       rep.r, rep.cursors_enabled, data, bits)
    assert back.slots == rep.slots
    assert back._full.tolist() == [fp is not None for fp in back.slots]


def test_deserialize_reads_exactly_the_payload():
    rep = build_cuckoo(sample_set(SMALL, random.Random(24)), SMALL, rng_seed=25)
    data, bits = rep.serialize()
    with pytest.raises(ValueError, match="bits past the payload"):
        CuckooFilterRep.deserialize(SMALL, rep.ell, rep.gfam.k, rep.gfam.field_width,
                                    rep.r, rep.cursors_enabled, data + b"\0", bits + 8)


def test_unsteady_kind_and_serialization_changes_with_cursors():
    S = sample_set(SMALL, random.Random(27))
    rep = build_cuckoo(S, SMALL, rng_seed=28)
    before = rep.serialize()
    rng = random.Random(29)
    for _ in range(300):
        rep.query(rng.randrange(SMALL.universe))
    assert rep.serialize() != before           # cursor churn is visible state


def test_cursor_bits_formula():
    assert cursor_bits(24) == 5
    assert cursor_bits(16) == 4
    assert cursor_bits(12) == 4
    assert cursor_bits(4) == 2


# The same fields as GOLDEN_DIGEST, through `query_many` alone: a uniform
# block, a block that stops at its first True from index 100 on, then every
# member as one batch, on fresh filters of both builders and a shielded one.
GOLDEN_BATCH_DIGEST = "9e037066e3bd404b435e6e8c2e4fe538a8a75babe26501e68971d47e0b9c9f12"


def test_golden_batches_are_unchanged():
    h = hashlib.sha256()
    for u_bits in (13, 32):
        p = FilterParams(n=64, eps=2 ** -3, t=64, u_bits=u_bits)
        S = sample_set(p, random.Random(50 + u_bits))
        members = sorted(S)
        for build in (build_cuckoo, build_cuckoo_random_query,
                      partial(build_shield, build_cuckoo)):
            rep = build(S, p, 60 + u_bits)
            inner = rep.unshielded
            rng = random.Random(70 + u_bits)
            uniform = [rng.randrange(p.universe) for _ in range(300)]
            mixed = [rng.randrange(p.universe) for _ in range(120)] + members[:20]
            answers = rep.query_many(uniform)
            answers += rep.query_many(mixed, lambda i, y: y and i >= 100)
            assert len(answers) < 440  # the stop ended the second block
            answers += rep.query_many(members)
            data, nbits = rep.serialize()
            h.update(repr((bytes(answers), inner.bit_comparisons, inner.query_count,
                           inner.cursors, inner.participation, rep.bits, nbits)).encode())
            h.update(data)
    assert h.hexdigest() == GOLDEN_BATCH_DIGEST


@pytest.fixture
def fingerprinted(monkeypatch):
    """The points of each `GFamily.fingerprints` call, one list per call."""
    calls = []
    real = GFamily.fingerprints

    def spy(self, xs):
        calls.append([int(x) for x in xs])
        return real(self, xs)

    monkeypatch.setattr(GFamily, "fingerprints", spy)
    return calls


def _cells(rep, x):
    s1, s2 = rep.seeds
    return mix64(s1, x) % rep.r, rep.r + mix64(s2, x) % rep.r


def _pending(rep):
    return {i for i in range(2 * rep.r) if rep._pending[i]}


LAZY = FilterParams(n=64, eps=2 ** -6, t=64, u_bits=13)


@pytest.mark.parametrize("build", [build_cuckoo, build_cuckoo_random_query])
def test_a_build_fingerprints_nothing(build, fingerprinted):
    S = sample_set(LAZY, random.Random(40))
    rep = build(S, LAZY, rng_seed=41)
    assert rep.bits > 0
    assert fingerprinted == []
    assert len(_pending(rep)) == LAZY.n
    assert {int(rep._occupants[i]) for i in _pending(rep)} == S


def test_a_batch_fingerprints_the_occupants_of_the_pending_cells_it_reads(fingerprinted):
    S = sample_set(LAZY, random.Random(42))
    rep = build_cuckoo(S, LAZY, rng_seed=43)
    rng = random.Random(44)
    members = sorted(S)
    xs = [rng.randrange(LAZY.universe) for _ in range(40)] + members[:8] + members[:3]
    read = {i for x in xs for i in _cells(rep, x) if rep._full[i]}
    points = {x for x in xs if any(rep._full[i] for i in _cells(rep, x))}
    want = points | {int(rep._occupants[i]) for i in read}
    assert not want <= set(xs)  # some occupant is no point of the batch
    rep.query_many(xs)
    assert len(fingerprinted) == 1
    assert sorted(fingerprinted[0]) == sorted(want)  # each point once
    assert _pending(rep) == {i for i in range(2 * rep.r) if rep._full[i]} - read
    # the same points again read no pending cell: the pass fingerprints them alone
    rep.query_many(xs)
    assert sorted(fingerprinted[1]) == sorted(points)


@pytest.mark.parametrize("build", [build_cuckoo, build_cuckoo_random_query])
def test_a_long_batch_makes_one_fingerprint_call(build, fingerprinted):
    # 2^14 + 100 points, repeats and members among them, in one call and
    # one pass: the same answers, counters, cursors and loads as the loop
    S = sample_set(LAZY, random.Random(50))
    batch, loop = build(S, LAZY, rng_seed=51), build(S, LAZY, rng_seed=51)
    rng = random.Random(52)
    members = sorted(S)
    xs = [rng.choice(members) if rng.random() < 0.1 else rng.randrange(LAZY.universe)
          for _ in range((1 << 14) + 100)]
    ys = batch.query_many(xs)
    assert len(fingerprinted) == 1
    assert ys == [loop.query(x) for x in xs]
    for rep in (batch, loop):
        assert rep.query_count == len(xs)
    assert batch.bit_comparisons == loop.bit_comparisons
    assert batch.cursors == loop.cursors
    assert batch.participation == loop.participation
    assert batch.serialize() == loop.serialize()


def test_a_first_member_query_builds_its_x_vector_once(monkeypatch):
    # at u_bits=32 nothing is cached, so each `get` builds: a member's query
    # fills its own pending cell from the X-vector it already built
    p = FilterParams(n=64, eps=2 ** -6, t=64, u_bits=32)
    S = sample_set(p, random.Random(53))
    rep = build_cuckoo(S, p, rng_seed=54)
    built = []
    real = XProvider.get

    def spy(self, x):
        built.append(x)
        return real(self, x)

    monkeypatch.setattr(XProvider, "get", spy)
    for x in sorted(S):
        built.clear()
        assert rep.query(x)
        assert built.count(x) == 1
        assert len(built) <= 2  # at most the occupant of its other cell besides


def test_a_scalar_read_fills_only_the_cells_it_reads(fingerprinted):
    S = sample_set(LAZY, random.Random(45))
    rep = build_cuckoo(S, LAZY, rng_seed=46)
    rng = random.Random(47)
    left = _pending(rep)
    for x in sorted(S)[:5] + [rng.randrange(LAZY.universe) for _ in range(20)]:
        rep.query(x)
        left -= set(_cells(rep, x))
        assert _pending(rep) == left
    assert fingerprinted == []  # a scalar fill evaluates the bits it needs itself
    assert 0 < len(left) < LAZY.n


def test_slots_and_serialize_fill_the_rest(fingerprinted):
    S = sample_set(LAZY, random.Random(48))
    rep = build_cuckoo(S, LAZY, rng_seed=49)
    rep.query_many(sorted(S)[:10])
    left = _pending(rep)
    want = sorted(int(rep._occupants[i]) for i in left)
    assert rep.slots.count(None) == 2 * rep.r - LAZY.n
    assert [sorted(c) for c in fingerprinted[1:]] == [want]
    assert _pending(rep) == set()
    rep.serialize()
    assert len(fingerprinted) == 2  # nothing left to fill
    fresh = build_cuckoo(S, LAZY, rng_seed=49)
    data, bits = fresh.serialize()
    assert sorted(fingerprinted[2]) == sorted(S)
    back = CuckooFilterRep.deserialize(LAZY, fresh.ell, fresh.gfam.k, fresh.gfam.field_width,
                                       fresh.r, fresh.cursors_enabled, data, bits)
    assert _pending(back) == set()


@pytest.mark.parametrize("u_bits", [13, 32])
def test_a_batch_stores_each_pending_cell_it_reads_once(u_bits, monkeypatch):
    p = FilterParams(n=64, eps=2 ** -6, t=64, u_bits=u_bits)
    S = sample_set(p, random.Random(55 + u_bits))
    rep = build_cuckoo(S, p, rng_seed=56)
    stored = []
    real = CuckooFilterRep._store

    def spy(self, cells, fps):
        stored.append(cells.tolist())
        return real(self, cells, fps)

    monkeypatch.setattr(CuckooFilterRep, "_store", spy)
    rng = random.Random(57)
    members = sorted(S)
    xs = [rng.randrange(p.universe) for _ in range(200)] + members[:20] + members[:20]
    reads = [i for x in xs for i in _cells(rep, x) if rep._pending[i]]
    assert len(reads) > len(set(reads))  # some pending cell is read twice
    rep.query_many(xs)
    assert len(stored) == 1
    assert len(stored[0]) == len(set(stored[0])) == len(set(reads))
    assert set(stored[0]) == set(reads)


CURSORS = FilterParams(n=64, eps=2 ** -1, t=16, u_bits=16)


def test_every_starting_cursor_plays_as_the_scalar_loop():
    # at ell=4 a probe from cursor c0 often matches every bit from c0 up
    # and first mismatches below it, after the wrap: each branch of the
    # closed form is reached from every cursor, in a full batch and a
    # stopped one; only the resilient builder moves its cursors
    S = sample_set(CURSORS, random.Random(58))
    members = sorted(S)

    def stop(i, y):
        return y and i >= 50

    for c0 in range(4):
        batch, loop = (build_cuckoo(S, CURSORS, rng_seed=59) for _ in range(2))
        assert batch.ell == 4
        for rep in (batch, loop):
            rep.cursors[:] = [c0] * len(rep.cursors)
        rng = random.Random(60 + c0)
        xs = [rng.choice(members) if rng.random() < 0.2 else rng.randrange(CURSORS.universe)
              for _ in range(300)]
        ys = batch.query_many(xs[:100], stop)
        assert len(ys) < 100  # the stop ended the first block
        zs = []
        for i, x in enumerate(xs[:100]):
            zs.append(loop.query(x))
            if stop(i, zs[-1]):
                break
        ys += batch.query_many(xs[100:])
        zs += [loop.query(x) for x in xs[100:]]
        assert ys == zs
        assert batch.bit_comparisons == loop.bit_comparisons
        assert batch.query_count == loop.query_count == len(ys)
        assert batch.cursors == loop.cursors
        assert batch.participation == loop.participation
        assert batch.slots == loop.slots


@pytest.mark.parametrize("u_bits", [13, 32])
@pytest.mark.parametrize("eps, ell", [(2 ** -6, 24), (2 ** -17, 68)])
def test_a_lazy_filter_plays_as_its_eager_twin(u_bits, eps, ell):
    p = FilterParams(n=64, eps=eps, t=64, u_bits=u_bits)
    S = sample_set(p, random.Random(u_bits + ell))
    lazy = build_cuckoo(S, p, rng_seed=ell)
    eager = build_cuckoo(S, p, rng_seed=ell)
    assert eager.slots.count(None) == 2 * eager.r - p.n  # every cell filled
    assert lazy.ell == ell and _pending(lazy) and not _pending(eager)
    rng = random.Random(ell + 1)
    members = sorted(S)

    def block(size):
        return [rng.choice(members) if rng.random() < 0.3 else rng.randrange(p.universe)
                for _ in range(size)]

    got = []
    for rep in (lazy, eager):
        rng.seed(ell + 1)
        ys = [rep.query(x) for x in block(10)]
        ys += rep.query_many(block(30))
        ys += [rep.query(x) for x in block(10)]
        ys += rep.query_many(block(60), lambda i, y: y and i >= 20)
        ys += rep.query_many(block(1))
        ys += [rep.query(x) for x in members[::2]]
        ys += rep.query_many(members)
        got.append((ys, rep.bit_comparisons, rep.query_count, rep.cursors,
                    rep.participation, rep.serialize()))
    assert got[0] == got[1]
    assert all(got[0][0][-p.n:])
