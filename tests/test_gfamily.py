import random
from collections import OrderedDict

import numpy as np
import pytest

from filterlab import FilterParams, build_cuckoo, gf2, gfamily, sample_set
from filterlab.bitio import BitReader, BitWriter
from filterlab.gfamily import GFamily, XProvider, _ints, g_sample, x_provider

from stats import chi2_sf


def _held(prov):
    """{point: row} for every point the X-cache holds a row for, read off its
    row map."""
    points = np.flatnonzero(prov._row_of >= 0)
    return dict(zip(points.tolist(), prov._row_of[points].tolist()))


def eval_bit(fam, i, x):
    """Output bit of g_i at x by the packed seeds, the scalar fast path of
    `CuckooFilterRep._probe`; the tests hold it to `GFamily.evaluate`."""
    if not (0 <= i < fam.ell):
        raise IndexError(f"function index {i} out of range")
    return (fam.packed[i] & fam.provider.get(x)).bit_count() & 1


def test_sampling_is_deterministic():
    a = g_sample(3, 5, 8, rng_seed=99)
    b = g_sample(3, 5, 8, rng_seed=99)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(a.s0, b.s0)
    c = g_sample(3, 5, 8, rng_seed=100)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_eval_bit_deterministic_and_in_range():
    fam = g_sample(4, 7, 16, rng_seed=1)
    for x in (0, 1, 1234, 65535):
        bits = [eval_bit(fam, i, x) for i in range(4)]
        assert bits == [eval_bit(fam, i, x) for i in range(4)]
        assert all(b in (0, 1) for b in bits)


def _one(k, w, s0, *coeffs):
    """A single-function family with the given seed."""
    return GFamily(ell=1, k=k, field_width=w, s0=np.array([s0], dtype=np.uint8),
                   coeffs=np.array([coeffs], dtype=np.uint64).reshape(1, k // 2))


@pytest.mark.parametrize("w,k,ell", [(4, 2, 2), (4, 5, 3), (8, 3, 2), (16, 4, 2)])
def test_fast_path_matches_horner_reference(w, k, ell):
    # the packed AND + popcount route against the direct s0 ^ <s, (x, x^3, ...)>
    fam = g_sample(ell, k, w, rng_seed=7)
    points = range(1 << w) if w <= 8 else random.Random(0).sample(range(1 << 16), 300)
    for x in points:
        for i in range(ell):
            assert eval_bit(fam, i, x) == fam.evaluate(i, x)


def _joint_counts(k, w, points):
    """Joint output bits of one k-wise function on `points`, over every seed."""
    counts = [0] * (1 << len(points))
    for seed in range(1 << (1 + (k // 2) * w)):
        fam = _one(k, w, seed & 1, *[(seed >> (1 + i * w)) & ((1 << w) - 1)
                                      for i in range(k // 2)])
        counts[sum(eval_bit(fam, 0, x) << b for b, x in enumerate(points))] += 1
    return counts


def test_pairwise_independence_exhaustive_gf16():
    # one function, k=2 (so 3-wise): over all 32 seeds (s0, s1), the joint
    # output bits on any three distinct inputs take each of the 8 values 4 times
    for triple in [(1, 2, 3), (0, 7, 9), (9, 14, 15)]:
        assert _joint_counts(2, 4, triple) == [4] * 8


def test_pairwise_independence_exhaustive_gf256():
    # same law over the full GF(2^8) seed space, zero tolerance
    assert _joint_counts(2, 8, (3, 200, 0)) == [64] * 8
    assert _joint_counts(2, 8, (3, 200)) == [128] * 4


def test_constant_polynomial_ignores_input():
    # k=1: no field elements, the function is its constant bit s0 everywhere
    for s0 in (0, 1):
        fam = _one(1, 4, s0)
        assert {eval_bit(fam, 0, x) for x in range(16)} == {s0}
        assert {fam.evaluate(0, x) for x in range(16)} == {s0}


def test_rep_bits_accounting():
    # one constant bit plus k // 2 field elements per function
    fam = g_sample(24, 1366, 16, rng_seed=3)
    assert fam.rep_bits == 24 * (1 + 683 * 16)
    for ell, k, w in [(1, 1, 8), (3, 2, 4), (3, 3, 4), (5, 4, 32), (2, 7, 64)]:
        assert g_sample(ell, k, w, rng_seed=0).rep_bits == ell * (1 + (k // 2) * w)


def _payload(fam):
    w = BitWriter()
    fam.write(w)
    return w.getvalue(), w.bit_length


def test_serialization_layout_and_roundtrip():
    # per function: s0, then fixed-width big-endian elements in index order
    fam = GFamily(ell=2, k=3, field_width=8, s0=np.array([1, 0], dtype=np.uint8),
                  coeffs=np.array([[0xAB], [0x12]], dtype=np.uint64))
    data, bits = _payload(fam)
    assert bits == 18  # 1 10101011 0 00010010
    assert data == bytes([0b11010101, 0b10000100, 0b10000000])

    fam2 = g_sample(3, 11, 16, rng_seed=21)
    data, bits = _payload(fam2)
    assert bits == fam2.rep_bits
    back = GFamily.read(BitReader(data, bits), 3, 11, 16)
    assert np.array_equal(back.coeffs, fam2.coeffs)
    assert np.array_equal(back.s0, fam2.s0)
    for x in (0, 5, 999, 65535):
        assert [eval_bit(back, i, x) for i in range(3)] == \
               [eval_bit(fam2, i, x) for i in range(3)]

    # stream not byte-aligned: 3*(1+2*4) = 27 bits
    fam3 = g_sample(3, 5, 4, rng_seed=22)
    data, bits = _payload(fam3)
    assert bits == 27
    back3 = GFamily.read(BitReader(data, bits), 3, 5, 4)
    assert np.array_equal(back3.coeffs, fam3.coeffs)
    assert np.array_equal(back3.s0, fam3.s0)


def test_provider_shared_across_same_shape():
    a = g_sample(2, 9, 16, rng_seed=1)
    b = g_sample(5, 9, 16, rng_seed=2)
    assert a.provider is b.provider
    assert a.provider is x_provider(16, 9)


def test_point_outside_field_raises():
    fam = g_sample(2, 3, 4, rng_seed=0)
    with pytest.raises(ValueError):
        eval_bit(fam, 0, 16)
    with pytest.raises(ValueError):
        fam.evaluate(0, 16)
    with pytest.raises(ValueError):
        fam.fingerprints([3, 16])
    fam.fingerprints([15])  # the row map must not read -1 as the last point
    for bad in (-1, -16, 16):
        with pytest.raises(ValueError):
            fam.provider.get(bad)


@pytest.mark.parametrize("w", [32, 64])
def test_wide_point_outside_field_raises(w):
    # both routes of `_build_many`: the chain point by point for 1 point
    # (and 23 at w = 64, below WIDE_BATCH_MIN), the numpy batch for 24 (and
    # 23 at w = 32: 46 powers of m = 2, past TOWER_POWERS_MIN)
    fam = g_sample(3, 5, w, rng_seed=w)
    prov = fam.provider
    for bad in (1 << w, (1 << w) + 5, 1 << (2 * w), -1, -(1 << w)):
        for size in (1, gfamily.WIDE_BATCH_MIN - 1, gfamily.WIDE_BATCH_MIN):
            points = list(range(1, size)) + [bad]
            with pytest.raises(ValueError):
                prov.get_many(points)
            with pytest.raises(ValueError):
                fam.fingerprints(points)
    if w == 32:  # a uint64 array on the tower route, as a cuckoo build hands it over
        points = np.arange(1, 41, dtype=np.uint64)
        points[-1] = 1 << 32
        with pytest.raises(ValueError, match="does not embed"):
            fam.fingerprints(points)
    assert _held(prov) == {} and prov._filled == 0


def test_sample_validation():
    with pytest.raises(ValueError):
        g_sample(0, 3, 8, rng_seed=0)
    with pytest.raises(ValueError):
        g_sample(2, 0, 8, rng_seed=0)
    with pytest.raises(ValueError):
        g_sample(2, 3, 12, rng_seed=0)  # unsupported width
    with pytest.raises(ValueError):  # k=2 takes one field element, not k
        GFamily(ell=1, k=2, field_width=4, s0=np.zeros(1, dtype=np.uint8),
                coeffs=np.zeros((1, 2), dtype=np.uint64))


def test_fingerprint_bit_uniformity_chi_square():
    # production-shaped family; per-bit balance over 10^4 random points
    fam = g_sample(24, 1366, 16, rng_seed=11)
    rng = random.Random(13)
    n = 10_000
    ones = [0] * fam.ell
    for fp in fam.fingerprints([rng.randrange(1 << 16) for _ in range(n)]):
        for j in range(fam.ell):
            ones[j] += (fp >> j) & 1
    stat = sum((o - n / 2) ** 2 / (n / 4) for o in ones)
    assert chi2_sf(stat, fam.ell) > 1e-4


def test_wide_field_slow_path_matches_reference():
    # no log tables above width 16: X(x) is built by multiplying by x^2
    fam = g_sample(2, 4, 32, rng_seed=5)
    rng = random.Random(6)
    for x in [0, 1] + [rng.randrange(1 << 32) for _ in range(20)]:
        for i in range(2):
            assert eval_bit(fam, i, x) == fam.evaluate(i, x)
    fam64 = g_sample(1, 5, 64, rng_seed=7)
    assert all(int(c) < (1 << 64) for c in fam64.coeffs.ravel())
    assert any(int(c) >> 63 for c in g_sample(8, 5, 64, rng_seed=8).coeffs.ravel())
    for x in [0, 1] + [rng.randrange(1 << 64) for _ in range(5)]:
        assert eval_bit(fam64, 0, x) == fam64.evaluate(0, x)


WIDTHS = [4, 8, 16, 32, 64]


def _edge_points(w, rng, count):
    """0, 1, 2^w - 1, random points, and one duplicate."""
    points = [0, 1, (1 << w) - 1] + [rng.randrange(1 << w) for _ in range(count)]
    return points + [points[3]]


@pytest.mark.parametrize("w", WIDTHS)
def test_get_many_matches_get_and_leaves_the_same_cache(w):
    # get_many hands out uint64 limb rows and get reads one as an int.  At
    # w = 32/64 the first batch is large enough for the numpy route, so it
    # meets the scalar chain of a query miss; both must give equal vectors
    # and leave the same entries on the same rows, written in the order their
    # points first appear.  A wide batch comes back in order, with no index
    rng = random.Random(w)
    batch, single = XProvider(w, 5), XProvider(w, 5)
    seen = []
    for points in (_edge_points(w, rng, gfamily.WIDE_BATCH_MIN), [],
                   [rng.randrange(1 << w), 1, 0]):
        seen += points
        rows, index = batch.get_many(points)
        assert rows.dtype == np.dtype("<u8") and rows.shape[1] == batch.limbs
        assert (index is None) == (w in (32, 64))
        vectors = rows if index is None else rows[index]
        assert _ints(vectors) == [single.get(x) for x in points]
        assert np.array_equal(batch._row_of, single._row_of)
        assert batch._filled == single._filled
        held = _held(batch)
        assert sorted(held.values()) == list(range(batch._filled))
        if w in gf2.TABLE_WIDTHS:
            assert sorted(held, key=held.get) == list(dict.fromkeys(seen))
        else:
            assert held == {}


@pytest.mark.parametrize("u_bits, w", [(13, 16), (32, 32)])
def test_cache_keeps_vectors_only_at_table_widths(monkeypatch, u_bits, w):
    # GF(2^16) caps a shape at 2^16 points; over GF(2^32) nearly every point
    # is new, so its vectors are built for the call and dropped
    monkeypatch.setattr(gfamily, "_PROVIDERS", OrderedDict())
    p = FilterParams(n=64, eps=2 ** -3, t=64, u_bits=u_bits)
    S = sample_set(p, random.Random(1))
    rep = build_cuckoo(S, p, rng_seed=2)
    rng = random.Random(3)
    queries = [rng.randrange(p.universe) for _ in range(40)]
    for x in queries + sorted(S):
        rep.query(x)
    assert rep.gfam.field_width == w
    held = _held(rep.gfam.provider)
    if w in gf2.TABLE_WIDTHS:
        assert set(held) == set(S) | set(queries)
    else:
        assert held == {} and rep.gfam.provider._rows.size == 0
    assert all(rep.query(x) for x in S)


@pytest.mark.parametrize("w", WIDTHS)
def test_fingerprints_match_reference(w):
    # ell > 64: the bits of one fingerprint span more than one uint64
    fam = g_sample(70, 9, w, rng_seed=w)
    points = _edge_points(w, random.Random(w + 1), 8)
    fps = fam.fingerprints(points)
    assert fps == [sum(fam.evaluate(j, x) << j for j in range(fam.ell)) for x in points]
    assert fam.fingerprints([]) == []


def test_fingerprints_do_not_depend_on_the_chunk(monkeypatch):
    fam = g_sample(5, 200, 16, rng_seed=4)
    points = random.Random(5).sample(range(1 << 16), 60)
    whole = fam.fingerprints(points)
    for chunk in (1, 8 * 26 * 7):  # one row per chunk; seven rows of 26 limbs
        monkeypatch.setattr(gfamily, "FP_CHUNK_BYTES", chunk)
        assert fam.fingerprints(points) == whole
    assert whole == [sum(eval_bit(fam, j, x) << j for j in range(5)) for x in points]


@pytest.mark.parametrize("w, m", [(16, 11), (32, 11)])
def test_fingerprints_at_the_axis_rule_boundary(monkeypatch, w, m):
    # `fingerprints` loops over limbs when a row has no more limbs than there
    # are functions, else over functions: ell = limbs - 1, limbs, limbs + 1
    # straddle the rule
    limbs = -(-(m + 1) * w // 64)
    points = _edge_points(w, random.Random(m), 30)
    for ell in (limbs - 1, limbs, limbs + 1):
        fam = g_sample(ell, 2 * m, w, rng_seed=ell)
        assert fam._limbs.shape == (ell, limbs)
        whole = fam.fingerprints(points)
        assert whole == [sum(fam.evaluate(j, x) << j for j in range(ell)) for x in points]
        with monkeypatch.context() as mp:
            mp.setattr(gfamily, "FP_CHUNK_BYTES", 8 * limbs)  # one row per chunk
            assert fam.fingerprints(points) == whole


@pytest.mark.parametrize("w, m, ell", [(16, 683, 2), (32, 11, 24)])
def test_fingerprints_around_a_group_match_reference(monkeypatch, w, m, ell):
    # at m = 683 a row has 171 limbs, more than ell, and rows are ANDed in
    # groups of FP_GROUP; at w = 32, m = 11 a row has 6 limbs, fewer than
    # ell, and the AND runs limb by limb.  Batches of 1, G - 1, G and G + 1
    # points, then 2G + 3 in chunks of one group: two chunks and a shorter
    # tail.  FP_GROUP is made small so that `evaluate`, about 40 ms a bit
    # at m = 683, checks every case
    monkeypatch.setattr(gfamily, "FP_GROUP", 4)
    G = gfamily.FP_GROUP
    fam = g_sample(ell, 2 * m, w, rng_seed=m)
    limbs = fam._limbs.shape[1]
    assert (limbs > ell) == (m == 683)
    points = random.Random(m).sample(range(1 << 13), 2 * G + 2)
    points.insert(G, points[1])  # a repeat inside the batch
    want = [sum(fam.evaluate(j, x) << j for j in range(ell)) for x in points]
    for size in (1, G - 1, G, G + 1):
        assert fam.fingerprints(points[:size]) == want[:size]
    monkeypatch.setattr(gfamily, "FP_CHUNK_BYTES", 8 * max(limbs, ell) * G)
    assert fam.fingerprints(np.array(points, dtype=np.uint64)) == want


def test_fingerprints_around_the_real_group():
    # the same sizes at FP_GROUP itself and at the acceptance shape (24
    # functions of m = 683), against the scalar fast path, which the tests
    # above hold to `evaluate`; 1,000 points cross FP_CHUNK_BYTES chunks
    G = gfamily.FP_GROUP
    fam = g_sample(24, 1366, 16, rng_seed=9)
    chunk = max(1, gfamily.FP_CHUNK_BYTES // (8 * fam._limbs.shape[1] * G)) * G
    points = [random.Random(10).randrange(1 << 13) for _ in range(1000)]
    assert len(points) > chunk
    want = [sum(eval_bit(fam, j, x) << j for j in range(24)) for x in points]
    for size in (1, G - 1, G, G + 1, len(points)):
        assert fam.fingerprints(points[:size]) == want[:size]


@pytest.mark.parametrize("ell", [1, 8, 63, 64, 65, 68])
def test_fingerprint_rows_pack_into_ints(ell):
    # rows of at most 8 bytes go through one uint64 view, wider ones by
    # `int.from_bytes`; both read the packed bits little-endian
    bits = np.random.default_rng(ell).integers(0, 2, size=(40, ell), dtype=np.uint8)
    bits[0], bits[1] = 0, 1
    rows = np.packbits(bits, axis=1, bitorder="little")
    assert _ints(rows) == [int.from_bytes(row.tobytes(), "little") for row in rows]
    assert _ints(rows[:0]) == []
    fam = g_sample(ell, 5, 16, rng_seed=ell)
    points = [0, 1, 0xFFFF, 12345]
    assert fam.fingerprints(points) == \
           [sum(fam.evaluate(j, x) << j for j in range(ell)) for x in points]


def _built(w, points):
    """X(x) for every point, as the rows `_build_many` writes at m = 5."""
    prov = XProvider(w, 5)
    return prov._build_many(points, np.empty((len(points), prov.limbs), dtype="<u8"))


def _counted_passes(monkeypatch):
    """The batch sizes `gf2.odd_power_rows` is called with from now on."""
    passes, rows = [], gf2.odd_power_rows

    def counted(xs, m, w):
        passes.append(len(xs))
        return rows(xs, m, w)

    monkeypatch.setattr(gf2, "odd_power_rows", counted)
    return passes


@pytest.mark.parametrize("w", [16, 32])
def test_batch_build_does_not_depend_on_the_chunk(monkeypatch, w):
    # 68 points of m = 5: 340 powers, past TOWER_POWERS_MIN, so w = 32 takes
    # the numpy route too, and not a multiple of the chunk, so the last chunk
    # is a short one
    points = random.Random(w).sample(range(1 << 16), 68)
    whole = _built(w, points)
    for name in ("FP_CHUNK_BYTES", "WIDE_CHUNK_BYTES"):
        monkeypatch.setattr(gfamily, name, 8 * 5 * 7)  # seven rows of m = 5 powers
    passes = _counted_passes(monkeypatch)
    assert np.array_equal(_built(w, points), whole)
    assert passes == [7] * 9 + [5]
    assert np.array_equal(whole, [XProvider(w, 5)._build(x) for x in points])


@pytest.mark.parametrize("w", [32, 64])
def test_a_small_wide_batch_is_built_point_by_point(monkeypatch, w):
    # the byte-spread chain beats the numpy batch below WIDE_BATCH_MIN
    # points at w = 64, and below TOWER_POWERS_MIN powers at w = 32: 7
    # points of m = 5 take the chain there, 8 the tower
    points = _edge_points(w, random.Random(w), gfamily.WIDE_BATCH_MIN)
    whole = _built(w, points)
    passes = _counted_passes(monkeypatch)
    # nor through `_build`, the single-point miss of a scalar query
    monkeypatch.setattr(XProvider, "_build", lambda self, x: pytest.fail("scalar miss"))
    chain = {32: -(-gfamily.TOWER_POWERS_MIN // 5) - 1, 64: gfamily.WIDE_BATCH_MIN - 1}[w]
    small = points[:chain]
    assert np.array_equal(_built(w, small), whole[:len(small)])
    assert passes == []
    assert np.array_equal(_built(w, points[:chain + 1]), whole[:chain + 1])
    assert passes == [chain + 1]
    assert np.array_equal(_built(w, points), whole)
    assert passes == [chain + 1, len(points)]


@pytest.mark.parametrize("m, size, tower", [
    (11, 1, False), (11, 3, False), (11, 4, True), (11, 36, True), (11, 54, True),
    (11, 1024, True), (683, 1, True), (683, 4, True)])
def test_the_width_32_route_knows_m(monkeypatch, m, size, tower):
    # at w = 32 the chain costs about 2.5 us a power and the tower about
    # 80 us a batch: at m = 11 they meet near 3-4 points, and at m = 683 the
    # tower wins from one point.  A game over GF(2^32) at t = 64 (m = 11)
    # keeps its routes: a query miss on the chain, its batches of 36 and
    # more points, and a build's 1,024, on the tower
    prov = XProvider(32, m)
    points = random.Random(size).sample(range(1 << 32), size)
    passes = _counted_passes(monkeypatch)
    rows = prov._build_many(points, np.empty((size, prov.limbs), dtype="<u8"))
    assert passes == ([size] if tower else [])
    assert _ints(rows) == [gf2.packed_odd_powers(x, m, 32) | prov.const_bit for x in points]


@pytest.mark.parametrize("w", [4, 8, 16])
def test_a_refused_batch_leaves_the_cache_as_it_was(w):
    # the range check runs before any row is written, so a batch with a
    # point outside the field keeps no entry, and the next batch takes the
    # same free rows a fresh provider would have filled
    rng = random.Random(w)
    prov, fresh = XProvider(w, 5), XProvider(w, 5)
    warm = [rng.randrange(1 << w) for _ in range(5)]
    prov.get_many(warm)
    before, filled = prov._row_of.copy(), prov._filled
    for bad in (1 << w, -1):
        with pytest.raises(ValueError):
            prov.get_many([rng.randrange(1 << w) for _ in range(3)] + [bad])
        assert np.array_equal(prov._row_of, before) and prov._filled == filled
    points = warm + [rng.randrange(1 << w) for _ in range(7)]
    rows, index = prov.get_many(points)
    fresh_rows, fresh_index = fresh.get_many(points)
    assert np.array_equal(rows[index], fresh_rows[fresh_index])
    assert np.array_equal(prov._row_of, fresh._row_of) and prov._filled == fresh._filled


def test_chi2_sf_reference_points():
    # textbook upper-tail critical values for df=24
    assert chi2_sf(33.196, 24) == pytest.approx(0.10, abs=2e-3)
    assert chi2_sf(36.415, 24) == pytest.approx(0.05, abs=2e-3)
    assert chi2_sf(42.980, 24) == pytest.approx(0.01, abs=1e-3)
