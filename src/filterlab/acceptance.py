"""Acceptance criteria: the executable exit gate for this artifact.

Each criterion is a self-contained experiment with its scale, tolerance,
and derived RNG seed pinned here.  The same engine backs both the pytest
acceptance module and the `filterlab selftest` CLI command; every result
carries the seed needed to replay it.

Criterion 6 (the memory-constant bound) is met by the dual-BCH hash
family: each one-bit function costs 1 + (k//2)*w seed bits, so at the
acceptance scale the family takes 24*(1 + 683*16) = 262,296 bits and the
filter 330,044 bits in all (C ~ 4.60 against 8).  The fingerprint tables
alone, 2*ceil(1.1n)*(1+ell+ceil(log2 ell)) = 66n bits, still exceed the
8*n*log2(1/eps) = 48n share of the allowance; the t-term 8*t*w absorbs the
difference.
"""

from __future__ import annotations

import inspect
import itertools
import random
import statistics
import time
from dataclasses import dataclass, field as dataclass_field

from . import gf2
from .adversaries import fresh_element, mu_estimate
from .bloom import build_bloom
from .core import FilterParams, minimal_error, sample_set
from .cuckoo import build_cuckoo
from .experiments import GameConfig, build_filter, count_wins
from .gfamily import GFamily, odd_powers
from .hashing import split_seed
from .permutation import PermKey, invert, permute

import numpy as np

DEFAULT_SEED = 20260808

# toy steady filter inverted by the consistency attack
TOY_PARAMS = FilterParams(n=4, eps=2 ** -4, t=51200, u_bits=10)
TOY_BLOOM_BITS = 16

# the resilient construction at its acceptance scale
PROD_PARAMS = FilterParams(n=1024, eps=2 ** -6, t=4096, u_bits=13)

# the random-query-model variant at its acceptance scale
VARIANT_PARAMS = FilterParams(n=256, eps=2 ** -4, t=4096, u_bits=13)


@dataclass
class CriterionResult:
    number: int
    title: str
    measured: str
    threshold: str
    passed: bool
    seed: int
    runtime_s: float = 0.0
    details: dict = dataclass_field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.number:2d} [{self.title}] "
                f"measured={self.measured} threshold={self.threshold} "
                f"seed={self.seed} ({self.runtime_s:.1f}s)")


def criterion_1(seed: int) -> CriterionResult:
    """Completeness: zero false negatives across all filter types."""
    params = FilterParams(n=16, eps=2 ** -3, t=64, u_bits=12)
    kinds = [
        ("exact_set", False),
        ("baseline_bloom", False),
        ("baseline_bloom", True),
        ("cuckoo_resilient", False),
        ("cuckoo_random_query", False),
    ]
    builds_per_kind = 200
    false_negatives = 0
    total_member_queries = 0
    for ki, (kind, shielded) in enumerate(kinds):
        cfg = GameConfig(kind, "random_probe", params, shielded=shielded)
        for b in range(builds_per_kind):
            rng = random.Random(split_seed(seed, ki, b))
            S = sample_set(params, rng)
            rep = build_filter(cfg, S, params, rng.getrandbits(63))
            work: list[tuple[bool, int]] = [(True, x) for x in S]
            work += [(False, fresh_element(rng, params.universe, S))
                     for _ in range(100)]
            rng.shuffle(work)
            work += [(True, x) for x in S]  # re-query after the churn
            for is_member, x in work:
                ans = rep.query(x)
                if is_member:
                    total_member_queries += 1
                    if not ans:
                        false_negatives += 1
    return CriterionResult(
        1, "completeness", measured=f"{false_negatives} false negatives",
        threshold="exactly 0", passed=false_negatives == 0, seed=seed,
        details={"member_queries": total_member_queries,
                 "builds": builds_per_kind * len(kinds)},
    )


def criterion_2(seed: int) -> CriterionResult:
    """Baseline calibration: measured Bloom FP rate within [eps/2, 2 eps]."""
    params = FilterParams(n=1000, eps=2 ** -6, t=0, u_bits=32)
    rng = random.Random(split_seed(seed, 0))
    S = sample_set(params, rng)
    rep = build_bloom(S, params, split_seed(seed, 1))
    samples = 100_000
    hits = sum(rep.query_many([fresh_element(rng, params.universe, S)
                               for _ in range(samples)]))
    rate = hits / samples
    lo, hi = params.eps / 2, 2 * params.eps
    return CriterionResult(
        2, "baseline bloom calibration", measured=f"fp_rate={rate:.5f}",
        threshold=f"[{lo:.5f}, {hi:.5f}]", passed=lo <= rate <= hi, seed=seed,
        details={"m": rep.m, "k_h": rep.k_h, "samples": samples},
    )


def criterion_3(seed: int, parallel: int = 1) -> CriterionResult:
    """Steady filters fall to consistency search at t = O(m/eps0)."""
    cfg = GameConfig(
        "baseline_bloom", "consistency_search", TOY_PARAMS,
        bloom_bits=TOY_BLOOM_BITS, expose="structure",
        adversary_opts={"c": 200, "strict": True},
    )
    games = 60
    wins = count_wins(cfg, games, seed, parallel=parallel)
    rate = wins / games
    return CriterionResult(
        3, "non-resilience of steady filters", measured=f"{wins}/{games}={rate:.3f}",
        threshold=">= 2/3", passed=rate >= 2 / 3, seed=seed,
        details={"games": games, "t_budget": TOY_PARAMS.t},
    )


def criterion_4(seed: int, parallel: int = 1) -> CriterionResult:
    """The shield collapses both attacks to the non-adaptive error rate and
    costs exactly lambda extra bits."""
    games = 1000

    # independent oracle for the toy filter's non-adaptive error: mean
    # exhaustive positive fraction over fresh unshielded builds
    mus = []
    for i in range(200):
        rng = random.Random(split_seed(seed, 9, i))
        S = sample_set(TOY_PARAMS, rng)
        mus.append(mu_estimate(build_bloom(S, TOY_PARAMS, rng.getrandbits(63),
                                           m=TOY_BLOOM_BITS)))
    toy_eps = statistics.fmean(mus)

    cfg_a = GameConfig(
        "baseline_bloom", "consistency_search", TOY_PARAMS, shielded=True,
        bloom_bits=TOY_BLOOM_BITS, expose="structure",
        adversary_opts={"c": 200, "strict": False},
    )
    rate_a = count_wins(cfg_a, games, seed, (0,), parallel) / games
    bound_a = toy_eps + 0.05

    prod = FilterParams(n=1000, eps=2 ** -6, t=1000, u_bits=32)
    cfg_b = GameConfig("baseline_bloom", "seed_exposed", prod, shielded=True,
                       expose="full")
    rate_b = count_wins(cfg_b, games, seed, (1,), parallel) / games
    bound_b = prod.eps + 0.05

    rng = random.Random(split_seed(seed, 2))
    S = sample_set(prod, rng)
    shielded = build_filter(cfg_b, S, prod, rng.getrandbits(63))
    overhead = shielded.bits - shielded.inner.bits

    passed = rate_a <= bound_a and rate_b <= bound_b and overhead == prod.lambda_bits
    return CriterionResult(
        4, "shield efficacy", passed=passed, seed=seed,
        measured=(f"consistency={rate_a:.4f} seed_exposed={rate_b:.4f} "
                  f"overhead={overhead}b"),
        threshold=(f"<= {bound_a:.4f} (toy eps {toy_eps:.4f} + 0.05), "
                   f"<= {bound_b:.4f}, == {prod.lambda_bits}b"),
        details={"games": games, "toy_eps": toy_eps},
    )


def criterion_5(seed: int, parallel: int = 1) -> CriterionResult:
    """The construction withstands its full adaptive budget."""
    games = 1000
    bound = PROD_PARAMS.eps + 0.02
    rates = {}
    for ai, adv in enumerate(("random_probe", "mutate_positives")):
        cfg = GameConfig("cuckoo_resilient", adv, PROD_PARAMS)
        rates[adv] = count_wins(cfg, games, seed, (ai,), parallel) / games
    worst = max(rates.values())
    return CriterionResult(
        5, "resilience of the construction", seed=seed,
        measured=" ".join(f"{a}={r:.4f}" for a, r in rates.items()),
        threshold=f"<= {bound:.4f} each", passed=worst <= bound,
        details={"games_per_adversary": games},
    )


def criterion_6(seed: int) -> CriterionResult:
    """Memory bound with constant C <= 8; the decomposition is in the module docstring."""
    rng = random.Random(split_seed(seed, 0))
    S = sample_set(PROD_PARAMS, rng)
    rep = build_cuckoo(S, PROD_PARAMS, rng.getrandbits(63))
    w = gf2.width_for(PROD_PARAMS.u_bits)
    term = PROD_PARAMS.n * PROD_PARAMS.log_inv_eps + PROD_PARAMS.t * w
    bound = 8 * term
    c_measured = rep.bits / term
    return CriterionResult(
        6, "memory bound", seed=seed,
        measured=f"{rep.bits} bits, C={c_measured:.3f}",
        threshold=f"<= {bound} bits (C <= 8; t-term carries field width w={w})",
        passed=rep.bits <= bound,
        details={"n_log_eps": PROD_PARAMS.n * PROD_PARAMS.log_inv_eps,
                 "t_times_w": PROD_PARAMS.t * w,
                 "g_bits": rep.gfam.rep_bits,
                 "table_bits": rep.bits - rep.gfam.rep_bits},
    )


C7_SAMPLES = 100_000


def criterion_7(seed: int) -> CriterionResult:
    """Bit-serial comparison telemetry: <= 4.5 compared pairs per negative query."""
    rng = random.Random(split_seed(seed, 0))
    S = sample_set(PROD_PARAMS, rng)
    rep = build_cuckoo(S, PROD_PARAMS, rng.getrandbits(63))
    samples = C7_SAMPLES
    rep.query_many([fresh_element(rng, PROD_PARAMS.universe, S) for _ in range(samples)])
    mean = rep.mean_bit_comparisons
    return CriterionResult(
        7, "comparison telemetry", measured=f"mean={mean:.4f}",
        threshold="<= 4.5", passed=mean <= 4.5, seed=seed,
        details={"samples": samples, "total_comparisons": rep.bit_comparisons},
    )


def _every_seed(k: int, w: int) -> GFamily:
    """A family over GF(2^w) whose functions are every seed (s0, s_1..s_m)."""
    m = odd_powers(k)
    seeds = np.arange(1 << (1 + m * w), dtype=np.uint64)
    coeffs = np.stack([(seeds >> np.uint64(1 + i * w)) & np.uint64((1 << w) - 1)
                       for i in range(m)], axis=1)
    return GFamily(ell=len(seeds), k=k, field_width=w,
                   s0=(seeds & np.uint64(1)).astype(np.uint8), coeffs=coeffs)


def criterion_8(seed: int) -> CriterionResult:
    """Exact k-wise independence of G, exhaustively at GF(2^4): every seed
    and every k-subset of the field, x = 0 included, for k = 3 with ell = 2
    functions and for k = 5 with ell = 1."""
    w = 4
    points = range(1 << w)
    worst_dev = 0
    cells = {}
    for k, ell in ((3, 2), (5, 1)):
        fam = _every_seed(k, w)
        fps = fam.fingerprints(list(points))
        bits = np.array([[(fp >> j) & 1 for fp in fps] for j in range(fam.ell)],
                        dtype=np.int64)  # bits[seed, x]
        seeds = fam.ell ** ell  # seeds of an ell-function family
        expected = seeds >> (k * ell)
        for subset in itertools.combinations(points, k):
            one = sum(bits[:, x] << i for i, x in enumerate(subset))
            joint = one
            for _ in range(1, ell):  # the ell functions' seeds range independently
                joint = np.add.outer(joint << k, one).ravel()
            counts = np.bincount(joint, minlength=1 << (k * ell))
            worst_dev = max(worst_dev, int(np.abs(counts - expected).max()))
        cells[f"k={k},ell={ell}"] = f"{seeds} seeds, {expected} per cell"
    return CriterionResult(
        8, "exact k-wise independence", measured=f"max deviation={worst_dev}",
        threshold="0 (every joint cell of every k-subset equally often, over every seed)",
        passed=worst_dev == 0, seed=seed,
        details=cells,
    )


def criterion_9(seed: int) -> CriterionResult:
    """Permutation bijectivity, exhaustive, including cycle-walking."""
    failures = 0
    rng = random.Random(split_seed(seed, 0))
    for domain in (1 << 8, 1 << 10, 1000):
        for _ in range(3):
            key = PermKey(rng.getrandbits(128), 128, domain)
            seen = bytearray(domain)
            for x in range(domain):
                y = permute(key, x)
                if not (0 <= y < domain) or invert(key, y) != x:
                    failures += 1
                seen[y] = 1
            if sum(seen) != domain:
                failures += 1
    return CriterionResult(
        9, "permutation bijectivity", measured=f"{failures} violations",
        threshold="0 over domains 256, 1024, 1000 (3 keys each)",
        passed=failures == 0, seed=seed,
    )


def criterion_10(seed: int, parallel: int = 1) -> CriterionResult:
    """Random-query model: the cheaper variant holds at t = n/eps."""
    games = 1000
    bound = VARIANT_PARAMS.eps + 0.02
    cfg = GameConfig("cuckoo_random_query", "random_probe", VARIANT_PARAMS)
    rate = count_wins(cfg, games, seed, parallel=parallel) / games
    return CriterionResult(
        10, "random-query variant", measured=f"{rate:.4f}",
        threshold=f"<= {bound:.4f}", passed=rate <= bound, seed=seed,
        details={"games": games, "t": VARIANT_PARAMS.t},
    )


def criterion_11(seed: int) -> CriterionResult:
    """Positive mass: builds with mu below eps0/8 are vanishingly rare."""
    builds = 1000
    eps0 = minimal_error(TOY_BLOOM_BITS, TOY_PARAMS.n)
    cutoff = eps0 / 8
    low = 0
    for i in range(builds):
        rng = random.Random(split_seed(seed, i))
        S = sample_set(TOY_PARAMS, rng)
        rep = build_bloom(S, TOY_PARAMS, rng.getrandbits(63), m=TOY_BLOOM_BITS)
        if mu_estimate(rep) < cutoff:
            low += 1
    frac = low / builds
    return CriterionResult(
        11, "positive-mass lower bound", measured=f"fraction below={frac:.4f}",
        threshold="<= 0.01", passed=frac <= 0.01, seed=seed,
        details={"builds": builds, "cutoff": cutoff},
    )


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_criterion(number: int, master_seed: int = DEFAULT_SEED,
                  parallel: int = 1) -> CriterionResult:
    """Run one criterion; `parallel` workers play the games of those that
    count wins (3, 4, 5, 10), and never change what they measure."""
    fn = CRITERIA[number]
    seed = split_seed(master_seed, 1000 + number)
    kwargs = {"parallel": parallel} if "parallel" in inspect.signature(fn).parameters else {}
    t0 = time.perf_counter()
    res = fn(seed, **kwargs)
    res.runtime_s = time.perf_counter() - t0
    return res
