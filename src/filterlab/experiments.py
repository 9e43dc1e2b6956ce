"""Campaign machinery: named filters and adversaries, Monte-Carlo runs,
memory audits, and the flat result records the CLI writes out.

Filters and adversaries are addressed by their names in the `FILTERS` and
`ADVERSARIES` registries, so that a campaign is fully described by a
picklable `GameConfig`.  Every win count goes through `count_wins`: trial i
of a campaign always runs on seed split_seed(master, i), which makes results
independent of execution order and of the worker count.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import Pool
from typing import Iterable

from . import adversaries, bloom, core, cuckoo, shield
from .core import FilterParams, GameTranscript, ParamError, Representation
from .hashing import split_seed

# name -> builder(cfg, S, params, seed); each builder looks its module's
# function up at call time, so a wrapper installed on it takes effect
FILTERS = {
    "baseline_bloom": lambda cfg, S, p, seed: bloom.build_bloom(S, p, seed, m=cfg.bloom_bits),
    "exact_set": lambda cfg, S, p, seed: core.build_exact_set(S, p, seed),
    "cuckoo_resilient": lambda cfg, S, p, seed: cuckoo.build_cuckoo(S, p, seed),
    "cuckoo_random_query":
        lambda cfg, S, p, seed: cuckoo.build_cuckoo_random_query(S, p, seed),
}

# name -> strategy class, constructed from `GameConfig.adversary_opts`
ADVERSARIES = {
    "random_probe": adversaries.RandomProbeAttack,
    "mutate_positives": adversaries.MutatePositivesAttack,
    "seed_exposed": adversaries.SeedExposedAttack,
    "consistency_search": adversaries.ConsistencySearchAttack,
}


@dataclass(frozen=True)
class GameConfig:
    """One (filter, adversary, parameter point) to be played repeatedly."""

    filter_kind: str
    adversary_kind: str
    params: FilterParams
    shielded: bool = False
    bloom_bits: int | None = None  # explicit m for the Bloom baseline
    expose: str = "none"
    adversary_opts: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.filter_kind not in FILTERS:
            raise ParamError("filter_kind", f"unknown filter kind {self.filter_kind!r}")
        if self.adversary_kind not in ADVERSARIES:
            raise ParamError("adversary_kind",
                             f"unknown adversary kind {self.adversary_kind!r}")
        if self.expose not in ("none", "structure", "full"):
            raise ParamError("expose", f"unknown exposure policy {self.expose!r}")
        known = inspect.signature(ADVERSARIES[self.adversary_kind]).parameters
        for key in self.adversary_opts:
            if key not in known:
                raise ParamError(key, f"bad adversary options for {self.adversary_kind}: "
                                      f"unknown option {key!r}")


def build_filter(cfg: GameConfig, S: Iterable[int], params: FilterParams,
                 rng_seed: int) -> Representation:
    inner = partial(FILTERS[cfg.filter_kind], cfg)
    if cfg.shielded:
        return shield.build_shield(inner, S, params, rng_seed)
    return inner(S, params, rng_seed)


def make_adversary(cfg: GameConfig) -> core.Strategy:
    return ADVERSARIES[cfg.adversary_kind](**cfg.adversary_opts)


def play_game(cfg: GameConfig, trial_seed: int,
              S: frozenset[int] | None = None) -> GameTranscript:
    return core.run_challenge(partial(build_filter, cfg), make_adversary(cfg), S,
                              cfg.params, trial_seed, expose=cfg.expose)


def _count_range(args: tuple[GameConfig, int, tuple[int, ...], int, int]) -> int:
    cfg, master_seed, stream, start, count = args
    return sum(1 for i in range(start, start + count)
               if play_game(cfg, split_seed(master_seed, *stream, i)).success)


def count_wins(cfg: GameConfig, trials: int, master_seed: int,
               stream: tuple[int, ...] = (), parallel: int = 1) -> int:
    """Games won over trials 0..trials-1 of one config.

    Trial i plays `play_game(cfg, split_seed(master_seed, *stream, i))`, so
    the count depends on neither the order of play nor the worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    if parallel == 1:
        return _count_range((cfg, master_seed, stream, 0, trials))
    chunk = max(1, trials // (parallel * 8))
    jobs = [(cfg, master_seed, stream, s, min(chunk, trials - s))
            for s in range(0, trials, chunk)]
    with Pool(parallel) as pool:
        return sum(pool.map(_count_range, jobs))


@dataclass
class CampaignResult:
    cfg: GameConfig
    trials: int
    wins: int
    success_rate: float
    ci_half_width: float
    fp_rate_baseline: float
    memory_bits: int
    mean_bit_comparisons: float | None
    wall_time_ms: int
    master_seed: int


def measure_fp_rate(cfg: GameConfig, master_seed: int,
                    samples: int = 10_000) -> tuple[float, int, float | None]:
    """Non-adaptive calibration on one build: FP rate on uniform non-members,
    the audited memory size, and mean compared bit-pairs where applicable."""
    rng = random.Random(split_seed(master_seed, 0, 1))
    S = core.sample_set(cfg.params, rng)
    rep = build_filter(cfg, S, cfg.params, split_seed(master_seed, 0, 2))
    u = cfg.params.universe
    inner = rep.unshielded  # a shield counts nothing itself
    before = getattr(inner, "bit_comparisons", 0)
    hits = sum(1 for _ in range(samples)
               if rep.query(adversaries.fresh_element(rng, u, S)))
    mean_cmp = None
    if isinstance(inner, cuckoo.CuckooFilterRep):
        mean_cmp = (inner.bit_comparisons - before) / samples
    return hits / samples, rep.bits, mean_cmp


def run_campaign(cfg: GameConfig, trials: int, master_seed: int,
                 parallel: int = 1, fp_samples: int = 10_000) -> CampaignResult:
    """Run the Monte-Carlo campaign for one config and aggregate."""
    t0 = time.perf_counter()
    wins = count_wins(cfg, trials, master_seed, parallel=parallel)
    rate = wins / trials
    fp_rate, mem_bits, mean_cmp = measure_fp_rate(cfg, master_seed, fp_samples)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    return CampaignResult(
        cfg=cfg, trials=trials, wins=wins, success_rate=rate,
        ci_half_width=core.normal_ci_half_width(rate, trials),
        fp_rate_baseline=fp_rate, memory_bits=mem_bits,
        mean_bit_comparisons=mean_cmp, wall_time_ms=wall_ms,
        master_seed=master_seed,
    )


RESULT_COLUMNS = (
    "filter", "adversary", "n", "eps", "t", "trials", "success_rate",
    "ci_half_width", "fp_rate_baseline", "memory_bits",
    "mean_bit_comparisons", "wall_time_ms", "master_seed",
)


def result_record(res: CampaignResult) -> dict:
    cfg = res.cfg
    name = cfg.filter_kind + ("+shield" if cfg.shielded else "")
    return {
        "filter": name,
        "adversary": cfg.adversary_kind,
        "n": cfg.params.n,
        "eps": repr(cfg.params.eps),
        "t": cfg.params.t,
        "trials": res.trials,
        "success_rate": f"{res.success_rate:.6f}",
        "ci_half_width": f"{res.ci_half_width:.6f}",
        "fp_rate_baseline": f"{res.fp_rate_baseline:.6f}",
        "memory_bits": res.memory_bits,
        "mean_bit_comparisons":
            "" if res.mean_bit_comparisons is None else f"{res.mean_bit_comparisons:.4f}",
        "wall_time_ms": res.wall_time_ms,
        "master_seed": res.master_seed,
    }


def audit_memory(rep: Representation) -> dict:
    """Cross-check the bits formula against the serialized payload size."""
    data, bit_length = rep.serialize()
    return {
        "declared_bits": rep.bits,
        "serialized_bits": bit_length,
        "serialized_bytes": len(data),
        "match": bit_length == rep.bits,
    }
