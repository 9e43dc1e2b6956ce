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
        if self.expose not in core.EXPOSURES:
            raise ParamError("expose", f"unknown exposure policy {self.expose!r}")
        if self.bloom_bits is not None and self.filter_kind != "baseline_bloom":
            raise ParamError("bloom_bits", "m sizes the baseline_bloom array; "
                             f"kind = {self.filter_kind} has none")
        bloom.array_bits(self.params, self.bloom_bits)  # raises on m < 1
        known = inspect.signature(ADVERSARIES[self.adversary_kind]).parameters
        for key, value in self.adversary_opts.items():
            bad = f"bad adversary options for {self.adversary_kind}: "
            if key not in known:
                raise ParamError(key, bad + f"unknown option {key!r}")
            # a value has its default's exact type, so a bool is no int
            kind = type(known[key].default)
            if type(value) is not kind:
                raise ParamError(key, bad + f"{key!r} must be {kind.__name__}, got {value!r}")
            if kind is int and value < 1:  # every int option is a count
                raise ParamError(key, bad + f"{key!r} must be >= 1, got {value!r}")
        if self.adversary_kind in ("random_probe", "mutate_positives"):  # not in the first game
            try:
                adversaries._check_room(self.params)
            except adversaries.SamplingError as e:
                raise ParamError("t", f"{self.adversary_kind} cannot play: {e}") from None
        if self.adversary_kind == "consistency_search":
            if self.expose == "none":
                raise ParamError("expose", "consistency_search needs expose = structure or full")
            # the filters with an enumerator (`Representation.rep_space_enumerator`);
            # a shield exposes its inner filter's
            if self.filter_kind not in ("baseline_bloom", "exact_set"):
                raise ParamError("filter_kind", f"consistency_search cannot enumerate "
                                 f"{self.filter_kind}: only exact_set and baseline_bloom "
                                 "have an enumerator")


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
    hits = sum(rep.query_many([adversaries.fresh_element(rng, u, S) for _ in range(samples)]))
    mean_cmp = None
    if isinstance(inner, cuckoo.CuckooFilterRep):  # fresh: these are its only queries
        mean_cmp = inner.mean_bit_comparisons
    return hits / samples, rep.bits, mean_cmp


def run_campaign(cfg: GameConfig, trials: int, master_seed: int,
                 parallel: int = 1, fp_samples: int = 10_000) -> CampaignResult:
    """Run the Monte-Carlo campaign for one config and aggregate."""
    if fp_samples < 1:
        raise ValueError("fp_samples must be >= 1")
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


# column -> its value in a campaign's record, in output order
_RESULT_FORMATS = {
    "filter": lambda r: r.cfg.filter_kind + ("+shield" if r.cfg.shielded else ""),
    "adversary": lambda r: r.cfg.adversary_kind,
    "n": lambda r: r.cfg.params.n,
    "eps": lambda r: repr(r.cfg.params.eps),
    "t": lambda r: r.cfg.params.t,
    "trials": lambda r: r.trials,
    "success_rate": lambda r: f"{r.success_rate:.6f}",
    "ci_half_width": lambda r: f"{r.ci_half_width:.6f}",
    "fp_rate_baseline": lambda r: f"{r.fp_rate_baseline:.6f}",
    "memory_bits": lambda r: r.memory_bits,
    "mean_bit_comparisons":
        lambda r: "" if r.mean_bit_comparisons is None else f"{r.mean_bit_comparisons:.4f}",
    "wall_time_ms": lambda r: r.wall_time_ms,
    "master_seed": lambda r: r.master_seed,
}
RESULT_COLUMNS = tuple(_RESULT_FORMATS)


def result_record(res: CampaignResult) -> dict:
    return {column: value(res) for column, value in _RESULT_FORMATS.items()}


def audit_memory(rep: Representation) -> dict:
    """Cross-check the bits formula against the serialized payload size."""
    data, bit_length = rep.serialize()
    return {
        "declared_bits": rep.bits,
        "serialized_bits": bit_length,
        "serialized_bytes": len(data),
        "match": bit_length == rep.bits,
    }
