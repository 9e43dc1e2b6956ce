"""Workloads of the filterlab benchmark and the checked game loop they share.

A workload alternates two `experiments.GameConfig`s game by game in one
closed loop: one client, one game at a time, no worker pool.  Config c's
j-th game is trial j of `experiments.run_campaign(cfg, ..., seed)`: it is
played by `experiments.play_game` on `split_seed(seed, j)`, so the benchmark
plays exactly the trials a user's campaign plays.  Warm-up games run on a
separate seed stream, `split_seed(seed, WARMUP_STREAM, j)`.

Every game is checked after its timed interval: the transcript is valid and
within budget, its success flag re-derives from the transcript and the set,
and every member answers True on the filter the game built.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WARMUP_STREAM = 0xB5E7

LAB_MODULES = ("adversaries", "bloom", "core", "cuckoo", "experiments",
               "gfamily", "hashing", "shield")


class MissingProgram(RuntimeError):
    """The checkout holds no filterlab sources to benchmark."""


def load_filterlab() -> SimpleNamespace:
    """Import filterlab from this checkout's `src/`, never from elsewhere."""
    pkg = SRC / "filterlab"
    if not (pkg / "__init__.py").is_file():
        raise MissingProgram(f"no filterlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    import filterlab

    if Path(filterlab.__file__).resolve().parent != pkg.resolve():
        raise MissingProgram(f"filterlab was imported from {filterlab.__file__}, not {pkg}")
    return SimpleNamespace(**{m: importlib.import_module(f"filterlab.{m}")
                              for m in LAB_MODULES})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[SimpleNamespace], tuple]
    warmup_pairs: int  # pairs of games played during set-up
    fixed_pairs: int   # pairs every run plays; deterministic outputs and RSS are read after them
    block_pairs: int   # pairs per throughput block; games_per_s is the median block rate


def _adaptive_u13(lab):
    p = lab.core.FilterParams(n=1024, eps=2 ** -6, t=4096, u_bits=13)
    cfg = lab.experiments.GameConfig
    return (cfg("cuckoo_resilient", "random_probe", p),
            cfg("cuckoo_resilient", "mutate_positives", p))


def _inversion_toy(lab):
    p = lab.core.FilterParams(n=4, eps=2 ** -4, t=51200, u_bits=10)
    cfg = lab.experiments.GameConfig
    return tuple(
        cfg("baseline_bloom", "consistency_search", p, shielded=shielded,
            bloom_bits=16, expose="structure",
            adversary_opts={"c": 200, "strict": not shielded})
        for shielded in (False, True))


def _wide_u32(lab):
    p = lab.core.FilterParams(n=1024, eps=2 ** -6, t=64, u_bits=32)
    cfg = lab.experiments.GameConfig
    return tuple(cfg("cuckoo_resilient", "mutate_positives", p, shielded=shielded)
                 for shielded in (False, True))


WORKLOADS = {w.name: w for w in (
    Workload("adaptive_u13",
             "resilient cuckoo at the acceptance point under random and adaptive "
             "probing; warm X-cache, query-bound",
             _adaptive_u13, warmup_pairs=2, fixed_pairs=16, block_pairs=2),
    Workload("inversion_toy",
             "toy Bloom filter inverted by consistency search, unshielded and "
             "shielded; candidate scan, no cuckoo code",
             _inversion_toy, warmup_pairs=4, fixed_pairs=48, block_pairs=8),
    Workload("wide_u32",
             "resilient cuckoo over GF(2^32) under adaptive probing, unshielded and "
             "shielded; every X-vector a cache miss, build-bound",
             _wide_u32, warmup_pairs=1, fixed_pairs=6, block_pairs=1),
)}


@dataclass
class Game:
    """One played game: its timing, transcript and what the checks found."""

    config: int
    trial: int
    ns: int = 0
    transcript: object = None
    rep: object = None
    candidates: int | None = None  # representations scanned by consistency search
    bit_comparisons: int = 0
    cuckoo_queries: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class GameLoop:
    """Plays and checks the games of one workload at one seed.

    Capture hooks around `experiments.build_filter` and
    `experiments.make_adversary` hand each game's filter and adversary to
    the checks; they add one call per game and change no result.
    """

    def __init__(self, lab: SimpleNamespace, workload: Workload, seed: int):
        self.lab = lab
        self.workload = workload
        self.seed = seed
        self.configs = workload.configs(lab)
        self._rep = self._adv = None
        exp = lab.experiments
        self._originals = (exp.build_filter, exp.make_adversary)
        build_filter, make_adversary = self._originals

        def capture_filter(*args, **kwargs):
            self._rep = build_filter(*args, **kwargs)
            return self._rep

        def capture_adversary(*args, **kwargs):
            self._adv = make_adversary(*args, **kwargs)
            return self._adv

        exp.build_filter, exp.make_adversary = capture_filter, capture_adversary

    def close(self) -> None:
        exp = self.lab.experiments
        exp.build_filter, exp.make_adversary = self._originals

    def warm_up(self) -> None:
        split_seed = self.lab.hashing.split_seed
        for j in range(self.workload.warmup_pairs):
            for cfg in self.configs:
                self.lab.experiments.play_game(cfg, split_seed(self.seed, WARMUP_STREAM, j))

    def play(self, c: int, j: int) -> Game:
        """Play config c's j-th game; only `play_game` itself is timed."""
        game = Game(c, j)
        cfg = self.configs[c]
        self._rep = self._adv = None
        trial_seed = self.lab.hashing.split_seed(self.seed, j)
        t0 = time.perf_counter_ns()
        try:
            game.transcript = self.lab.experiments.play_game(cfg, trial_seed)
        except Exception as exc:  # a failed game is counted, the loop goes on
            game.ns = time.perf_counter_ns() - t0
            game.problems.append(f"raised {type(exc).__name__}: {exc}")
            return game
        game.ns = time.perf_counter_ns() - t0
        game.rep = self._rep
        inner = getattr(self._rep, "inner", self._rep)
        game.bit_comparisons = getattr(inner, "bit_comparisons", 0)
        game.cuckoo_queries = getattr(inner, "query_count", 0)
        if hasattr(self._adv, "last_consistent_rep"):
            rid = self._adv.last_consistent_rep
            game.candidates = (1 << cfg.bloom_bits) if rid is None else rid + 1
        return game

    def check(self, game: Game, audit: bool = False) -> None:
        """Check a played game's outputs; problems mark the game failed."""
        tr = game.transcript
        if tr is None:
            return
        params = self.configs[game.config].params
        if not tr.valid:
            game.problems.append("transcript not valid")
        if len(tr.queries) > params.t:
            game.problems.append(f"{len(tr.queries)} queries exceed t={params.t}")
        S = self.lab.core.sample_set(params, random.Random(tr.seed_record["set"]))
        if tr.recompute_success(S) != tr.success:
            game.problems.append("success flag does not re-derive from the transcript")
        rep = game.rep
        if rep is None:
            game.problems.append("no filter was built")
        else:
            if not all(rep.query(x) for x in S):
                game.problems.append("a member of S answered False")
            if audit and not self.lab.experiments.audit_memory(rep)["match"]:
                game.problems.append("declared bits differ from the serialized payload")
        game.rep = None


class Outcomes:
    """Deterministic outputs of a run of games: equal at equal seeds."""

    def __init__(self) -> None:
        self.wins = [0, 0]
        self.oracle_queries = 0
        self.bit_comparisons = 0
        self.candidates_scanned = 0
        self._digest = hashlib.sha256()

    def add(self, game: Game) -> None:
        tr = game.transcript
        if tr is None:
            self._digest.update(f"{game.config} {game.trial} raised\n".encode())
            return
        self.wins[game.config] += bool(tr.success)
        self.oracle_queries += len(tr.queries)
        self.bit_comparisons += game.bit_comparisons
        self.candidates_scanned += game.candidates or 0
        self._digest.update(
            f"{game.config} {game.trial} {tr.challenge} {int(tr.success)} "
            f"{len(tr.queries)}\n".encode())

    def as_dict(self, xcache_entries: int | None) -> dict:
        return {"wins": list(self.wins), "oracle_queries": self.oracle_queries,
                "bit_comparisons": self.bit_comparisons,
                "candidates_scanned": self.candidates_scanned,
                "xcache_entries": xcache_entries,
                "digest": self._digest.hexdigest()}


def xcache_size(lab: SimpleNamespace) -> tuple[int, float] | None:
    """Entries and megabytes held by the shared X-vector caches, if visible."""
    providers = getattr(lab.gfamily, "_PROVIDERS", None)
    if providers is None:
        return None
    entries, nbytes = 0, 0
    for prov in providers.values():
        cache = getattr(prov, "_cache", None)
        if cache is None:
            return None
        entries += len(cache)
        nbytes += sys.getsizeof(cache) + sum(
            sys.getsizeof(k) + sys.getsizeof(v) for k, v in cache.items())
    return entries, nbytes / 2 ** 20
