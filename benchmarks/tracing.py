"""Per-layer tracing for the benchmark, applied from outside the program.

`Tracer.install` replaces public callables with timing wrappers at the name
each caller looks them up by (`shield.permute`, `cuckoo.g_sample`, ...);
`uninstall` puts the originals back.  Calls are aggregated in memory as a
count, total time and time spent in directly nested traced calls, so a
layer's self time is its total minus its children.  Game-level spans
(build / adversary / rest) are kept per game and written when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from types import SimpleNamespace

# (span name, filterlab module, attribute path in that module)
HOOKS = (
    ("core.build", "experiments", "build_filter"),
    ("core.adversary", "adversaries", "RandomProbeAttack.run"),
    ("core.adversary", "adversaries", "MutatePositivesAttack.run"),
    ("core.adversary", "adversaries", "SeedExposedAttack.run"),
    ("core.adversary", "adversaries", "ConsistencySearchAttack.run"),
    ("core.oracle_query", "core", "QueryOracle.query"),
    ("core.enumerator", "bloom", "BloomFilterRep.rep_space_enumerator"),
    ("core.enumerator", "shield", "ShieldedRep.rep_space_enumerator"),
    ("cuckoo.query", "cuckoo", "CuckooFilterRep.query"),
    ("cuckoo.build", "cuckoo", "build_cuckoo"),
    ("gfamily.g_sample", "cuckoo", "g_sample"),
    ("gfamily.fingerprint", "gfamily", "GFamily.fingerprint"),
    ("gfamily.x_get", "gfamily", "XProvider.get"),
    ("gfamily.x_miss", "gfamily", "XProvider._build"),
    ("bloom.query", "bloom", "BloomFilterRep.query"),
    ("bloom.build", "bloom", "build_bloom"),
    ("shield.query", "shield", "ShieldedRep.query"),
    ("permutation.permute", "shield", "permute"),
)

# name -> (unit, better); reported by every traced run, 0 where a layer does not run
PER_LAYER = {
    "core.build_ms": ("ms", "lower"),
    "core.adversary_ms": ("ms", "lower"),
    "core.oracle_queries": ("count", "lower"),
    "core.oracle_query_us": ("us", "lower"),
    "core.enumerator_ms": ("ms", "lower"),
    "cuckoo.query_us": ("us", "lower"),
    "cuckoo.bit_comparisons_per_query": ("count", "lower"),
    "cuckoo.build_self_ms": ("ms", "lower"),
    "gfamily.fingerprint_us": ("us", "lower"),
    "gfamily.xvector_miss_us": ("us", "lower"),
    "gfamily.xcache_hit_ratio": ("ratio", "higher"),
    "gfamily.xcache_entries": ("count", "lower"),
    "gfamily.xcache_mb": ("MB", "lower"),
    "gfamily.g_sample_ms": ("ms", "lower"),
    "bloom.query_us": ("us", "lower"),
    "bloom.build_ms": ("ms", "lower"),
    "adversaries.self_ms": ("ms", "lower"),
    "adversaries.candidates_scanned": ("count", "lower"),
    "adversaries.scan_ns_per_candidate": ("ns", "lower"),
    "permutation.permute_us": ("us", "lower"),
    "shield.permute_per_query": ("ratio", "lower"),
    "trace.games_per_s": ("1/s", "higher"),
    "trace.untraced_games_per_s": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _resolve(lab: SimpleNamespace, module: str, path: str):
    """(owner, attribute) for a hook, or None when the program lacks it."""
    owner = getattr(lab, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        return (owner, attr) if attr in vars(owner) else None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    def __init__(self, lab: SimpleNamespace):
        self.stats: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.calls_under: Counter[tuple[str, str]] = Counter()
        self.games: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches = []
        for name, module, path in HOOKS:
            site = _resolve(lab, module, path)
            if site is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr = site
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original, self._wrap(name, original)))

    def _wrap(self, name: str, fn):
        stats, stack, under = self.stats, self._stack, self.calls_under
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:  # delegation to the same layer
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                s = stats[name]
                s[0] += 1
                s[1] += dt
                s[2] += frame[1]
                if stack:
                    stack[-1][1] += dt
                    under[name, stack[-1][0]] += 1

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self) -> dict[str, list[int]]:
        """Hand over the aggregated stats and start afresh."""
        out = {k: list(v) for k, v in self.stats.items()}
        self.stats.clear()
        self.calls_under.clear()
        return out

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_ns(self, name: str) -> int:
        return self.stats[name][1] if name in self.stats else 0

    def self_ns(self, name: str) -> int:
        s = self.stats.get(name)
        return s[1] - s[2] if s else 0

    def record_game(self, game, before: tuple[int, int, int]) -> int:
        """Keep the game's span split; return its adversary self time (ns)."""
        build, adv, adv_self = before
        build = self.total_ns("core.build") - build
        adv = self.total_ns("core.adversary") - adv
        self.games.append({"config": game.config, "trial": game.trial,
                           "ms": game.ns / 1e6, "build_ms": build / 1e6,
                           "adversary_ms": adv / 1e6,
                           "rest_ms": (game.ns - build - adv) / 1e6})
        return self.self_ns("core.adversary") - adv_self

    def mark(self) -> tuple[int, int, int]:
        return (self.total_ns("core.build"), self.total_ns("core.adversary"),
                self.self_ns("core.adversary"))

    def per_call(self, name: str, scale: float) -> float:
        n = self.calls(name)
        return self.total_ns(name) / n / scale if n else 0.0
