"""filterlab: approximate set-membership filters under adaptive adversaries.

A library and experiment harness around three constructions and the game
that separates them: a classic Bloom baseline, a keyed-permutation shield
that makes any filter resilient to adaptive querying, and a cuckoo-placed
fingerprint filter with bit-serial cyclic comparison that withstands a full
adaptive query budget against computationally unbounded adversaries.
"""

from .adversaries import (
    ConsistencySearchAttack,
    MutatePositivesAttack,
    RandomProbeAttack,
    SeedExposedAttack,
    err_estimate,
    mu_estimate,
)
from .bloom import BloomFilterRep, build_bloom, standard_bloom_bits
from .core import (
    FilterParams,
    GameTranscript,
    Representation,
    build_exact_set,
    minimal_error,
    run_challenge,
    sample_set,
)
from .cuckoo import CuckooFilterRep, build_cuckoo, build_cuckoo_random_query
from .experiments import GameConfig, audit_memory, count_wins, play_game, run_campaign
from .gfamily import GFamily, g_sample
from .hashing import split_seed
from .permutation import PermKey, invert, permute
from .shield import ShieldedRep, build_shield

__version__ = "0.1.0"

__all__ = [
    "BloomFilterRep", "ConsistencySearchAttack", "CuckooFilterRep",
    "FilterParams", "GFamily", "GameConfig", "GameTranscript",
    "MutatePositivesAttack", "PermKey", "RandomProbeAttack",
    "Representation", "SeedExposedAttack", "ShieldedRep", "audit_memory",
    "build_bloom", "build_cuckoo", "build_cuckoo_random_query",
    "build_exact_set", "build_shield", "count_wins", "err_estimate",
    "g_sample", "invert", "minimal_error", "mu_estimate", "permute",
    "play_game", "run_campaign", "run_challenge", "sample_set", "split_seed",
    "standard_bloom_bits",
]
