"""Deterministic random-stream derivation.

Every stochastic component draws from its own counter-based Philox stream,
derived from the experiment master seed plus a structural key (a domain tag
and integer ids).  Streams are therefore independent by construction and
stable under unrelated changes: adding an edge never perturbs another edge's
path, and Monte-Carlo paths are individually replayable.
"""

from __future__ import annotations

import numpy as np

# Domain tags used as the first element of a spawn key.
TAG_EDGE = 1          # per-edge chain sampling: (TAG_EDGE, i, j)
TAG_PATH = 2          # per Monte-Carlo path: (TAG_PATH, path_id), shared by every grid beta
TAG_CT = 3            # one continuous-time simulation run seeded by an int: (TAG_CT,)
TAG_DRAW = 4          # random-matrix samplers
TAG_INSTANCE = 5      # random instance generation in experiments/tests


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))


def generator(master_seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the stream identified by (master_seed, *key)."""
    return np.random.Generator(np.random.Philox(seed_sequence(master_seed, *key)))


def stream(seed, *key) -> tuple[np.random.Generator, int]:
    """Generator and master seed of one run: an int seeds the stream
    (seed, *key); a Generator is used as given, and its master seed is read
    off its seed sequence."""
    if isinstance(seed, np.random.Generator):
        return seed, int(seed.bit_generator.seed_seq.entropy)
    return generator(int(seed), *key), int(seed)
