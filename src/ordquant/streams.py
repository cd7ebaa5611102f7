"""Deterministic derivation of random substreams from one 64-bit seed.

Every run consumes randomness from a single user-visible seed.  Independent
generators for chains, replications, and dataset generation are derived with
``numpy.random.SeedSequence`` spawn keys so results do not depend on
scheduling order:

========================================  =========================================
consumer                                  derivation
========================================  =========================================
chain ``c`` of a fit                      ``substream(seed, STREAM_CHAIN, c)``
chunks 1..k-1 of a chunked pass           ``g.spawn(k - 1)`` of chain ``c``'s ``g``
standalone simulated dataset              ``substream(seed, STREAM_DATASET, 0)``
replication ``r``: dataset                ``substream(seed, STREAM_REPLICATION, r, 0)``
replication ``r``: fit seed, quantile q   ``child_seed(seed, STREAM_REPLICATION, r, 1 + q)``
========================================  =========================================

A replication's fit seed is itself a 64-bit seed, so any single replication
fit can be reproduced standalone with the ``fit`` machinery.

A chain of more than 65,536 observations draws its per-observation passes
over k observation chunks (``model.per_observation``): chunk 0 from the
chain's generator ``g``, chunk j from the j-th child of ``g.spawn(k - 1)``,
called at each pass that draws.  The children's spawn keys extend the
chain's, ``(STREAM_CHAIN, c, m)`` for the m-th child ``g`` has spawned, so
they are distinct from every other stream and depend only on the order of
the passes.
"""

from __future__ import annotations

import numpy as np

STREAM_CHAIN = 0
STREAM_REPLICATION = 1
STREAM_DATASET = 2

_U64 = 0xFFFF_FFFF_FFFF_FFFF


def _entropy(seed: int) -> int:
    return int(seed) & _U64


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by ``path`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def child_seed(seed: int, *path: int) -> int:
    """A derived 64-bit seed, usable wherever a top-level seed is."""
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=tuple(int(p) for p in path))
    lo, hi = ss.generate_state(2, dtype=np.uint32)
    return (int(hi) << 32) | int(lo)


def fresh_seed() -> int:
    """A new 64-bit seed from OS entropy (for runs without --seed)."""
    return int(np.random.SeedSequence().entropy) & _U64
