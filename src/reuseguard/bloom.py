"""Bloom-filter index computation and sizing arithmetic.

No bit array is ever materialized here: the query protocol only needs the
set of indices an item hashes to.  The k hash functions are derived from
one transmitted seed by domain separation, h_i(x) = SHAKE-128(seed || i ||
x) mod l, so both protocol sides compute identical indices from the seed
alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable

DEFAULT_NUM_HASHES = 20
SEED_BYTES = 16
_HASH_RANGE_BYTES = 16


@dataclass(frozen=True)
class BloomParams:
    length_ell: int
    num_hashes_k: int
    hash_family_seed: bytes

    def __post_init__(self):
        if self.num_hashes_k < 1:
            raise ValueError("need at least one hash function")
        if self.length_ell < self.num_hashes_k:
            raise ValueError("filter shorter than the number of hashes")


def indices(params: BloomParams, item: bytes) -> FrozenSet[int]:
    """The index set {h_i(item)} for i in [k]; at most k indices."""
    out = set()
    seed = params.hash_family_seed
    ell = params.length_ell
    for i in range(params.num_hashes_k):
        digest = hashlib.shake_128(
            seed + i.to_bytes(4, "big") + item
        ).digest(_HASH_RANGE_BYTES)
        out.add(int.from_bytes(digest, "big") % ell)
    return frozenset(out)


def index_union(params: BloomParams, items: Iterable[bytes]) -> FrozenSet[int]:
    out: set = set()
    for item in items:
        out |= indices(params, item)
    return frozenset(out)


def length_for(n: int, k: int) -> int:
    """Filter length giving n items their optimal load under k hashes."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return math.ceil(k * n / math.log(2))


def fpr_estimate(ell: int, k: int, n: int) -> float:
    """Expected false positive rate (1 - e^{-kn/l})^k."""
    return (1.0 - math.exp(-k * n / ell)) ** k


def capacity(ell: int, k: int) -> int:
    """Largest item count a filter of length ell supports at k hashes."""
    return math.floor(ell * math.log(2) / k)
