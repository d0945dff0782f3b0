"""Seedable deterministic randomness with labeled substreams.

Every stream is identified by a 64-bit master seed plus a label path.  The
generator state is seeded from SHA-256(seed || path), so a substream depends
only on the (master seed, label) pair, never on how much of the parent
stream was consumed.  This keeps trial results independent of evaluation
order and makes certificates byte-reproducible.

The bit source is CPython's Mersenne Twister, whose int-seeded stream is
stable across platforms and versions; bounded draws use rejection sampling
on ``getrandbits`` so no platform-dependent code path is involved.
"""

from __future__ import annotations

import hashlib
import random

from .errors import DomainError

ALGORITHM_ID = "mt19937-sha256sub-v1"

_SEED_LIMIT = 1 << 64
_DOMAIN = b"barthslice.rng.v1"


class SeededRng:
    """Deterministic random stream addressed by (master seed, label path)."""

    algorithm_id = ALGORITHM_ID

    def __init__(self, seed: int, *, _path: str = ""):
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _SEED_LIMIT:
            raise DomainError("seed must be an integer in [0, 2**64)")
        self.seed = seed
        self.path = _path
        digest = hashlib.sha256(
            _DOMAIN + seed.to_bytes(8, "big") + _path.encode("utf-8")
        ).digest()
        self._gen = random.Random(int.from_bytes(digest, "big"))

    def substream(self, label: str) -> "SeededRng":
        """Independent child stream; derived from the master seed and label only."""
        return SeededRng(self.seed, _path=f"{self.path}/{label}")

    def integers(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise DomainError("bound must be positive")
        if bound == 1:
            return 0
        k = (bound - 1).bit_length()
        while True:
            r = self._gen.getrandbits(k)
            if r < bound:
                return r

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n)."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integers(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, path={self.path!r})"
