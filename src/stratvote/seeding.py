"""Stable seed derivation for reproducible sampling."""

from __future__ import annotations

import numpy as np


def derive_seed(master: int, *parts) -> int:
    """Mix ``master`` with context parts into a stable 63-bit seed.

    Parts may be ints or strings.  Unlike ``hash()``, the result is identical
    across runs and platforms, so sampling keyed on (voter, round, ...) does
    not depend on scheduling or interpreter state.  ``hashlib``, and with
    it OpenSSL, loads on the first call: most commands derive no seed.
    """
    import hashlib

    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def make_rng(master: int, *parts) -> np.random.Generator:
    """A ``numpy`` generator seeded from :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(master, *parts))
