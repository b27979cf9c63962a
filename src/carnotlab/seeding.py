"""Deterministic random-stream derivation from one master seed.

Every stochastic routine in the package draws its generator through
`derive_rng(master, *path)`, where the path is a sequence of string labels
and small integers.  Labels are hashed with crc32 (stable across platforms
and processes, unlike the salted builtin hash), so one master seed plus a
documented path yields the same stream everywhere.  Sibling streams are
independent by SeedSequence's spawning guarantees.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key(part: str | int) -> int:
    if isinstance(part, int):
        if part < 0:
            raise ValueError("path integers must be nonnegative")
        return part
    return zlib.crc32(part.encode("utf-8"))


def seed_sequence(master: int, *path: str | int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=tuple(_key(p) for p in path))


def derive_rng(master: int, *path: str | int) -> np.random.Generator:
    """Generator for the stream named by `path` under `master`."""
    return np.random.default_rng(seed_sequence(master, *path))
