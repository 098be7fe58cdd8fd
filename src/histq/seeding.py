"""Deterministic seed model: one root seed, named per-subsystem streams."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .historyspace import checked_int

PRNG_SCHEME = "pcg64-stream-v1"

STREAM_INDEX = {
    "samples": 0,
    "verify": 1,
    "search": 2,
    "bench": 3,
    "probe": 4,
}


def checked_seed(seed, what: str = "seed") -> int:
    """seed as an int by the integer rule of `checked_int`, and at least 0."""
    seed = checked_int(seed, what)
    if seed < 0:
        raise ValidationError(f"{what} must be >= 0, got {seed}")
    return seed


def seed_sequence(seed: int, stream: str, *key: int) -> np.random.SeedSequence:
    if stream not in STREAM_INDEX:
        raise KeyError(f"unknown stream {stream!r}; known: {sorted(STREAM_INDEX)}")
    return np.random.SeedSequence(int(seed), spawn_key=(STREAM_INDEX[stream], *key))


def generator(seed: int, stream: str, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, stream, *key)))


def stream_metadata(seed: int, stream: str) -> dict:
    return {"seed": int(seed), "stream": stream,
            "stream_index": STREAM_INDEX[stream], "prng": PRNG_SCHEME}
