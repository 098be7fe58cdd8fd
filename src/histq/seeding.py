"""Deterministic seed model: one root seed, named per-subsystem streams."""

from __future__ import annotations

import numpy as np

PRNG_SCHEME = "pcg64-stream-v1"

STREAM_INDEX = {
    "samples": 0,
    "verify": 1,
    "search": 2,
    "bench": 3,
    "probe": 4,
}


def seed_sequence(seed: int, stream: str, *key: int) -> np.random.SeedSequence:
    if stream not in STREAM_INDEX:
        raise KeyError(f"unknown stream {stream!r}; known: {sorted(STREAM_INDEX)}")
    return np.random.SeedSequence(int(seed), spawn_key=(STREAM_INDEX[stream], *key))


def generator(seed: int, stream: str, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, stream, *key)))


def stream_metadata(seed: int, stream: str) -> dict:
    return {"seed": int(seed), "stream": stream,
            "stream_index": STREAM_INDEX[stream], "prng": PRNG_SCHEME}
