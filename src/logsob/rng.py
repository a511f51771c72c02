"""Deterministic, partition-independent random number streams.

All Monte Carlo draws come from Philox counter-based generators.  Path
simulations consume standard normals in fixed blocks of ``BLOCK_PATHS``
paths: the draws for (block b, step k) form an independent substream
keyed by ``(seed, b, k)``, whose rows in order are the increments of the
block's paths.  A worker that owns block b at step k always sees the same
numbers, so results are bit-identical no matter how blocks are scheduled
across workers, and two runs with equal ``(seed, n_paths, n_steps)`` share
their Brownian increments exactly (the common random numbers used by the
finite-difference estimators).

A block may take a step's rows in several draws, one row tile at a time
and every step of a tile before the next tile: each draw resumes the
(seed, b, k) stream from a saved position, the Philox counter and buffer
words where the previous draw of that step stopped (:func:`stream_positions`,
72 B per step).  The numbers are those of one draw of all the rows, bit
for bit, since a standard normal takes whole 64-bit words from the stream
in order.

Samplers that are inherently sequential (inverse-CDF sampling, MALA) draw
from a single stream keyed by ``(seed, tag)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

BLOCK_PATHS = 1 << 16

# stream tags for sequential consumers; step indices of path streams are
# below 2**32, tags sit above so the key spaces cannot collide
TAG_SAMPLER = 1 << 33
TAG_MALA = 2 << 33


def _generator(seed: int, word: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(word)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def step_normals(seed: int, block: int, step: int, n: int, dim: int,
                 out: Optional[np.ndarray] = None,
                 position: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard normals for paths of one block at one time step, shape (n, dim).

    With ``out`` (a C-contiguous float64 array of that shape) the draws are
    written into it and it is returned: the same numbers as a fresh array,
    so a caller can reuse one buffer across steps.  With ``position``, a row
    of :func:`stream_positions`, the draws continue the stream from the
    position saved there, and the position after them is saved back:
    successive calls on one position give the successive rows of one draw."""
    if block >= 1 << 32 or step >= 1 << 32:
        raise ValueError("block/step index out of the 32-bit key range")
    gen = _generator(seed, (block << 32) | step)
    if position is None:
        return gen.standard_normal((n, dim), out=out)
    bits = gen.bit_generator
    state = bits.state
    state["state"]["counter"] = position[:4]
    state["buffer"], state["buffer_pos"] = position[4:8], int(position[8])
    bits.state = state
    draws = gen.standard_normal((n, dim), out=out)
    state = bits.state
    position[:4] = state["state"]["counter"]
    position[4:8] = state["buffer"]
    position[8] = state["buffer_pos"]
    return draws


def stream_positions(n_steps: int) -> np.ndarray:
    """Saved positions at the start of the streams of ``n_steps`` steps, one
    row of 9 words per step for :func:`step_normals`: the Philox counter
    (4 words), its buffer of unread output (4 words) and the buffer's read
    position (4 when the buffer is spent)."""
    positions = np.zeros((n_steps, 9), dtype=np.uint64)
    positions[:, 8] = 4
    return positions


def stream(seed: int, tag: int) -> np.random.Generator:
    """Sequential generator for a named purpose (inverse-CDF sampling, MALA)."""
    return _generator(seed, tag)


def block_ranges(n_paths: int):
    """Fixed partition of ``range(n_paths)`` into simulation blocks."""
    return [
        (b, lo, min(lo + BLOCK_PATHS, n_paths))
        for b, lo in enumerate(range(0, n_paths, BLOCK_PATHS))
    ]
