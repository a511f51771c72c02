"""Deterministic, partition-independent random number streams.

All Monte Carlo draws come from Philox counter-based generators, each
keyed by a seed and one 64-bit word (:func:`stream`).  Path simulations
consume standard normals in fixed blocks of ``BLOCK_PATHS`` paths: the
draws for (block b, step k) form an independent substream keyed by
``(seed, b << 32 | k)``, whose rows in order are the increments of the
block's paths.  A worker that owns block b at step k always sees the same
numbers, so results are bit-identical no matter how blocks are scheduled
across workers, and two runs with equal ``(seed, n_paths, n_steps)`` share
their Brownian increments exactly (the common random numbers used by the
finite-difference estimators).  ``SdeConfig`` admits only configs whose
block and step indices fit in their 32 bits.

A block takes a step's rows one row tile at a time, every step of a tile
before the next tile: each draw (:func:`step_normals`) resumes the
(seed, b, k) stream from a saved position, the Philox counter and buffer
words where the previous draw of that step stopped (:func:`stream_positions`,
72 B per step).  The numbers are those of one draw of all the rows, bit
for bit, since a standard normal takes whole 64-bit words from the stream
in order.

Samplers that are inherently sequential (inverse-CDF sampling, MALA) draw
from a single stream keyed by ``(seed, tag)``.
"""

from __future__ import annotations

import numpy as np

BLOCK_PATHS = 1 << 16

# stream tags for sequential consumers: the low word of each, the step half
# of a path stream's key, is 2**32 - 1, a step index that no path stream
# reaches (SdeConfig admits n_steps < 2**32), so the key spaces cannot collide
TAG_SAMPLER = (1 << 32) - 1
TAG_MALA = (2 << 32) - 1


def stream(seed: int, word: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, word): a sequential stream for a
    named purpose (inverse-CDF sampling, MALA) when ``word`` is its tag."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(word)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def step_normals(seed: int, block: int, step: int, out: np.ndarray,
                 position: np.ndarray) -> np.ndarray:
    """The next standard normals of the (seed, block, step) stream, written
    into ``out`` (a C-contiguous float64 array of shape (rows, d)), which is
    returned.  The draw resumes the stream from ``position``, a row of
    :func:`stream_positions`, and saves the position after it back there:
    successive calls on one position give the successive rows of one draw."""
    gen = stream(seed, (block << 32) | step)
    bits = gen.bit_generator
    state = bits.state
    state["state"]["counter"] = position[:4]
    state["buffer"], state["buffer_pos"] = position[4:8], int(position[8])
    bits.state = state
    gen.standard_normal(out.shape, out=out)
    state = bits.state
    position[:4] = state["state"]["counter"]
    position[4:8] = state["buffer"]
    position[8] = state["buffer_pos"]
    return out


def stream_positions(n_steps: int) -> np.ndarray:
    """Saved positions at the start of the streams of ``n_steps`` steps, one
    row of 9 words per step for :func:`step_normals`: the Philox counter
    (4 words), its buffer of unread output (4 words) and the buffer's read
    position (4 when the buffer is spent)."""
    positions = np.zeros((n_steps, 9), dtype=np.uint64)
    positions[:, 8] = 4
    return positions


def block_ranges(n_paths: int):
    """Fixed partition of ``range(n_paths)`` into simulation blocks."""
    return [
        (b, lo, min(lo + BLOCK_PATHS, n_paths))
        for b, lo in enumerate(range(0, n_paths, BLOCK_PATHS))
    ]
