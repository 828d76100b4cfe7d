"""Seeded Monte-Carlo engine with splittable, schedule-independent substreams.

Every trial draws from its own counter-based Philox stream keyed by
(seed, trial_index), so results do not depend on execution order and any
subset of trials can be reproduced in isolation.  A Monte-Carlo call keeps
one generator for all of its trials and resets its key per trial, which
draws the same numbers as a fresh substream without building one.

The simulators run in three steps through ``run_trials``: draw a block of
trials, row i of a block starting at trial ``start`` being the uniforms of
``substream(seed, start + i)``; run one kernel over the block;
reduce the per-trial values with ``reduce_values``.  A block holds at most
``_BLOCK_BYTES`` (1 MiB) of doubles, or a single trial when one trial is
larger, so memory stays flat however many trials run.  One trial may draw
at most the ``trial-uniforms`` bound of ``muxkit._limits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._limits import check_probability, check_size

__all__ = ["Estimate", "substream", "TrialStreams", "run_trials", "estimate", "reduce_values"]

_BLOCK_BYTES = 1 << 20  # cap on one block of uniforms


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate with its standard error and provenance."""

    mean: float
    stderr: float
    trials: int
    seed: int

    def within(self, expected: float, sigmas: float = 3.0, floor: float = 0.0) -> bool:
        """True iff expected lies within sigmas standard errors of the mean."""
        return abs(self.mean - expected) <= sigmas * self.stderr + floor


def substream(seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial, keyed by (seed, trial_index), 0 <= trial_index < 2**64."""
    # through int, so a negative numpy index raises as the Python int does instead of wrapping
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(int(trial_index))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TrialStreams:
    """The substreams of one seed, served by a single reused generator.

    ``trial(t)`` resets the Philox key to (seed, t), the counter to zero and
    the output buffers to empty, so its draws equal ``substream(seed, t)`` bit
    for bit.  The generator it returns is valid until the next ``trial`` call.
    """

    def __init__(self, seed: int):
        self._key = [seed & 0xFFFFFFFFFFFFFFFF, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(key=np.array(self._key, dtype=np.uint64))
        self._generator = np.random.Generator(self._bit_generator)

    def trial(self, trial_index: int) -> np.random.Generator:
        """The generator, reset to the start of substream(seed, trial_index), 0 <= trial_index < 2**64."""
        self._key[1] = trial_index  # the state setter converts the key to uint64 and range-checks it
        self._bit_generator.state = self._state
        return self._generator


def run_trials(
    kernel: Callable[[np.ndarray], np.ndarray], shape: tuple[int, ...], p: float, trials: int, seed: int
) -> np.ndarray:
    """Per-trial kernel outputs over ``trials`` substreams of ``seed``, stacked on axis 0.

    Draws trials block by block: a ``(chunk, *shape)`` float64 block whose
    row i holds the uniforms of ``substream(seed, start + i)``, then hands
    the block to ``kernel``, which returns one row of output per trial.
    ``chunk`` keeps a block within ``_BLOCK_BYTES``, or at one trial when
    a single trial is larger.  Checks the arguments every simulator
    shares: p in [0, 1], at least two trials, and at most the
    ``trial-uniforms`` bound of uniforms in one trial.
    """
    check_probability(p)
    if trials < 2:
        raise ValueError("trials must be >= 2")
    size = math.prod(shape)
    check_size("trial-uniforms", size)
    chunk = min(trials, max(1, _BLOCK_BYTES // (8 * max(1, size))))
    block = np.empty((chunk, *shape), dtype=np.float64)
    streams = TrialStreams(seed)
    out = []
    for start in range(0, trials, chunk):
        rows = block[: min(chunk, trials - start)]
        for i, row in enumerate(rows):
            streams.trial(start + i).random(out=row)
        out.append(kernel(rows))
    return np.concatenate(out)


def estimate(fn: Callable[[np.random.Generator], float], trials: int, seed: int) -> Estimate:
    """Run fn once per trial on its own substream and reduce deterministically.

    Args:
        fn: trial function mapping a per-trial Generator to a real value.
        trials: number of independent trials (>= 2, for a defined stderr).
        seed: master seed; trial t uses substream(seed, t).

    Returns:
        Estimate with mean, stderr (sample std / sqrt(trials); ddof=1) and provenance.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    values = [float(fn(substream(seed, t))) for t in range(trials)]
    mean = math.fsum(values) / trials
    var = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
    stderr = math.sqrt(var / trials)
    return Estimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


def reduce_values(values: np.ndarray, seed: int) -> Estimate:
    """Estimate from per-trial values: numpy mean and sample std (ddof=1) / sqrt(n).

    The Monte-Carlo drivers share this reduction; ``estimate`` keeps its
    compensated sums.  Needs at least two values for a defined stderr.
    """
    trials = len(values)
    return Estimate(
        mean=float(np.mean(values)),
        stderr=float(np.std(values, ddof=1)) / math.sqrt(trials),
        trials=trials,
        seed=seed,
    )
