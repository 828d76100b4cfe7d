"""Monte-Carlo engine: substream independence, determinism, argument checks."""

import math

import numpy as np
import pytest

from muxkit import simkit
from muxkit._limits import LIMITS


def test_substreams_are_schedule_independent():
    # drawing trial 7 alone must match drawing trials 0..9 in order
    alone = simkit.substream(42, 7).random(5)
    in_order = [simkit.substream(42, t).random(5) for t in range(10)][7]
    assert np.array_equal(alone, in_order)
    # different trial indices and different seeds give different draws
    assert not np.array_equal(simkit.substream(42, 0).random(5), simkit.substream(42, 1).random(5))
    assert not np.array_equal(simkit.substream(42, 0).random(5), simkit.substream(43, 0).random(5))


def test_reduce_values_of_run_trials_matches_a_per_substream_oracle():
    values = np.array([float(simkit.substream(11, t).random() < 0.3) for t in range(500)])
    est = simkit.reduce_values(simkit.run_trials(lambda u: (u[:, 0] < 0.3).astype(np.float64), (1,), 0.3, 500, 11), 11)
    assert est == simkit.Estimate(values.mean(), values.std(ddof=1) / math.sqrt(500), 500, 11)
    assert abs(est.mean - 0.3) < 5 * est.stderr


def test_run_trials_bounds_one_trial():
    def ends(u):
        return u.reshape(len(u), -1)[:, [0, -1]]

    bound = LIMITS["trial-uniforms"][0]
    at_bound = simkit.run_trials(ends, (4, bound // 4), 0.5, 2, 7)
    assert np.array_equal(at_bound, [ends(simkit.substream(7, t).random((1, bound)))[0] for t in range(2)])

    def never(u):
        raise AssertionError("drew a trial over the bound")

    for shape in ((bound + 1,), (4, bound // 4 + 1), (10**9, 1), (4, 10**9)):
        with pytest.raises(ValueError, match="uniforms"):
            simkit.run_trials(never, shape, 0.5, 2, 7)


def test_trial_streams_equal_substreams():
    streams = simkit.TrialStreams(42)
    for n in (1, 5, 96, 256):
        for t in range(6):
            assert np.array_equal(streams.trial(t).random(n), simkit.substream(42, t).random(n))
    # a trial that leaves a partly used double buffer and a spare uint32
    # behind must not leak into the next one
    for t in range(6):
        gen = streams.trial(t)
        gen.random(3)
        gen.integers(0, 1000, size=1, dtype=np.uint32)
        for n in (1, 5, 96, 256):
            gen = streams.trial(t + 1)
            ref = simkit.substream(42, t + 1)
            assert np.array_equal(
                gen.integers(0, 1000, size=3, dtype=np.uint32), ref.integers(0, 1000, size=3, dtype=np.uint32)
            )
            assert np.array_equal(gen.random(n), ref.random(n))
            gen.random(n | 1)
    # seeds are reduced mod 2**64 exactly as substream does
    assert np.array_equal(simkit.TrialStreams(-3).trial(2).random(4), simkit.substream(-3, 2).random(4))
    # numpy integer and top-of-range trial indices key the same stream
    for t in (np.int64(7), np.uint64(2**64 - 1), 2**64 - 1):
        assert np.array_equal(simkit.TrialStreams(42).trial(t).random(4), simkit.substream(42, t).random(4))
    for t in (-1, np.int64(-1), 2**64):  # out of range for both, in either spelling
        with pytest.raises(OverflowError):
            simkit.substream(42, t)
        with pytest.raises(OverflowError):
            simkit.TrialStreams(42).trial(t)


@pytest.mark.parametrize("bad", [1.5, np.float64(1.0), True, np.True_, "1"])
def test_seeds_trial_indices_and_trial_counts_are_ints(bad):
    # substream(42, 1.5) and substream(42, True) drew trial 1, and a float trial count raised TypeError
    calls = {
        "seed": [
            lambda: simkit.substream(bad, 1),
            lambda: simkit.TrialStreams(bad),
            lambda: simkit.run_trials(np.copy, (2,), 0.5, 4, bad),
        ],
        "trial index": [lambda: simkit.substream(42, bad), lambda: simkit.TrialStreams(42).trial(bad)],
        "trials": [lambda: simkit.run_trials(np.copy, (2,), 0.5, bad, 1)],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                fn()
