"""The simulator's generator and reductions against numpy and mpmath.

:mod:`repro.apprentice.rng` reproduces ``numpy.random.default_rng`` and
numpy's pairwise reductions bit for bit without importing numpy.  These
tests hold it to numpy itself (raw PCG64 outputs, the ziggurat normal and
log-normal draws, ``sum``/``mean``/``std``) and hold the log-normal ``sigma``
to a 200-bit mpmath reference.  numpy and mpmath are test-only oracles: each
test is skipped where its oracle is not installed.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.apprentice.rng import (
    Generator,
    _lognormal_sigma,
    mean,
    pairwise_sum,
    stable_seed,
    std,
)


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


def _seeds():
    return [0, 1, 2**63 + 17, 2**64 - 1] + [
        stable_seed("oracle", i) for i in range(200)
    ]


class TestPcg64:
    def test_raw_outputs_equal_numpy(self, np):
        for seed in _seeds():
            n = 1000 if seed in (0, 1, 2**63 + 17, 2**64 - 1) else 20
            expected = [int(v) for v in np.random.PCG64(seed).random_raw(n)]
            assert Generator(seed).random_raw(n) == expected, seed

    def test_rejects_negative_seeds(self):
        with pytest.raises(ValueError):
            Generator(-1)


class TestZiggurat:
    def test_standard_normal_equals_numpy_including_the_tail(self, np):
        draws = Generator(stable_seed("ziggurat")).standard_normal(200_000)
        expected = np.random.default_rng(stable_seed("ziggurat")).standard_normal(
            200_000
        )
        assert draws == expected.tolist()
        # Draws beyond r = 3.654... come only from the tail branch.
        assert sum(abs(z) > 3.6541528853610088 for z in draws) > 0

    def test_lognormal_equals_numpy(self, np):
        for seed in _seeds()[:40]:
            for mu, sigma in ((-0.5 * 0.3**2, 0.3), (0.0, 1.0), (-2.0, 2.5)):
                expected = np.random.default_rng(seed).lognormal(mu, sigma, 33)
                assert Generator(seed).lognormal(mu, sigma, 33) == expected.tolist()

    def test_draw_sequences_interleave_like_numpy(self, np):
        ours, theirs = Generator(5), np.random.default_rng(5)
        for size in (1, 7, 32):
            assert ours.lognormal(-0.01, 0.1, size) == theirs.lognormal(
                -0.01, 0.1, size
            ).tolist()
            assert ours.standard_normal(size) == theirs.standard_normal(size).tolist()


class TestReductions:
    def test_sum_mean_and_std_equal_numpy(self, np):
        rng = random.Random(19)
        for n in list(range(1, 301)) + list(range(511, 1026)):
            values = [
                rng.lognormvariate(0.0, 3.0) * rng.choice((1.0, -1.0))
                for _ in range(n)
            ]
            array = np.array(values)
            assert pairwise_sum(values) == float(array.sum()), n
            assert mean(values) == float(array.mean()), n
            assert std(values) == float(array.std()), n

    def test_signed_zeros_sum_like_numpy(self, np):
        for values in ([-0.0], [-0.0] * 9, [0.0, -0.0], [-0.0] * 200):
            assert math.copysign(1.0, pairwise_sum(values)) == math.copysign(
                1.0, float(np.array(values).sum())
            )


class TestLognormalSigma:
    def test_sigma_is_the_correctly_rounded_log1p(self, mpmath):
        with mpmath.workprec(200):
            for i in range(3001):
                imbalance = i / 1000
                exact = float(mpmath.log1p(mpmath.mpf(imbalance**2)))
                assert _lognormal_sigma(imbalance) == math.sqrt(exact), imbalance
