"""Deterministic random-number helpers for the execution simulator.

Every stochastic quantity in the simulator (per-process work imbalance,
measurement jitter) is drawn from a generator seeded by a stable hash of the
workload name, the region name and the run configuration.  Two simulations of
the same workload therefore produce bit-identical performance data, which the
tests and the benchmark harness rely on.

The generator reproduces ``numpy.random.default_rng(seed)`` draw for draw
(SeedSequence seeding, the PCG64 bit generator of O'Neill 2014 and numpy's
256-level ziggurat normal sampler after Marsaglia & Tsang 2000), and
:func:`pairwise_sum`, :func:`mean` and :func:`std` reproduce numpy's
reductions bit for bit, so the simulated repositories are the ones the
numpy-based simulator produced, without importing numpy.  Draws and
reductions cost interpreted work per value, which suits the simulator's
vectors of one value per simulated process (at most 32 in every workload,
test and benchmark); numpy is cheaper from a few dozen processes on.
"""

from __future__ import annotations

import decimal
import functools
import hashlib
import math
from typing import List, Sequence

from repro.apprentice.ziggurat_tables import FI, KI, WI

__all__ = [
    "Generator",
    "stable_seed",
    "rng_for",
    "imbalanced_shares",
    "pairwise_sum",
    "mean",
    "std",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants (bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Start of the ziggurat's tail, and its reciprocal, as numpy rounds them.
_ZIGGURAT_R = 3.6541528853610088
_ZIGGURAT_INV_R = 0.27366123732975828
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def _seed_state(seed: int) -> List[int]:
    """The four 64-bit words ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Generator:
    """``numpy.random.default_rng(seed)``, reduced to the draws the simulator makes."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        s0, s1, s2, s3 = _seed_state(seed)
        self._inc = (((s2 << 64) | s3) << 1 | 1) & _MASK128
        self._state = ((self._inc + ((s0 << 64) | s1)) * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def random_raw(self, size: int) -> List[int]:
        """The next ``size`` raw 64-bit outputs of the PCG64 bit generator."""
        return [self._next64() for _ in range(size)]

    def _next_double(self) -> float:
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def _standard_normal(self) -> float:
        while True:
            # One PCG64 step (``_next64``), inlined on the hot path.
            state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
            value = ((state >> 64) ^ state) & _MASK64
            rot = state >> 122
            r = ((value >> rot) | (value << (64 - rot))) & _MASK64
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 0x1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                # The tail beyond r; 1 - u keeps log1p's argument above -1.
                while True:
                    xx = -_ZIGGURAT_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        return -(_ZIGGURAT_R + xx) if (rabs >> 8) & 0x1 else _ZIGGURAT_R + xx
            elif (FI[idx - 1] - FI[idx]) * self._next_double() + FI[idx] < math.exp(
                -0.5 * x * x
            ):
                return x

    def standard_normal(self, size: int) -> List[float]:
        """``size`` draws from the standard normal distribution."""
        draw = self._standard_normal
        return [draw() for _ in range(size)]

    def lognormal(self, mean: float, sigma: float, size: int) -> List[float]:
        """``size`` draws of ``exp(N(mean, sigma**2))``."""
        draw = self._standard_normal
        return [math.exp(mean + sigma * draw()) for _ in range(size)]


def stable_seed(*parts: object) -> int:
    """Derive a 64-bit seed from arbitrary hashable description parts.

    Uses BLAKE2 over the ``repr`` of the parts so the seed is stable across
    processes and Python versions (unlike the built-in ``hash``).
    """
    digest = hashlib.blake2b(
        "\x1f".join(repr(p) for p in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def rng_for(*parts: object) -> Generator:
    """Return a generator deterministically seeded from ``parts``."""
    return Generator(stable_seed(*parts))


def pairwise_sum(values: Sequence[float]) -> float:
    """``numpy.add.reduce`` of a float64 vector: numpy's pairwise summation."""
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], start: int, n: int) -> float:
    if n < 8:
        total = -0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)


def mean(values: Sequence[float]) -> float:
    """``numpy.mean`` of a float64 vector."""
    return pairwise_sum(values) / len(values)


def std(values: Sequence[float]) -> float:
    """``numpy.std`` (population, ``ddof=0``) of a float64 vector."""
    m = mean(values)
    return math.sqrt(pairwise_sum([(v - m) * (v - m) for v in values]) / len(values))


@functools.lru_cache(maxsize=256)
def _lognormal_sigma(imbalance: float) -> float:
    """``sqrt(log1p(imbalance**2))`` with the logarithm correctly rounded.

    ``math.log1p`` is not correctly rounded on every platform, so the
    logarithm is evaluated in decimal with 40 significant digits beyond the
    leading digit of ``imbalance**2`` and then rounded once.
    """
    a = decimal.Decimal(imbalance**2)
    context = decimal.Context(prec=40 + max(0, -a.adjusted()))
    return math.sqrt(float(context.add(a, 1).ln(context)))


def imbalanced_shares(rng: Generator, count: int, imbalance: float) -> List[float]:
    """Return ``count`` positive work-share factors with mean exactly 1.0.

    ``imbalance`` is the target coefficient of variation (stddev / mean) of the
    factors.  A value of 0 returns a vector of ones (perfect balance); 0.5
    means the per-process work varies by ±50 % around the mean in the typical
    case.  The draw uses a log-normal distribution (always positive) and is
    re-normalised so that the mean is exactly one, keeping the *total* work
    independent of the imbalance setting.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if imbalance < 0:
        raise ValueError(f"imbalance must be >= 0, got {imbalance}")
    if imbalance == 0 or count == 1:
        return [1.0] * count
    sigma = _lognormal_sigma(imbalance)
    factors = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=count)
    m = mean(factors)
    return [f / m for f in factors]
