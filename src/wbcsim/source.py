"""Measurement statistics of the four-qubit singlet resource state.

Measuring the singlet state in the computational basis yields one of six
four-bit outcomes. The first two bits belong to the sender S, the third to
receiver R0, and the fourth to receiver R1. An Event is the ordered list of
outcomes from m independent states, which is the only source of randomness
in a protocol run.

Monte-Carlo trial t of root seed s draws its Event from the Generator of
SeedSequence(entropy=s, spawn_key=(t,)). The block seeder here produces
those generators' PCG64 states for a range of trials with one vectorised
run of SeedSequence's hash, and maps uniform draws to outcome codes by
counting the cumulative-probability table entries at or below each draw,
as Generator.choice does.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable

import numpy as np

# Outcome codes 0..5, in fixed order. All lookup tables below index by code.
OUTCOMES: tuple[str, ...] = ("0011", "0101", "0110", "1001", "1010", "1100")
OUTCOME_CODE: dict[str, int] = {s: i for i, s in enumerate(OUTCOMES)}

# Squared amplitudes of the singlet state restricted to its support.
OUTCOME_PROBS: tuple[Fraction, ...] = (
    Fraction(1, 3),
    Fraction(1, 12),
    Fraction(1, 12),
    Fraction(1, 12),
    Fraction(1, 12),
    Fraction(1, 3),
)

S_PAIR: tuple[str, ...] = tuple(s[:2] for s in OUTCOMES)
R0_BIT: tuple[int, ...] = tuple(int(s[2]) for s in OUTCOMES)
R1_BIT: tuple[int, ...] = tuple(int(s[3]) for s in OUTCOMES)

# Coarse outcome class as seen by S: 0011 / mixed / 1100.
S_CLASS: tuple[int, ...] = (0, 1, 1, 1, 1, 2)

# Bitwise complement of each outcome, used by the x_S=0 <-> x_S=1 symmetry.
FLIP_CODE: tuple[int, ...] = tuple(OUTCOME_CODE[s.translate(str.maketrans("01", "10"))] for s in OUTCOMES)


def index_label(index: int) -> str:
    """Render a 1-based state index as a, b, ..., z, aa, ab, ... for dumps."""
    if index < 1:
        raise ValueError("indices are 1-based")
    label = ""
    n = index
    while n > 0:
        n, rem = divmod(n - 1, 26)
        label = chr(ord("a") + rem) + label
    return label


@dataclass(frozen=True)
class Event:
    """Ordered outcomes of m singlet-state measurements (1-based indices)."""

    codes: tuple[int, ...]

    def __post_init__(self):
        if len(self.codes) == 0:
            raise ValueError("an Event needs at least one outcome")
        if not all(type(c) is int and 0 <= c <= 5 for c in self.codes):
            raise ValueError("outcome codes must be ints in 0..5")

    @property
    def m(self) -> int:
        return len(self.codes)

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[str]) -> "Event":
        return cls(tuple(OUTCOME_CODE[s] for s in outcomes))

    def outcome(self, index: int) -> str:
        """Four-bit outcome string at a 1-based index."""
        return OUTCOMES[self.codes[index - 1]]

    def r0_bit(self, index: int) -> int:
        return R0_BIT[self.codes[index - 1]]

    def r1_bit(self, index: int) -> int:
        return R1_BIT[self.codes[index - 1]]

    def flipped(self) -> "Event":
        """The Event with every outcome bitwise complemented."""
        return Event(tuple(FLIP_CODE[c] for c in self.codes))

    def dump_csv(self, fh: IO[str]) -> None:
        """Write the per-index measurement table (index, S_bits, R0_bit, R1_bit)."""
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "S_bits", "R0_bit", "R1_bit"])
        for i, c in enumerate(self.codes, start=1):
            writer.writerow([index_label(i), S_PAIR[c], R0_BIT[c], R1_BIT[c]])


@dataclass(frozen=True)
class GlobalCountList:
    """Outcome frequencies (g1..g6) of an Event, in OUTCOMES order."""

    g: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.g) != 6 or any(x < 0 for x in self.g):
            raise ValueError("a global count list is six non-negative counts")

    @property
    def m(self) -> int:
        return sum(self.g)


@dataclass(frozen=True)
class LocalCountListS:
    """Event frequencies in the three classes one party can distinguish:
    (0011, mixed, 1100) for S, (0011, XX10, XX0X) for R0."""

    l1: int
    l2: int
    l3: int

    @property
    def m(self) -> int:
        return self.l1 + self.l2 + self.l3


LocalCountListR = LocalCountListS


def ideal_distribution() -> dict[str, Fraction]:
    """Exact outcome probabilities over all 16 four-bit strings."""
    dist = {format(i, "04b"): Fraction(0) for i in range(16)}
    for s, p in zip(OUTCOMES, OUTCOME_PROBS):
        dist[s] = p
    return dist


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Trial indices hashed at once, so memory stays flat however many trials run.
_HASH_TRIALS = 1 << 10


def _check_seed(value, name: str = "seed") -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")


def _words(n: int) -> list[int]:
    """The uint32 words of a non-negative int, least significant first, as
    SeedSequence splits it (0 is one word)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """Hash constants init * mult^j mod 2^32 for j = first .. first + count."""
    consts = np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in range(first, first + count + 1)], np.uint32)
    consts.flags.writeable = False
    return consts


def _hashmix(value: np.ndarray, init: int, mult: int, first: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix, as calls first .. first + count - 1 along the
    last axis, with value broadcast against it. Call j xors with the hash
    constant j, multiplies by constant j + 1 and xor-shifts."""
    consts = _hash_consts(init, mult, first, count)
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _trial_states(seed: int, lo: int, hi: int):
    """The PCG64 state of each trial lo..hi-1, the state that
    PCG64(SeedSequence(entropy=seed, spawn_key=(trial,))) starts in.

    The hash's entropy is the seed's words, zero-padded to the pool size,
    then the trial's words. The pool after the seed's words is the same for
    every trial: it is SeedSequence(seed).pool. Each trial word is then
    mixed into the four pool words; the hash constants do not depend on the
    data, so this runs as uint32 array arithmetic on many trials at once.
    The pool yields four uint64 words (generate_state), and PCG64 seeds its
    LCG from them as pcg64_set_seed does: inc = 2*initseq + 1 and
    state = (inc + initstate)*MULT + inc, on Python ints.
    """
    seed_pool = np.random.SeedSequence(seed).pool
    # hashmix calls so far: one per pool word, one per ordered pair of pool
    # words, and one per pool word for each seed word beyond the pool size
    calls = _POOL_SIZE**2 + _POOL_SIZE * max(0, len(_words(seed)) - _POOL_SIZE)
    start = lo
    while start < hi:
        # trials that differ only in their lowest word
        stop = min(hi, start + _HASH_TRIALS, (start | _MASK32) + 1)
        first = start & _MASK32
        trial_words = [np.arange(first, first + stop - start, dtype=np.uint32)] + _words(start)[1:]
        pool = seed_pool
        for j, word in enumerate(trial_words):
            hashed = _hashmix(np.array(word, np.uint32)[..., None], _INIT_A, _MULT_A, calls + _POOL_SIZE * j, _POOL_SIZE)
            # SeedSequence's mix of each pool word with the hashed trial word
            pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
            pool ^= pool >> 16
        words = _hashmix(np.concatenate((pool, pool), axis=-1), _INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)
        # read as four little-endian uint64 words
        for s_hi, s_lo, i_hi, i_lo in words.astype("<u4").view("<u8").tolist():
            inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
            yield {
                "bit_generator": "PCG64",
                "state": {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        start = stop


def _trial_draws(seed: int, lo: int, hi: int, out: np.ndarray):
    """Uniform draws of trials lo..hi-1, filled into `out` a block of rows
    at a time: each filled block `out[:n]` is yielded before the next
    overwrites it. Row r holds what Generator.random draws first from
    substream(seed, trial) for its trial; one PCG64 is set to each trial's
    state in turn."""
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    states = _trial_states(seed, lo, hi)
    for start in range(lo, hi, len(out)):
        block = out[: min(len(out), hi - start)]
        for row, state in zip(block, states):
            bitgen.state = state
            generator.random(out=row)
        yield block


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial RNG substream.

    Substream `index` of root `seed` is the Generator of
    SeedSequence(entropy=seed, spawn_key=(index,)), so trial results do not
    depend on how trials are split across workers. The Monte-Carlo trials
    start from the same states, which the block seeder computes.
    """
    _check_seed(seed)
    _check_seed(index, "index")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


_FLOAT_PROBS = np.array([float(p) for p in OUTCOME_PROBS])
# Generator.choice(6, p=_FLOAT_PROBS) maps each uniform draw to the first
# code whose normalised cumulative probability exceeds it; this is its table.
_CDF = np.cumsum(_FLOAT_PROBS)
_CDF /= _CDF[-1]


def _codes_of(draws: np.ndarray) -> np.ndarray:
    """Outcome codes of uniform draws from Generator.random, the codes that
    Generator.choice(6, p=_FLOAT_PROBS) gives for the same draws: the count
    of table entries at or below each draw (searchsorted, side="right").
    The last entry is 1.0, above every draw."""
    codes = np.zeros(draws.shape, np.int8)
    for edge in _CDF[:-1]:
        codes += draws >= edge
    return codes


def sample_event(m: int, rng: int | np.random.Generator) -> Event:
    """Draw an Event of m i.i.d. outcomes from the six-point distribution.

    `rng` is either a root seed (int) or an already-positioned Generator
    (e.g. from substream()).
    """
    if m < 1:
        raise ValueError("m must be a positive count")
    if not isinstance(rng, np.random.Generator):
        _check_seed(rng)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng))
    return Event(tuple(_codes_of(rng.random(m)).tolist()))


def global_counts(event: Event) -> GlobalCountList:
    counts = [0] * 6
    for c in event.codes:
        counts[c] += 1
    return GlobalCountList(tuple(counts))


def project_S(g: GlobalCountList) -> LocalCountListS:
    """(g1, g2+g3+g4+g5, g6): what S can distinguish."""
    return LocalCountListS(g.g[0], g.g[1] + g.g[2] + g.g[3] + g.g[4], g.g[5])
