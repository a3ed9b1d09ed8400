"""Measurement statistics of the four-qubit singlet resource state.

Measuring the singlet state in the computational basis yields one of six
four-bit outcomes. The first two bits belong to the sender S, the third to
receiver R0, and the fourth to receiver R1. An Event is the ordered list of
outcomes from m independent states, which is the only source of randomness
in a protocol run.
"""

from __future__ import annotations

import csv
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
# Coarse outcome class as seen by R0: 0011 / XX10 / XX0X.
R_CLASS: tuple[int, ...] = (0, 2, 1, 2, 1, 2)

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
        if any(c < 0 or c > 5 for c in self.codes):
            raise ValueError("outcome codes must be in 0..5")

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


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial RNG substream.

    Substream `index` of root `seed` is SeedSequence(entropy=seed,
    spawn_key=(index,)), so trial results do not depend on how trials are
    split across workers.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


_FLOAT_PROBS = np.array([float(p) for p in OUTCOME_PROBS])
# Generator.choice(6, p=_FLOAT_PROBS) maps each uniform draw to the first
# code whose normalised cumulative probability exceeds it; this is its table.
_CDF = np.cumsum(_FLOAT_PROBS)
_CDF /= _CDF[-1]


def _codes_of(draws: np.ndarray) -> np.ndarray:
    """Outcome codes of uniform draws from Generator.random, the codes that
    Generator.choice(6, p=_FLOAT_PROBS) gives for the same draws."""
    return _CDF.searchsorted(draws, side="right").astype(np.int8)


def sample_event(m: int, rng: int | np.random.Generator) -> Event:
    """Draw an Event of m i.i.d. outcomes from the six-point distribution.

    `rng` is either a root seed (int) or an already-positioned Generator
    (e.g. from substream()).
    """
    if m < 1:
        raise ValueError("m must be a positive count")
    if not isinstance(rng, np.random.Generator):
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
