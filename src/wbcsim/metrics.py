"""Fidelity metrics against the ideal four-qubit singlet state.

Classical fidelity compares a measured bitstring distribution with the
ideal one via the Bhattacharyya coefficient; quantum fidelity evaluates the
overlap of a reconstructed density matrix with the pure target state. Bit
order: qubit 1 is the leftmost character of a bitstring key.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import IO, Mapping

import numpy as np

from .source import OUTCOMES, ideal_distribution

ALL_BITSTRINGS: tuple[str, ...] = tuple(format(i, "04b") for i in range(16))
_TOL = 1e-9

# Target-state amplitudes (2, -1, -1, -1, -1, 2)/(2*sqrt(3)) on the six
# support bitstrings, zero elsewhere. The unnormalized integer vector keeps
# overlap arithmetic exact (squared norm 12); the normalized copy is exported
# for constructing reference density matrices.
_RAW_AMPLITUDES = {s: a for s, a in zip(OUTCOMES, (2, -1, -1, -1, -1, 2))}
_TARGET_RAW: np.ndarray = np.array([_RAW_AMPLITUDES.get(s, 0) for s in ALL_BITSTRINGS], dtype=float)
TARGET_STATE: np.ndarray = _TARGET_RAW / (2 * math.sqrt(3))


class InputFormatError(ValueError):
    """A counts or density-matrix file violates its format contract."""


@dataclass(frozen=True)
class BitstringDistribution:
    """Probability distribution over the 16 four-bit strings."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != 16:
            raise ValueError("a bitstring distribution has 16 entries")
        if not all(math.isfinite(p) for p in self.probs):
            raise ValueError("probabilities must be finite")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if abs(sum(self.probs) - 1) > _TOL:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")
        object.__setattr__(self, "probs", tuple(map(float, self.probs)))  # frozen

    @classmethod
    def from_mapping(cls, weights: Mapping[str, float]) -> "BitstringDistribution":
        """Normalize non-negative weights keyed by four-bit strings; a bad key
        or weight, or a total that is not positive and finite, raises InputFormatError."""
        floats = dict.fromkeys(ALL_BITSTRINGS, 0.0)
        for key, value in weights.items():
            if key not in floats:
                raise InputFormatError(f"unknown bitstring key {key!r}")
            # bool is an int subclass, but JSON true/false are not counts
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
                raise InputFormatError(f"count for {key!r} must be a finite non-negative number")
            floats[key] = math.inf if value > sys.float_info.max else float(value)  # a huge int is infinite
        total = sum(floats.values())
        if not 0 < total < math.inf:
            raise InputFormatError(f"total weight must be positive and finite, not {total}")
        return cls(tuple(w / total for w in floats.values()))

    @classmethod
    def ideal(cls) -> "BitstringDistribution":
        ref = ideal_distribution()
        return cls(tuple(float(ref[s]) for s in ALL_BITSTRINGS))

    @classmethod
    def uniform(cls) -> "BitstringDistribution":
        return cls((1 / 16,) * 16)


def classical_fidelity(p: BitstringDistribution, q: BitstringDistribution) -> float:
    """Bhattacharyya coefficient sum(sqrt(p_s * q_s)); symmetric, in [0, 1],
    1 iff the distributions coincide, 0 iff their supports are disjoint."""
    return float(sum(math.sqrt(a * b) for a, b in zip(p.probs, q.probs)))


@dataclass(frozen=True)
class DensityMatrix16:
    """16x16 density matrix: finite, Hermitian, unit trace, positive
    semidefinite (all within 1e-9); violations are rejected naming the
    failed check."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (16, 16):
            raise ValueError(f"shape check failed: {rho.shape} != (16, 16)")
        if not np.isfinite(rho).all():
            raise ValueError("finiteness check failed: non-finite entry")
        if np.max(np.abs(rho - rho.conj().T)) > _TOL:
            raise ValueError("hermiticity check failed")
        if abs(np.trace(rho) - 1) > _TOL:
            raise ValueError(f"trace check failed: trace = {np.trace(rho)}")
        if np.min(np.linalg.eigvalsh(rho)) < -_TOL:
            raise ValueError("positivity check failed: negative eigenvalue")
        object.__setattr__(self, "matrix", rho)


def quantum_fidelity_pure_target(rho: DensityMatrix16) -> float:
    """Overlap <psi|rho|psi> with the pure singlet target state; the general
    Uhlmann fidelity reduces to this when the reference is pure."""
    value = _TARGET_RAW @ rho.matrix @ _TARGET_RAW / 12
    return float(value.real)


def ingest_counts(fh: IO[str]) -> BitstringDistribution:
    """Read a JSON object mapping four-bit strings to non-negative counts
    and return the normalized distribution."""
    try:
        raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8 (RFC 8259)
        raise InputFormatError(f"counts file is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputFormatError("counts file must be a JSON object of bitstring -> count")
    return BitstringDistribution.from_mapping(raw)


def ingest_density_matrix(fh: IO[str]) -> DensityMatrix16:
    """Read a JSON array of 16 rows x 16 [re, im] pairs."""
    try:
        raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8 (RFC 8259)
        raise InputFormatError(f"density-matrix file is not valid UTF-8 JSON: {exc}") from exc
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"density-matrix file is not a numeric array: {exc}") from exc
    if arr.shape != (16, 16, 2):
        raise InputFormatError(f"density matrix must be 16 rows x 16 [re, im] pairs, got shape {arr.shape}")
    # numpy reads JSON true/false (bool is an int subclass) and numeric
    # strings as numbers; neither is a matrix entry
    if any(type(x) not in (int, float) for row in raw for pair in row for x in pair):
        raise InputFormatError("density-matrix entries must be numbers")
    rho = arr[..., 0] + 1j * arr[..., 1]
    try:
        return DensityMatrix16(rho)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
