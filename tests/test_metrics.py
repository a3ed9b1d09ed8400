"""Tests for the classical and quantum fidelity metrics."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wbcsim.metrics import (
    ALL_BITSTRINGS,
    TARGET_STATE,
    BitstringDistribution,
    DensityMatrix16,
    InputFormatError,
    classical_fidelity,
    ingest_counts,
    ingest_density_matrix,
    quantum_fidelity_pure_target,
)
from wbcsim.source import ideal_distribution

weights_st = st.lists(st.floats(0.01, 10.0), min_size=16, max_size=16).map(
    lambda w: BitstringDistribution(tuple(x / sum(w) for x in w))
)


class TestBitstringDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            BitstringDistribution((1.0,) * 2)
        with pytest.raises(ValueError):
            BitstringDistribution((-0.1,) + (1.1 / 15,) * 15)
        with pytest.raises(ValueError):
            BitstringDistribution((0.5,) + (0.0,) * 15)

    @pytest.mark.parametrize("probs", [[1 / 16] * 16, np.full(16, 1 / 16)], ids=["list", "ndarray"])
    def test_stores_a_tuple_of_floats(self, probs):
        # the input was stored as given: a list compared unequal to the same
        # tuple, and with an ndarray == raised ValueError and hash TypeError
        d = BitstringDistribution(probs)
        assert d == BitstringDistribution.uniform() and hash(d) == hash(BitstringDistribution.uniform())
        assert type(d.probs) is tuple and all(type(p) is float for p in d.probs)

    def test_from_mapping_normalizes(self):
        d = BitstringDistribution.from_mapping({"0011": 500, "1100": 500})
        assert d.probs[ALL_BITSTRINGS.index("0011")] == 0.5
        assert d.probs[ALL_BITSTRINGS.index("1100")] == 0.5

    @pytest.mark.parametrize("probs", [(math.nan,) * 16, (math.nan,) + (1 / 15,) * 15], ids=["all-nan", "one-nan"])
    def test_non_finite_entries_rejected(self, probs):
        # NaN fails every tolerance check, so these passed and classical_fidelity gave nan
        with pytest.raises(ValueError, match="probabilities must be finite"):
            BitstringDistribution(probs)

    @pytest.mark.parametrize("weights", [{"0011": math.nan}, {"0011": math.inf, "1100": 1}], ids=["nan", "inf"])
    def test_from_mapping_rejects_non_finite_weights(self, weights):
        with pytest.raises(InputFormatError, match="total weight must be positive and finite"):
            BitstringDistribution.from_mapping(weights)

    @pytest.mark.parametrize(
        "weights,message",
        [
            ({"0011": 10**400}, "total weight must be positive and finite"),
            ({"0011": -1, "1100": 2}, "count for '0011' must be a finite non-negative number"),
            ({"0011": "a"}, "count for '0011' must be a finite non-negative number"),
        ],
        ids=["beyond-float-range", "negative", "string"],
    )
    def test_from_mapping_checks_every_weight(self, weights, message):
        # these raised OverflowError, a plain ValueError and TypeError
        with pytest.raises(InputFormatError, match=message):
            BitstringDistribution.from_mapping(weights)

    def test_from_mapping_rejects_bad_keys(self):
        with pytest.raises(InputFormatError):
            BitstringDistribution.from_mapping({"00110": 1})


class TestClassicalFidelity:
    def test_self_fidelity_is_one(self):
        ideal = BitstringDistribution.ideal()
        assert classical_fidelity(ideal, ideal) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_against_ideal(self):
        value = classical_fidelity(BitstringDistribution.uniform(), BitstringDistribution.ideal())
        assert value == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_disjoint_supports_give_zero(self):
        point = BitstringDistribution.from_mapping({"0000": 1})
        assert classical_fidelity(point, BitstringDistribution.ideal()) == 0.0

    @given(weights_st, weights_st)
    def test_symmetric(self, p, q):
        assert classical_fidelity(p, q) == pytest.approx(classical_fidelity(q, p), rel=1e-12)

    @given(weights_st, weights_st)
    def test_bounded(self, p, q):
        assert 0 <= classical_fidelity(p, q) <= 1 + 1e-12


class TestDensityMatrix:
    def test_named_validation_failures(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix16(np.eye(4))
        with pytest.raises(ValueError, match="hermiticity"):
            m = np.eye(16, dtype=complex) / 16
            m[0, 1] = 1j
            DensityMatrix16(m)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix16(np.eye(16) / 8)
        with pytest.raises(ValueError, match="positivity"):
            m = np.zeros((16, 16))
            m[0, 0], m[1, 1] = 1.5, -0.5
            DensityMatrix16(m)

    def test_non_finite_entry_rejected(self):
        # every tolerance check is False for NaN, so finiteness is checked first
        m = np.eye(16, dtype=complex) / 16
        m[3, 3] = np.nan
        with pytest.raises(ValueError, match="finiteness"):
            DensityMatrix16(m)


class TestQuantumFidelity:
    def test_pure_target_gives_one(self):
        rho = DensityMatrix16(np.outer(TARGET_STATE, TARGET_STATE))
        assert quantum_fidelity_pure_target(rho) == pytest.approx(1.0, abs=1e-12)

    def test_fully_mixed_state(self):
        assert quantum_fidelity_pure_target(DensityMatrix16(np.eye(16) / 16)) == 0.0625

    def test_orthogonal_state_gives_zero(self):
        rho = np.zeros((16, 16))
        rho[0, 0] = 1.0  # |0000> is off the target's support
        assert quantum_fidelity_pure_target(DensityMatrix16(rho)) == 0.0

    @given(st.floats(0.0, 1.0))
    def test_linear_in_the_state(self, alpha):
        rho1 = np.outer(TARGET_STATE, TARGET_STATE)
        rho2 = np.eye(16) / 16
        mixed = DensityMatrix16(alpha * rho1 + (1 - alpha) * rho2)
        f1 = quantum_fidelity_pure_target(DensityMatrix16(rho1))
        f2 = quantum_fidelity_pure_target(DensityMatrix16(rho2))
        assert quantum_fidelity_pure_target(mixed) == pytest.approx(alpha * f1 + (1 - alpha) * f2, abs=1e-12)

    def test_ideal_distribution_is_target_diagonal(self):
        diag = np.outer(TARGET_STATE, TARGET_STATE).diagonal()
        ref = ideal_distribution()
        for s, d in zip(ALL_BITSTRINGS, diag):
            assert d == pytest.approx(float(ref[s]), abs=1e-15)


class TestIngestion:
    def test_counts_roundtrip(self):
        fh = io.StringIO(json.dumps({"0011": 500, "1100": 500}))
        d = ingest_counts(fh)
        assert d.probs[ALL_BITSTRINGS.index("0011")] == 0.5

    def test_counts_proportional_to_ideal_give_unit_fidelity(self):
        counts = {s: int(p * 12) for s, p in ideal_distribution().items() if p > 0}
        d = ingest_counts(io.StringIO(json.dumps(counts)))
        assert classical_fidelity(d, BitstringDistribution.ideal()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "payload",
        [
            '{"00110": 3}',
            '{"0011": -1}',
            '{"0011": 0}',
            "[1, 2]",
            "not json",
            '{"0011": true, "1100": 1}',
            '{"0011": false, "1100": 1}',
        ],
    )
    def test_malformed_counts_rejected(self, payload):
        with pytest.raises(InputFormatError):
            ingest_counts(io.StringIO(payload))

    @pytest.mark.parametrize(
        "payload",
        ['{"0011": NaN}', '{"0011": Infinity, "1100": 1}', '{"0011": -Infinity}', '{"0011": 1%s}' % ("0" * 400)],
        ids=["nan", "infinity", "minus-infinity", "beyond-float-range"],
    )
    def test_non_finite_counts_rejected(self, payload):
        with pytest.raises(InputFormatError, match="finite"):
            ingest_counts(io.StringIO(payload))

    def test_bad_key_error_names_the_key(self):
        with pytest.raises(InputFormatError, match="00110"):
            ingest_counts(io.StringIO('{"00110": 3}'))

    def test_density_matrix_roundtrip(self):
        rho = np.outer(TARGET_STATE, TARGET_STATE)
        payload = [[[float(rho[i, j]), 0.0] for j in range(16)] for i in range(16)]
        loaded = ingest_density_matrix(io.StringIO(json.dumps(payload)))
        assert quantum_fidelity_pure_target(loaded) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("payload", ["[[1, 2], [3]]", "[1, 2, 3]", "not json"])
    def test_malformed_density_matrix_rejected(self, payload):
        with pytest.raises(InputFormatError):
            ingest_density_matrix(io.StringIO(payload))

    @pytest.mark.parametrize(
        "at,entry",
        [(0, True), (1, False), (1, "0"), (1, None), (1, 10**400)],
        ids=["true", "false", "string", "null", "beyond-float-range"],
    )
    def test_density_entries_must_be_numbers(self, at, entry):
        # |0000><0000| with one real part replaced by an entry numpy would
        # read as the same number (true as 1, false and "0" as 0)
        payload = [[[float(i == j == 0), 0.0] for j in range(16)] for i in range(16)]
        payload[at][at][0] = entry
        with pytest.raises(InputFormatError):
            ingest_density_matrix(io.StringIO(json.dumps(payload)))
