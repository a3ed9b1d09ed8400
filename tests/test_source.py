"""Tests for the singlet-state measurement statistics."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wbcsim.source import (
    FLIP_CODE,
    OUTCOME_PROBS,
    OUTCOMES,
    R0_BIT,
    R1_BIT,
    S_CLASS,
    R_CLASS,
    Event,
    GlobalCountList,
    global_counts,
    ideal_distribution,
    index_label,
    project_S,
    sample_event,
    substream,
)

events_st = st.lists(st.integers(0, 5), min_size=1, max_size=12).map(lambda c: Event(tuple(c)))


class TestOutcomeTables:
    def test_probabilities_sum_to_one(self):
        assert sum(OUTCOME_PROBS) == 1

    def test_outcomes_are_balanced_bitstrings(self):
        # every outcome has exactly two 1s: anticorrelation of the singlet
        assert all(s.count("1") == 2 for s in OUTCOMES)

    @pytest.mark.parametrize("code,outcome", list(enumerate(OUTCOMES)))
    def test_receiver_bits_match_outcome(self, code, outcome):
        assert R0_BIT[code] == int(outcome[2])
        assert R1_BIT[code] == int(outcome[3])

    def test_dominant_outcomes_have_probability_one_third(self):
        assert OUTCOME_PROBS[OUTCOMES.index("0011")] == Fraction(1, 3)
        assert OUTCOME_PROBS[OUTCOMES.index("1100")] == Fraction(1, 3)

    def test_flip_is_an_involution(self):
        assert [FLIP_CODE[FLIP_CODE[c]] for c in range(6)] == list(range(6))

    def test_flip_preserves_probability(self):
        assert all(OUTCOME_PROBS[FLIP_CODE[c]] == OUTCOME_PROBS[c] for c in range(6))

    def test_class_maps_cover_all_codes(self):
        assert set(S_CLASS) == {0, 1, 2} and set(R_CLASS) == {0, 1, 2}


class TestIdealDistribution:
    def test_covers_all_16_bitstrings(self):
        dist = ideal_distribution()
        assert set(dist) == {format(i, "04b") for i in range(16)}
        assert sum(dist.values()) == 1

    def test_zero_off_support(self):
        dist = ideal_distribution()
        assert all(dist[s] == 0 for s in dist if s not in OUTCOMES)


class TestEvent:
    def test_from_outcomes_roundtrip(self):
        e = Event.from_outcomes(["0011", "1100", "0101"])
        assert e.codes == (0, 5, 1)
        assert e.outcome(1) == "0011" and e.outcome(3) == "0101"

    def test_rejects_empty_and_bad_codes(self):
        with pytest.raises(ValueError):
            Event(())
        with pytest.raises(ValueError):
            Event((0, 6))

    @given(events_st)
    def test_flipped_is_involution(self, e):
        assert e.flipped().flipped() == e

    @given(events_st)
    def test_flip_swaps_receiver_bits(self, e):
        f = e.flipped()
        for i in range(1, e.m + 1):
            assert f.r0_bit(i) == 1 - e.r0_bit(i)
            assert f.r1_bit(i) == 1 - e.r1_bit(i)

    def test_dump_csv(self):
        buf = io.StringIO()
        Event.from_outcomes(["1100", "0011"]).dump_csv(buf)
        assert buf.getvalue() == "index,S_bits,R0_bit,R1_bit\na,11,0,0\nb,00,1,1\n"


class TestIndexLabel:
    @pytest.mark.parametrize("index,label", [(1, "a"), (2, "b"), (26, "z"), (27, "aa"), (52, "az"), (53, "ba")])
    def test_labels(self, index, label):
        assert index_label(index) == label

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            index_label(0)


class TestSampling:
    def test_same_seed_reproduces(self):
        assert sample_event(50, 123) == sample_event(50, 123)

    def test_substreams_are_counter_based(self):
        a = sample_event(20, substream(9, 4))
        b = sample_event(20, substream(9, 4))
        c = sample_event(20, substream(9, 5))
        assert a == b and a != c

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            sample_event(0, 1)

    def test_frequencies_match_distribution(self):
        n = 60000
        rng = substream(2024, 0)
        codes = [c for _ in range(10) for c in sample_event(n // 10, rng).codes]
        for code, p in enumerate(OUTCOME_PROBS):
            observed = codes.count(code) / n
            sigma = math.sqrt(float(p) * (1 - float(p)) / n)
            assert abs(observed - float(p)) < 5 * sigma


class TestCounts:
    def test_global_counts(self):
        e = Event.from_outcomes(["0011", "0011", "1100", "0101"])
        assert global_counts(e).g == (2, 1, 0, 0, 0, 1)

    @given(events_st)
    def test_counts_sum_to_m(self, e):
        g = global_counts(e)
        assert g.m == e.m
        assert project_S(g).m == e.m

    def test_projections(self):
        g = GlobalCountList((3, 1, 2, 0, 1, 4))
        assert project_S(g).l1 == 3 and project_S(g).l2 == 4 and project_S(g).l3 == 4

