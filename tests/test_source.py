"""Tests for the singlet-state measurement statistics."""

import math
import re
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
    Event,
    GlobalCountList,
    global_counts,
    ideal_distribution,
    project_S,
    sample_event,
    substream,
)
import wbcsim.protocol as protocol
import wbcsim.source as source
from wbcsim.source import _CDF, _as_count, _codes_of, _trial_draws, _trial_states

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
        assert set(S_CLASS) == {0, 1, 2}


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

    # both used to raise a KeyError: '0000' and '0'
    @pytest.mark.parametrize("outcomes,unknown", [(["0011", "0000"], "['0000']"), ("0011", "['0', '0', '1', '1']")])
    def test_from_outcomes_names_unknown_outcomes(self, outcomes, unknown):
        with pytest.raises(ValueError, match=re.escape(f"unknown outcomes {unknown}")):
            Event.from_outcomes(outcomes)

    def test_codes_are_stored_as_a_tuple(self):
        # a list of codes was kept as a list: unequal to the tuple's Event, and unhashable
        e = Event([0, 1])
        assert e.codes == (0, 1) and type(e.codes) is tuple
        assert e == Event((0, 1)) and hash(e) == hash(Event((0, 1)))

    @pytest.mark.parametrize("codes", [{0: 1, 1: 2}, {3, 1}, b"\x00\x01", iter([0, 1])], ids=["dict", "set", "bytes", "iterator"])
    def test_codes_must_be_a_list_or_tuple(self, codes):
        # a dict gave its keys, a set its iteration order, bytes their values, and an iterator a bare TypeError
        with pytest.raises(ValueError, match="outcome codes come in a list or tuple"):
            Event(codes)

    def test_rejects_empty_and_bad_codes(self):
        with pytest.raises(ValueError):
            Event(())
        with pytest.raises(ValueError):
            Event((0, 6))

    @pytest.mark.parametrize("codes", [(1.5, 2), (True, 0), (1.0,), ("1",), (np.int8(1), 0)])
    def test_rejects_codes_that_are_not_ints(self, codes):
        # the engine used to truncate 1.5 to code 1 and read True as 1
        with pytest.raises(ValueError, match="outcome codes"):
            Event(codes)

    @given(events_st)
    def test_flipped_is_involution(self, e):
        assert e.flipped().flipped() == e

    @given(events_st)
    def test_flip_swaps_receiver_bits(self, e):
        f = e.flipped()
        for i in range(1, e.m + 1):
            assert f.r0_bit(i) == 1 - e.r0_bit(i)
            assert f.r1_bit(i) == 1 - e.r1_bit(i)


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

    @pytest.mark.parametrize("m", [True, 2.5, "3"])
    def test_rejects_m_that_is_not_a_count(self, m):
        # the count rule of ProtocolParams.create; these reached numpy's TypeError
        with pytest.raises(ValueError, match="must be a positive count"):
            sample_event(m, 1)

    @pytest.mark.parametrize("seed", [-1, True, 2.0])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        # True used to seed as 1, and -1 and 2.0 reached numpy's own errors
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            sample_event(3, seed)

    @pytest.mark.parametrize("m", [1, 2, 5, 280])
    def test_codes_are_those_generator_choice_draws(self, m):
        # the reproducibility contract: (seed, trial) -> the codes that
        # Generator.choice draws from that trial's substream
        probs = [float(p) for p in OUTCOME_PROBS]
        for seed in (0, 11, 20240817):
            for trial in range(100):
                want = substream(seed, trial).choice(6, size=m, p=probs)
                assert sample_event(m, substream(seed, trial)).codes == tuple(want.tolist())

    @pytest.mark.parametrize("m", [1, 2, 5, 280])
    def test_codes_are_those_seed_sequence_generators_choose(self, m):
        # the same contract, with the reference generator built by numpy
        # itself rather than by substream
        probs = [float(p) for p in OUTCOME_PROBS]
        for seed in (0, 11, 20240817):
            for trial in range(100):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
                want = rng.choice(6, size=m, p=probs)
                assert sample_event(m, substream(seed, trial)).codes == tuple(want.tolist())

    def test_frequencies_match_distribution(self):
        n = 60000
        rng = substream(2024, 0)
        codes = [c for _ in range(10) for c in sample_event(n // 10, rng).codes]
        for code, p in enumerate(OUTCOME_PROBS):
            observed = codes.count(code) / n
            sigma = math.sqrt(float(p) * (1 - float(p)) / n)
            assert abs(observed - float(p)) < 5 * sigma


def numpy_state(seed, trial):
    """The PCG64 (state, inc) ints of SeedSequence(entropy=seed, spawn_key=(trial,))."""
    state = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(trial,))).state["state"]
    return state["state"], state["inc"]


class TestBlockSeeder:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 1, 2**200])
    def test_states_are_those_numpy_seeds(self, seed):
        assert list(_trial_states(seed, 0, 100)) == [numpy_state(seed, t) for t in range(100)]
        for trial in (2**32 - 1, 2**32, 2**40 + 3):
            assert list(_trial_states(seed, trial, trial + 1)) == [numpy_state(seed, trial)]

    def test_states_across_a_trial_word_boundary(self):
        lo = 2**32 - 3
        assert list(_trial_states(5, lo, lo + 6)) == [numpy_state(5, t) for t in range(lo, lo + 6)]

    def test_hash_runs_on_bounded_chunks(self, monkeypatch):
        # the hash sees a bounded number of trials at once, and the chunk
        # edges keep every trial's state
        rows = []
        hashmix = source._hashmix

        def spy(value, *args):
            rows.append(len(value))
            return hashmix(value, *args)

        monkeypatch.setattr(source, "_hashmix", spy)
        states = list(_trial_states(7, 0, 2500))
        assert len(states) == 2500
        assert max(rows) < len(states) and max(rows) <= protocol._block_rows(1)
        for t in (0, 1023, 1024, 2047, 2048, 2499):
            assert states[t] == numpy_state(7, t)

    def test_blocks_hold_each_trials_first_draws(self):
        # 23 trials from trial 4, in blocks of at most 5 rows of 7 draws
        out = np.empty((5, 7))
        blocks = [block.copy() for block in _trial_draws(9, 4, 27, out)]
        assert [len(b) for b in blocks] == [5, 5, 5, 5, 3]
        want = [np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(t,))).random(7) for t in range(4, 27)]
        assert np.array_equal(np.concatenate(blocks), want)

    @pytest.mark.parametrize("seed", [-1, True, 2.0])
    def test_substream_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            substream(seed, 0)
        with pytest.raises(ValueError, match="index must be a non-negative int"):
            substream(0, seed)

    def test_numpy_integer_seeds_are_their_ints(self):
        # an np.int64 seed or index raised "seed must be a non-negative int"
        assert np.array_equal(substream(np.int64(9), np.uint32(4)).random(5), substream(9, 4).random(5))
        assert sample_event(7, np.int64(11)) == sample_event(7, 11)
        assert [type(_as_count(v, "seed", least=0)) for v in (np.int64(3), np.uint8(0), 5)] == [int, int, int]

    def test_codes_count_the_table_entries_at_or_below_each_draw(self):
        # Generator.random draws lie in [0, 1); the last entry is 1.0
        edges = np.concatenate([_CDF, np.nextafter(_CDF, 0), np.nextafter(_CDF, 2), [0.0]])
        draws = np.concatenate([edges[edges < 1], np.random.default_rng(0).random(10**5)])
        codes = _codes_of(draws)
        assert codes.dtype == np.int8
        assert np.array_equal(codes, _CDF.searchsorted(draws, side="right"))


class TestCounts:
    def test_global_counts(self):
        e = Event.from_outcomes(["0011", "0011", "1100", "0101"])
        assert global_counts(e).g == (2, 1, 0, 0, 0, 1)

    @given(events_st)
    def test_counts_sum_to_m(self, e):
        g = global_counts(e)
        assert g.m == e.m
        assert project_S(g).m == e.m

    # (1.5, 2, 3, 0, 0, 1) used to pass with m = 7.5, a dict as its six keys, and an iterator raised TypeError
    @pytest.mark.parametrize(
        "g",
        [
            (3, 1, 2, 0, 1),
            (3, 1, 2, 0, 1, 4, 0),
            (3, 1, -2, 0, 1, 4),
            (1.5, 2, 3, 0, 0, 1),
            (True, 2, 3, 0, 0, 1),
            dict.fromkeys(range(6), 1),
            iter((3, 1, 2, 0, 1, 4)),
        ],
    )
    def test_global_count_list_is_six_non_negative_counts(self, g):
        with pytest.raises(ValueError, match="six non-negative counts"):
            GlobalCountList(g)

    def test_global_count_list_stores_python_ints(self):
        g = GlobalCountList(tuple(np.arange(6)))
        assert g.g == (0, 1, 2, 3, 4, 5) and all(type(x) is int for x in g.g) and type(g.m) is int

    def test_projections(self):
        g = GlobalCountList((3, 1, 2, 0, 1, 4))
        assert project_S(g).l1 == 3 and project_S(g).l2 == 4 and project_S(g).l3 == 4

