"""Tests for adversary strategies, their domains, and optimality."""

import itertools
from fractions import Fraction

import pytest

from wbcsim.adversary import (
    DomainVerdict,
    StrategyR,
    StrategyS,
    _all_events,
    _events_by_local_list,
    best_failure_probability_bruteforce,
    conditional_failure_probability,
    local_counts_R,
    max_conditional_failure,
    zeta_R,
    zeta_S,
)
from wbcsim.protocol import (
    AdversaryConfig,
    Outcome,
    OutOfDomainError,
    ProtocolParams,
    classify_transcript,
    invocation_honest,
    run_protocol,
)
from wbcsim.source import Event, LocalCountListR, LocalCountListS, global_counts, project_S

S_FAULTY = AdversaryConfig.S_FAULTY
R0_FAULTY = AdversaryConfig.R0_FAULTY

# worked example: 12 states, labels a..l map to indices 1..12
EXAMPLE_EVENT = Event.from_outcomes(
    ["1100", "0011", "1100", "0110", "0011", "0011", "1010", "1100", "0011", "0101", "1100", "1001"]
)


@pytest.fixture
def params12():
    return ProtocolParams.create("0.3", "0.8", 12)  # T = 4, Q = 1


class TestDomains:
    def test_zeta_S_in_domain(self, params12):
        s = zeta_S(LocalCountListS(4, 4, 4), params12)
        assert s == StrategyS(3, 1, 0, 0, 0, 4)

    @pytest.mark.parametrize(
        "counts,fragment",
        [
            ((2, 4, 6), "T-Q"),  # l1 < T - Q = 3
            ((4, 0, 8), "Q"),  # l2 < Q = 1
            ((5, 4, 3), "T"),  # l3 < T = 4
        ],
    )
    def test_zeta_S_out_of_domain(self, params12, counts, fragment):
        verdict = zeta_S(LocalCountListS(*counts), params12)
        assert isinstance(verdict, DomainVerdict) and not verdict.in_domain
        assert fragment in verdict.reason

    def test_zeta_R_in_domain_tops_up_to_T(self, params12):
        assert zeta_R(LocalCountListR(4, 2, 6), params12) == StrategyR(0, 2, 2)
        # more than T automatically consistent indices: no guesses needed
        assert zeta_R(LocalCountListR(4, 5, 3), params12) == StrategyR(0, 5, 0)

    def test_zeta_R_out_of_domain(self, params12):
        verdict = zeta_R(LocalCountListR(9, 1, 2), params12)  # l1 > m - T = 8
        assert isinstance(verdict, DomainVerdict) and not verdict.in_domain

    def test_verdict_requires_reason(self):
        with pytest.raises(ValueError):
            DomainVerdict(False)


class TestAssembly:
    def test_check_sets_take_lowest_indices(self, params12):
        t = run_protocol(EXAMPLE_EVENT, params12, S_FAULTY, strategy=StrategyS(3, 1, 0, 0, 0, 4))
        assert t.sigma0 == frozenset({2, 5, 6, 4})  # b, e, f from 0011 and d from mixed
        assert t.sigma1 == frozenset({1, 3, 8, 11})  # a, c, h, k

    def test_check_sets_reject_overdraw(self, params12):
        with pytest.raises(ValueError, match="requests 5 indices from class 0011 of size 4"):
            run_protocol(EXAMPLE_EVENT, params12, S_FAULTY, strategy=StrategyS(5, 0, 0, 0, 0, 4))

    def test_local_counts_after_invocation(self, params12):
        _, sigma0, _, _, _ = invocation_honest(EXAMPLE_EVENT, 0)
        assert local_counts_R(EXAMPLE_EVENT, sigma0) == LocalCountListR(4, 2, 6)

    def test_rho_takes_lowest_indices(self, params12):
        t = run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY, strategy=StrategyR(0, 2, 2))
        assert t.y01 == 1
        assert t.rho01 == frozenset({4, 7, 1, 3})  # XX10 = {d, g}, lowest XX0X = {a, c}

    def test_rho_rejects_overdraw(self, params12):
        with pytest.raises(ValueError, match="requests 5 indices from class 0011 of size 4"):
            run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY, strategy=StrategyR(5, 0, 0))


class TestWorkedExamples:
    def test_s_faulty_example_compromises_both_receivers(self, params12):
        t = run_protocol(EXAMPLE_EVENT, params12, S_FAULTY)
        assert (t.y0, t.y1) == (0, 1)
        assert classify_transcript(S_FAULTY, t) is Outcome.FAILURE

    def test_r0_faulty_example_flips_r1(self, params12):
        t = run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY)
        assert t.y_tilde1 == 0 and t.y1 == 1
        assert classify_transcript(R0_FAULTY, t) is Outcome.FAILURE

    def test_out_of_domain_raises_with_reason(self, params12):
        e = Event.from_outcomes(["0011"] * 12)  # no mixed outcomes for zeta_S
        with pytest.raises(OutOfDomainError) as exc:
            run_protocol(e, params12, S_FAULTY)
        assert "Q" in exc.value.reason


def _small_params(m):
    return ProtocolParams.create("0.3", "0.8", m)


class TestOptimality:
    @pytest.mark.parametrize("cfg", [S_FAULTY, R0_FAULTY])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zeta_attains_the_conditional_maximum_on_its_domain(self, cfg, m):
        p = _small_params(m)
        zeta = zeta_S if cfg is S_FAULTY else zeta_R
        local_type = LocalCountListS if cfg is S_FAULTY else LocalCountListR
        for counts, events in _events_by_local_list(m, cfg).items():
            strategy = zeta(local_type(*counts), p)
            if isinstance(strategy, DomainVerdict):
                continue
            best = max_conditional_failure(cfg, p, events)
            assert conditional_failure_probability(cfg, p, events, strategy) == best

    def test_in_domain_s_failure_is_two_to_minus_q(self):
        p = _small_params(3)  # T = 1, Q = 1
        for counts, events in _events_by_local_list(3, S_FAULTY).items():
            strategy = zeta_S(LocalCountListS(*counts), p)
            if isinstance(strategy, DomainVerdict):
                continue
            assert conditional_failure_probability(S_FAULTY, p, events, strategy) == Fraction(1, 2) ** p.Q

    def test_brute_force_rejects_no_faulty(self):
        # the no-faulty oracle is analytics.pf_bruteforce
        with pytest.raises(ValueError):
            best_failure_probability_bruteforce(AdversaryConfig.NO_FAULTY, _small_params(2))

    @pytest.mark.parametrize("mu,lam", [("0.3", "0.8"), ("0.272", "0.94")])
    @pytest.mark.parametrize("cfg", [S_FAULTY, R0_FAULTY], ids=lambda c: c.value)
    def test_brute_force_values_are_pinned(self, cfg, mu, lam):
        # the exhaustive search's answers at m = 1..5, as exact literals
        want = {
            S_FAULTY: [Fraction(1, 6), Fraction(5, 18), Fraction(19, 54), Fraction(31, 108), Fraction(13, 36)],
            R0_FAULTY: [Fraction(2, 3), Fraction(7, 9), Fraction(89, 108), Fraction(41, 54), Fraction(41, 54)],
        }[cfg]
        got = [best_failure_probability_bruteforce(cfg, ProtocolParams.create(mu, lam, m)) for m in range(1, 6)]
        assert got == want

    def test_groups_are_code_blocks_with_numerators(self):
        # each group holds its Events' codes and weight numerators over 12^m
        m = 3
        groups = _events_by_local_list(m, R0_FAULTY)
        events = {e.codes: w for e, w in _all_events(m)}
        assert sum(len(codes) for codes, _ in groups.values()) == 6**m
        for counts, (codes, nums) in groups.items():
            for row, num in zip(codes.tolist(), nums.tolist()):
                event = Event(tuple(row))
                assert Fraction(num, 12**m) == events[event.codes]
                _, sigma0, _, _, _ = invocation_honest(event, 0)
                assert local_counts_R(event, sigma0) == LocalCountListR(*counts)

    def test_brute_force_rejects_large_m(self):
        with pytest.raises(ValueError):
            best_failure_probability_bruteforce(S_FAULTY, _small_params(7), max_m=6)


class TestDysfunctionalClasses:
    def test_short_check_set_never_fails(self):
        # strategies with |sigma0| < T cannot compromise R0 (length condition)
        m = 4
        p = ProtocolParams.create("0.3", "0.8", m)  # T = 2, Q = 1
        for event, _ in _all_events(m):
            l = project_S(global_counts(event))
            for k0011 in range(min(l.l1, p.T - 1) + 1):
                for kmixed in range(min(l.l2, p.T - 1 - k0011) + 1):
                    strategy = StrategyS(k0011, kmixed, 0, 0, 0, l.l3)
                    t = run_protocol(event, p, S_FAULTY, strategy=strategy)
                    assert classify_transcript(S_FAULTY, t) is Outcome.ACHIEVED

    def test_too_few_guessable_indices_never_fails(self):
        # Q' < Q forces R1 to adopt R0's value whenever R0 was compromised
        m = 4
        p = ProtocolParams.create("0.3", "0.8", m)  # T = 2, Q = 1
        for event, _ in _all_events(m):
            l = project_S(global_counts(event))
            for k0011 in range(p.T, l.l1 + 1):  # T' >= T with Q' = 0 < Q
                strategy = StrategyS(k0011, 0, 0, 0, 0, l.l3)
                t = run_protocol(event, p, S_FAULTY, strategy=strategy)
                assert classify_transcript(S_FAULTY, t) is Outcome.ACHIEVED

    def test_short_forged_set_never_fails_when_honest_checks_pass(self):
        # |rho01| < T cannot flip R1 once the honest invocation succeeded
        m = 4
        p = ProtocolParams.create("0.3", "0.8", m)  # T = 2
        for event, _ in _all_events(m):
            if global_counts(event).g[0] < p.T:
                continue  # honest check sets too short: not the strategy's doing
            _, sigma0, _, _, _ = invocation_honest(event, 0)
            l = local_counts_R(event, sigma0)
            for k1, k2, k3 in itertools.product(range(l.l1 + 1), range(l.l2 + 1), range(l.l3 + 1)):
                if k1 + k2 + k3 >= p.T:
                    continue
                t = run_protocol(event, p, R0_FAULTY, strategy=StrategyR(k1, k2, k3))
                assert classify_transcript(R0_FAULTY, t) is Outcome.ACHIEVED

    def test_bounds_bracket_the_true_optimum(self):
        from wbcsim.analytics import pf_S_bounds, pf_R_bounds

        for m in (2, 3):
            p = _small_params(m)
            best_s = best_failure_probability_bruteforce(S_FAULTY, p)
            lo, hi = pf_S_bounds(p, exact=True)
            assert lo.value <= best_s <= hi.value
            best_r = best_failure_probability_bruteforce(R0_FAULTY, p)
            lo, hi = pf_R_bounds(p, exact=True)
            assert lo.value <= best_r <= hi.value
