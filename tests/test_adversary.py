"""Tests for adversary strategies, their domains, and optimality."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from wbcsim.adversary import (
    StrategyR,
    StrategyS,
    _all_events,
    _events_by_local_list,
    _strategy_ks,
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
    _failed_weights,
    _view,
    classify_weak_broadcast,
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
        with pytest.raises(OutOfDomainError) as exc:
            zeta_S(LocalCountListS(*counts), params12)
        assert fragment in exc.value.reason

    def test_zeta_R_in_domain_tops_up_to_T(self, params12):
        assert zeta_R(LocalCountListR(4, 2, 6), params12) == StrategyR(0, 2, 2)
        # more than T automatically consistent indices: no guesses needed
        assert zeta_R(LocalCountListR(4, 5, 3), params12) == StrategyR(0, 5, 0)

    def test_zeta_R_out_of_domain(self, params12):
        with pytest.raises(OutOfDomainError):
            zeta_R(LocalCountListR(9, 1, 2), params12)  # l1 > m - T = 8

    @pytest.mark.parametrize("zeta", [zeta_S, zeta_R], ids=["zeta_S", "zeta_R"])
    def test_count_list_must_hold_m_outcomes(self, params12, zeta):
        # zeta_S(LocalCountListS(9, 9, 9)) used to ask for 9 indices of class 1100 at m = 12
        with pytest.raises(ValueError, match="local count list of 27 outcomes != params m 12"):
            zeta(LocalCountListS(9, 9, 9), params12)

    @pytest.mark.parametrize("counts", [(0, -3, 5), (4, 4.0, 4), (4, True, 7), (4, "4", 4)])
    def test_count_list_holds_non_negative_counts(self, counts):
        # zeta_R(LocalCountListR(0, -3, 5)) used to return StrategyR(0, -3, 7)
        with pytest.raises(ValueError, match="three non-negative counts"):
            LocalCountListR(*counts)

    @pytest.mark.parametrize("mu,lam,out_of_domain", [("0.3", "0.8", 1438), ("0.272", "0.94", 1438), ("0.25", "0.9", 810)])
    def test_zeta_raises_exactly_where_run_protocol_does(self, mu, lam, out_of_domain):
        # zeta_S and zeta_R used to return a DomainVerdict where run_protocol
        # raised; on every Event with m <= 4 and each faulty configuration
        # both now raise OutOfDomainError, with the same reason
        def reason(call, *args):
            try:
                call(*args)
            except OutOfDomainError as exc:
                return exc.reason
            return None

        pairs = out = 0
        for m, cfg in itertools.product(range(1, 5), [S_FAULTY, R0_FAULTY]):
            p = ProtocolParams.create(mu, lam, m)
            zeta, local_type = (zeta_S, LocalCountListS) if cfg is S_FAULTY else (zeta_R, LocalCountListR)
            for counts, (codes, _) in _events_by_local_list(m, cfg).items():
                want = reason(zeta, local_type(*counts), p)
                assert all(reason(run_protocol, Event(tuple(row)), p, cfg) == want for row in codes.tolist())
                pairs += len(codes)
                out += len(codes) if want else 0
        assert (pairs, out) == (2 * sum(6**m for m in range(1, 5)), out_of_domain)

    def test_count_list_stores_python_ints(self, params12):
        local = LocalCountListS(np.int64(4), np.uint8(4), 4)
        assert all(type(x) is int for x in (local.l1, local.l2, local.l3))
        assert local == LocalCountListS(4, 4, 4) and zeta_S(local, params12) == StrategyS(3, 1, 0, 0, 0, 4)


class TestAssembly:
    def test_check_sets_take_lowest_indices(self, params12):
        t = run_protocol(EXAMPLE_EVENT, params12, S_FAULTY, strategy=StrategyS(3, 1, 0, 0, 0, 4))
        assert t.sigma0 == frozenset({2, 5, 6, 4})  # b, e, f from 0011 and d from mixed
        assert t.sigma1 == frozenset({1, 3, 8, 11})  # a, c, h, k

    def test_check_sets_reject_overdraw(self, params12):
        with pytest.raises(ValueError, match="requests 5 indices from class 0011 of size 4"):
            run_protocol(EXAMPLE_EVENT, params12, S_FAULTY, strategy=StrategyS(5, 0, 0, 0, 0, 4))

    def test_local_counts_after_invocation(self, params12):
        assert local_counts_R(EXAMPLE_EVENT) == LocalCountListR(4, 2, 6)

    @pytest.mark.parametrize("x_s", [0, 1])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_local_counts_follow_the_honest_check_set(self, m, x_s):
        # R0's classes after the sigma0 a correct sender sends, on every Event
        p = ProtocolParams.create("0.3", "0.8", m)
        for event, _ in _all_events(m):
            sigma0 = run_protocol(event, p, AdversaryConfig.NO_FAULTY, x_s=x_s).sigma0
            other = [i for i in range(1, m + 1) if event.r0_bit(i) != x_s]
            want = (len([i for i in other if i in sigma0]), len([i for i in other if i not in sigma0]), m - len(other))
            assert local_counts_R(event, x_s) == LocalCountListR(*want)

    def test_rho_takes_lowest_indices(self, params12):
        t = run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY, strategy=StrategyR(0, 2, 2))
        assert t.y01 == 1
        assert t.rho01 == frozenset({4, 7, 1, 3})  # XX10 = {d, g}, lowest XX0X = {a, c}

    def test_rho_rejects_overdraw(self, params12):
        with pytest.raises(ValueError, match="requests 5 indices from class 0011 of size 4"):
            run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY, strategy=StrategyR(5, 0, 0))

    @pytest.mark.parametrize(
        "cfg,strategy,kind",
        [(S_FAULTY, StrategyR(0, 0, 0), "StrategyS"), (R0_FAULTY, StrategyS(0, 0, 0, 0, 0, 0), "StrategyR")],
        ids=["s-faulty", "r0-faulty"],
    )
    def test_strategy_of_the_wrong_class_is_named(self, params12, cfg, strategy, kind):
        # these used to fail unpacking the counts: "not enough values to
        # unpack" for a faulty S, "too many values to unpack" for a faulty R0
        with pytest.raises(ValueError, match=f"strategy must be a {kind}, not {type(strategy).__name__}"):
            run_protocol(EXAMPLE_EVENT, params12, cfg, strategy=strategy)
        events = next(iter(_events_by_local_list(3, cfg).values()))
        with pytest.raises(ValueError, match=f"strategy must be a {kind}"):
            conditional_failure_probability(cfg, _small_params(3), events, strategy)

    @pytest.mark.parametrize("k", [1.5, True, 1.0, "1"], ids=repr)
    def test_strategy_counts_must_be_whole_numbers(self, params12, k):
        # 1.5 and True used to play k = 1
        message = f"requests {re.escape(repr(k))} indices from class 0011, not a whole number"
        with pytest.raises(ValueError, match=f"StrategyR {message}"):
            run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY, strategy=StrategyR(k, 0, 0))
        for cfg, strategy in ((S_FAULTY, StrategyS(k, 0, 0, 0, 0, 0)), (R0_FAULTY, StrategyR(k, 0, 0))):
            events = next(iter(_events_by_local_list(3, cfg).values()))
            with pytest.raises(ValueError, match=f"{type(strategy).__name__} {message}"):
                conditional_failure_probability(cfg, _small_params(3), events, strategy)

    def test_numpy_integer_counts_are_accepted(self, params12):
        played = run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY, strategy=StrategyR(np.int64(1), np.int8(1), 0))
        assert played == run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY, strategy=StrategyR(1, 1, 0))

    @pytest.mark.parametrize("cfg", [S_FAULTY, R0_FAULTY], ids=lambda c: c.value)
    def test_conditional_probability_rejects_overdraw(self, cfg):
        # the group's one local count list bounds every strategy count
        for (l1, l2, l3), events in _events_by_local_list(3, cfg).items():
            kind, zeros = (StrategyS, [0] * 5) if cfg is S_FAULTY else (StrategyR, [0] * 2)
            with pytest.raises(ValueError, match=f"requests {l1 + 1} indices from class 0011 of size {l1}"):
                conditional_failure_probability(cfg, _small_params(3), events, kind(l1 + 1, *zeros))
            name = "1100" if cfg is S_FAULTY else "XX0X"
            with pytest.raises(ValueError, match=f"requests -1 indices from class {name} of size {l3}"):
                conditional_failure_probability(cfg, _small_params(3), events, kind(*zeros, -1))


class TestWorkedExamples:
    def test_s_faulty_example_compromises_both_receivers(self, params12):
        t = run_protocol(EXAMPLE_EVENT, params12, S_FAULTY)
        assert (t.y0, t.y1) == (0, 1)
        assert classify_weak_broadcast(S_FAULTY, t.x_s, t.y0, t.y1) is Outcome.FAILURE

    def test_r0_faulty_example_flips_r1(self, params12):
        t = run_protocol(EXAMPLE_EVENT, params12, R0_FAULTY)
        assert t.y_tilde1 == 0 and t.y1 == 1
        assert classify_weak_broadcast(R0_FAULTY, t.x_s, t.y0, t.y1) is Outcome.FAILURE

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
            try:
                strategy = zeta(local_type(*counts), p)
            except OutOfDomainError:
                continue
            best = max_conditional_failure(cfg, p, events)
            assert conditional_failure_probability(cfg, p, events, strategy) == best

    @pytest.mark.parametrize("mu,lam", [("0.3", "0.8"), ("0.272", "0.94")])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_factored_search_equals_one_strategy_runs(self, m, mu, lam):
        # the search plays a faulty sender's two check sets on separate axes;
        # every StrategyS the group allows, run alone, reaches the same best
        p = ProtocolParams.create(mu, lam, m)
        for (l1, l2, l3), events in _events_by_local_list(m, S_FAULTY).items():
            half = list(itertools.product(range(l1 + 1), range(l2 + 1), range(l3 + 1)))
            runs = [conditional_failure_probability(S_FAULTY, p, events, StrategyS(*k0, *k1)) for k0 in half for k1 in half]
            assert max_conditional_failure(S_FAULTY, p, events) == max(runs)
            # and pair by pair, sigma0's k-vector major
            grid = _strategy_ks(S_FAULTY, (l1, l2, l3)).reshape(6, len(half), len(half))
            weights = _failed_weights(S_FAULTY, p, *events, grid)
            assert weights.shape == (2, len(half), len(half)) and not weights[1].any()
            assert [Fraction(int(w), int(events[1].sum())) for w in weights[0].ravel()] == runs

    @pytest.mark.slow
    def test_brute_force_at_m6_is_pinned(self):
        p = ProtocolParams.create("0.3", "0.8", 6)
        assert best_failure_probability_bruteforce(S_FAULTY, p) == Fraction(1193, 2916)
        assert best_failure_probability_bruteforce(R0_FAULTY, p) == Fraction(8861, 11664)

    def test_in_domain_s_failure_is_two_to_minus_q(self):
        p = _small_params(3)  # T = 1, Q = 1
        for counts, events in _events_by_local_list(3, S_FAULTY).items():
            try:
                strategy = zeta_S(LocalCountListS(*counts), p)
            except OutOfDomainError:
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
                assert local_counts_R(event) == LocalCountListR(*counts)

    @pytest.mark.parametrize("cfg", [S_FAULTY, R0_FAULTY], ids=lambda c: c.value)
    def test_groups_match_the_view(self, cfg):
        # the grouping reads each Event's local count list off its codes'
        # classes; the engine's view of every row agrees
        for m in range(1, 6):
            groups = _events_by_local_list(m, cfg)
            assert sum(len(codes) for codes, _ in groups.values()) == 6**m
            for counts, (codes, _) in groups.items():
                assert _view(cfg, codes).sizes.T.tolist() == [list(counts)] * len(codes)

    def test_brute_force_rejects_large_m(self):
        with pytest.raises(ValueError, match="limited to m <= 6"):
            best_failure_probability_bruteforce(S_FAULTY, _small_params(7))


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
                    assert classify_weak_broadcast(S_FAULTY, t.x_s, t.y0, t.y1) is Outcome.ACHIEVED

    def test_too_few_guessable_indices_never_fails(self):
        # Q' < Q forces R1 to adopt R0's value whenever R0 was compromised
        m = 4
        p = ProtocolParams.create("0.3", "0.8", m)  # T = 2, Q = 1
        for event, _ in _all_events(m):
            l = project_S(global_counts(event))
            for k0011 in range(p.T, l.l1 + 1):  # T' >= T with Q' = 0 < Q
                strategy = StrategyS(k0011, 0, 0, 0, 0, l.l3)
                t = run_protocol(event, p, S_FAULTY, strategy=strategy)
                assert classify_weak_broadcast(S_FAULTY, t.x_s, t.y0, t.y1) is Outcome.ACHIEVED

    def test_short_forged_set_never_fails_when_honest_checks_pass(self):
        # |rho01| < T cannot flip R1 once the honest invocation succeeded
        m = 4
        p = ProtocolParams.create("0.3", "0.8", m)  # T = 2
        for event, _ in _all_events(m):
            if global_counts(event).g[0] < p.T:
                continue  # honest check sets too short: not the strategy's doing
            l = local_counts_R(event)
            for k1, k2, k3 in itertools.product(range(l.l1 + 1), range(l.l2 + 1), range(l.l3 + 1)):
                if k1 + k2 + k3 >= p.T:
                    continue
                t = run_protocol(event, p, R0_FAULTY, strategy=StrategyR(k1, k2, k3))
                assert classify_weak_broadcast(R0_FAULTY, t.x_s, t.y0, t.y1) is Outcome.ACHIEVED

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
