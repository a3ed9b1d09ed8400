"""Adversary strategies for the faulty-sender and faulty-R0 configurations.

A strategy only fixes how many indices from each locally distinguishable
outcome class go into each check set; the failure probability does not
depend on which indices are picked within a class, so assembly always takes
the lowest indices. The optimal incomplete strategies zeta_S and zeta_R are
defined on restricted domains of local count lists; outside the domain the
verdict is OutOfDomain, which bound computations score as worst case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .protocol import (
    AdversaryConfig,
    DomainVerdict,
    Outcome,
    ProtocolParams,
    classify_transcript,
    run_protocol,
)
from .source import (
    OUTCOME_PROBS,
    R0_BIT,
    Event,
    LocalCountListR,
    LocalCountListS,
    S_CLASS,
    R_CLASS,
)


@dataclass(frozen=True)
class StrategyS:
    """Check-set composition of a faulty sender.

    k0_* counts go into sigma0 (sent to R0), k1_* into sigma1 (sent to R1),
    drawn from S's local classes 0011 / mixed / 1100.
    """

    k0_0011: int
    k0_mixed: int
    k0_1100: int
    k1_0011: int
    k1_mixed: int
    k1_1100: int


@dataclass(frozen=True)
class StrategyR:
    """Check-set composition of a faulty R0, drawn from its local classes
    0011 / XX10 / XX0X."""

    k_0011: int
    k_xx10: int
    k_xx0x: int


def zeta_S(l: LocalCountListS, p: ProtocolParams) -> Union[StrategyS, DomainVerdict]:
    """Optimal incomplete strategy (T-Q, Q, 0; 0, 0, l3) of a faulty sender.

    Defined when T-Q <= l1, Q <= l2 and T <= l3; otherwise returns the
    out-of-domain verdict naming the first failing condition.
    """
    if p.T - p.Q > l.l1:
        return DomainVerdict(False, f"cond1: T-Q={p.T - p.Q} > l1={l.l1}")
    if p.Q > l.l2:
        return DomainVerdict(False, f"cond2: Q={p.Q} > l2={l.l2}")
    if p.T > l.l3:
        return DomainVerdict(False, f"cond3: T={p.T} > l3={l.l3}")
    return StrategyS(p.T - p.Q, p.Q, 0, 0, 0, l.l3)


def zeta_R(l: LocalCountListR, p: ProtocolParams) -> Union[StrategyR, DomainVerdict]:
    """Optimal incomplete strategy (0, l2, n_min) of a faulty R0.

    n_min tops the check set up to length T with only-potentially-consistent
    XX0X indices. Defined when l1 <= m - T.
    """
    if l.l1 > p.m - p.T:
        return DomainVerdict(False, f"l1={l.l1} > m-T={p.m - p.T}")
    n_min = max(0, p.T - l.l2)
    return StrategyR(0, l.l2, n_min)


def _class_indices(event: Event, class_map) -> tuple[list[int], list[int], list[int]]:
    classes: tuple[list[int], list[int], list[int]] = ([], [], [])
    for i, c in enumerate(event.codes, start=1):
        classes[class_map[c]].append(i)
    return classes


def _r0_classes(event: Event, sigma0: frozenset[int], x_s: int) -> tuple[list[int], list[int], list[int]]:
    """R0's 0011 / XX10 / XX0X index lists after receiving sigma0.

    R0 reads 0011 where it measured 1 - x_s and S vouched for the index,
    XX10 where it measured 1 - x_s otherwise, and XX0X where it measured x_s.
    """
    classes: tuple[list[int], list[int], list[int]] = ([], [], [])
    for i, c in enumerate(event.codes, start=1):
        if R0_BIT[c] == x_s:
            classes[2].append(i)
        else:
            classes[0 if i in sigma0 else 1].append(i)
    return classes


def _take(classes, ks, names) -> frozenset[int]:
    """The lowest k indices of each class, per the strategy counts."""
    taken: list[int] = []
    for k, cls, name in zip(ks, classes, names):
        if k < 0 or k > len(cls):
            raise ValueError(f"strategy requests {k} indices from class {name} of size {len(cls)}")
        taken += cls[:k]
    return frozenset(taken)


def assemble_check_sets_S(event: Event, s: StrategyS) -> tuple[frozenset[int], frozenset[int]]:
    """Build (sigma0, sigma1) by taking the lowest indices from each of S's
    local classes, per the strategy counts."""
    classes = _class_indices(event, S_CLASS)
    names = ("0011", "mixed", "1100")
    sigma0 = _take(classes, (s.k0_0011, s.k0_mixed, s.k0_1100), names)
    sigma1 = _take(classes, (s.k1_0011, s.k1_mixed, s.k1_1100), names)
    return sigma0, sigma1


def local_counts_R(event: Event, sigma0: frozenset[int], x_s: int = 0) -> LocalCountListR:
    """R0's local count list (0011, XX10, XX0X) after receiving sigma0."""
    return LocalCountListR(*map(len, _r0_classes(event, sigma0, x_s)))


def assemble_rho_R(
    event: Event, sigma0: frozenset[int], s: StrategyR, x_s: int = 0
) -> tuple[int, frozenset[int]]:
    """Build R0's forged message (y01, rho01).

    y01 negates the honest bit; rho01 takes the lowest indices from each of
    R0's local classes, per the strategy counts.
    """
    ks = (s.k_0011, s.k_xx10, s.k_xx0x)
    return 1 - x_s, _take(_r0_classes(event, sigma0, x_s), ks, ("0011", "XX10", "XX0X"))


def _all_events(m: int) -> Iterator[tuple[Event, Fraction]]:
    for codes in itertools.product(range(6), repeat=m):
        weight = Fraction(1)
        for c in codes:
            weight *= OUTCOME_PROBS[c]
        yield Event(codes), weight


# Each faulty party's coarse outcome classes, by outcome code.
_CLASS_MAP = {AdversaryConfig.S_FAULTY: S_CLASS, AdversaryConfig.R0_FAULTY: R_CLASS}


def _local_counts(event: Event, cfg: AdversaryConfig) -> tuple[int, int, int]:
    return tuple(map(len, _class_indices(event, _CLASS_MAP[cfg])))


def _strategies(cfg: AdversaryConfig, counts: tuple[int, int, int]) -> Iterator[Union[StrategyS, StrategyR]]:
    """Every k-vector that draws at most the available indices per class."""
    kind, check_sets = (StrategyS, 2) if cfg is AdversaryConfig.S_FAULTY else (StrategyR, 1)
    ranges = [range(b + 1) for b in counts] * check_sets
    return itertools.starmap(kind, itertools.product(*ranges))


def _events_by_local_list(m: int, cfg: AdversaryConfig):
    """Group all 6^m Events by the adversary's local count list."""
    grouped: dict[tuple[int, int, int], list[tuple[Event, Fraction]]] = {}
    for event, weight in _all_events(m):
        grouped.setdefault(_local_counts(event, cfg), []).append((event, weight))
    return grouped


def conditional_failure_probability(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    events: list[tuple[Event, Fraction]],
    strategy: Union[StrategyS, StrategyR],
) -> Fraction:
    """Exact failure probability of one strategy, conditioned on the given
    equal-local-count-list group of Events."""
    total = Fraction(0)
    failed = Fraction(0)
    for event, weight in events:
        total += weight
        t = run_protocol(event, p, cfg, x_s=0, strategy=strategy)
        if classify_transcript(cfg, t) is Outcome.FAILURE:
            failed += weight
    return failed / total


def max_conditional_failure(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    events: list[tuple[Event, Fraction]],
) -> Fraction:
    """Best conditional failure probability any strategy achieves on one
    local count list group (exhaustive enumeration of k-vectors)."""
    if cfg not in _CLASS_MAP:
        raise ValueError("brute-force strategy search applies to faulty configurations only")
    candidates = _strategies(cfg, _local_counts(events[0][0], cfg))
    return max(conditional_failure_probability(cfg, p, events, s) for s in candidates)


def best_failure_probability_bruteforce(cfg: AdversaryConfig, p: ProtocolParams, max_m: int = 6) -> Fraction:
    """Highest failure probability achievable by any complete strategy.

    A complete strategy maps each local count list to a check-set
    composition, so the optimum factorizes: for every local count list,
    take the best conditional failure probability, then average with the
    local-count-list probabilities. Exact rationals; m is capped because
    enumeration is 6^m Events times all k-vectors. Faulty configurations
    only: the no-faulty oracle is analytics.pf_bruteforce.
    """
    if p.m > max_m:
        raise ValueError(f"brute force limited to m <= {max_m}")
    if cfg not in _CLASS_MAP:
        raise ValueError("brute-force strategy search applies to faulty configurations only")
    total = Fraction(0)
    for _, events in _events_by_local_list(p.m, cfg).items():
        group_prob = sum(w for _, w in events)
        total += group_prob * max_conditional_failure(cfg, p, events)
    return total
