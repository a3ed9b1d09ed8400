"""Adversary strategies for the faulty-sender and faulty-R0 configurations.

A strategy only fixes how many indices from each locally distinguishable
outcome class go into each check set; the failure probability does not
depend on which indices are picked within a class, so assembly always takes
the lowest indices. The optimal incomplete strategies zeta_S and zeta_R are
defined on restricted domains of local count lists; outside the domain the
verdict is OutOfDomain, which bound computations score as worst case.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .protocol import (
    AdversaryConfig,
    DomainVerdict,
    ProtocolParams,
    _block_rows,
    _failed,
    _mask,
    _one_row,
    _r0_classes,
    _rank,
)
from .source import (
    OUTCOME_PROBS,
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


# Out-of-domain reasons by the engine's code: zeta_S's first failing
# condition (1-3) and zeta_R's (4). Code 0 means in domain.
_REASONS = {
    1: "cond1: T-Q={TQ} > l1={l1}",
    2: "cond2: Q={Q} > l2={l2}",
    3: "cond3: T={T} > l3={l3}",
    4: "l1={l1} > m-T={mT}",
}


def _reason(code: int, local, p: ProtocolParams) -> str:
    l1, l2, l3 = (int(x) for x in local)
    return _REASONS[int(code)].format(T=p.T, Q=p.Q, TQ=p.T - p.Q, mT=p.m - p.T, l1=l1, l2=l2, l3=l3)


def _zeta_S_rows(local: np.ndarray, p: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """zeta_S on each row's local count list (l1, l2, l3): the reason code
    and the strategy counts (T-Q, Q, 0; 0, 0, l3), zero outside the domain."""
    l1, l2, l3 = local.T
    ood = np.select([p.T - p.Q > l1, p.Q > l2, p.T > l3], [1, 2, 3], 0).astype(np.int8)
    ks = np.zeros((len(local), 6), np.intp)
    ks[:, 0], ks[:, 1], ks[:, 5] = p.T - p.Q, p.Q, l3
    ks[ood != 0] = 0
    return ood, ks


def _zeta_R_rows(local: np.ndarray, p: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """zeta_R on each row's local count list: the reason code and the
    strategy counts (0, l2, max(0, T - l2)), zero outside the domain."""
    l1, l2, _ = local.T
    ood = np.where(l1 > p.m - p.T, 4, 0).astype(np.int8)
    ks = np.stack([np.zeros_like(l2), l2, np.maximum(p.T - l2, 0)], axis=1)
    ks[ood != 0] = 0
    return ood, ks


def _strategy_view(zeta_rows, l: LocalCountListS, p: ProtocolParams, kind: type):
    local = (l.l1, l.l2, l.l3)
    ood, ks = zeta_rows(np.array([local]), p)
    return DomainVerdict(False, _reason(ood[0], local, p)) if ood[0] else kind(*ks[0].tolist())


def zeta_S(l: LocalCountListS, p: ProtocolParams) -> Union[StrategyS, DomainVerdict]:
    """Optimal incomplete strategy (T-Q, Q, 0; 0, 0, l3) of a faulty sender.

    Defined when T-Q <= l1, Q <= l2 and T <= l3; otherwise returns the
    out-of-domain verdict naming the first failing condition.
    """
    return _strategy_view(_zeta_S_rows, l, p, StrategyS)


def zeta_R(l: LocalCountListR, p: ProtocolParams) -> Union[StrategyR, DomainVerdict]:
    """Optimal incomplete strategy (0, l2, n_min) of a faulty R0.

    n_min tops the check set up to length T with only-potentially-consistent
    XX0X indices. Defined when l1 <= m - T.
    """
    return _strategy_view(_zeta_R_rows, l, p, StrategyR)


def _ks(strategy: Union[StrategyS, StrategyR]) -> np.ndarray:
    """A strategy's counts as the one-row k array the engine takes."""
    return np.array([dataclasses.astuple(strategy)])


def local_counts_R(event: Event, sigma0: frozenset[int], x_s: int = 0) -> LocalCountListR:
    """R0's local count list (0011, XX10, XX0X) after receiving sigma0."""
    view = _rank(_r0_classes(_one_row(event), _mask(sigma0, event.m), x_s))
    return LocalCountListR(*view.sizes[0].tolist())


# Event probabilities are integer numerators over _DENOMINATOR**m.
_DENOMINATOR = math.lcm(*(q.denominator for q in OUTCOME_PROBS))
_NUMERATORS = np.array([int(q * _DENOMINATOR) for q in OUTCOME_PROBS], np.int64)


def _event_blocks(m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All 6^m Events in itertools.product order, as engine-sized blocks of
    codes, each with its rows' probability numerators over 12^m."""
    place = 6 ** np.arange(m - 1, -1, -1)
    step = _block_rows(m)
    for lo in range(0, 6**m, step):
        codes = (np.arange(lo, min(lo + step, 6**m))[:, None] // place % 6).astype(np.int8)
        yield codes, np.prod(_NUMERATORS[codes], axis=1)


def _all_events(m: int) -> Iterator[tuple[Event, Fraction]]:
    den = _DENOMINATOR**m
    for codes, nums in _event_blocks(m):
        for row, num in zip(codes.tolist(), nums.tolist()):
            yield Event(tuple(row)), Fraction(num, den)


# Each faulty party's coarse outcome classes, by outcome code.
_CLASS_MAP = {AdversaryConfig.S_FAULTY: S_CLASS, AdversaryConfig.R0_FAULTY: R_CLASS}


def _local_counts(event: Event, cfg: AdversaryConfig) -> tuple[int, int, int]:
    return tuple(np.bincount([_CLASS_MAP[cfg][c] for c in event.codes], minlength=3).tolist())


def _strategy_ks(cfg: AdversaryConfig, counts: tuple[int, int, int]) -> np.ndarray:
    """Every k-vector that draws at most the available indices per class,
    one per row."""
    check_sets = 2 if cfg is AdversaryConfig.S_FAULTY else 1
    return np.array(list(itertools.product(*[range(b + 1) for b in counts] * check_sets)))


def _events_by_local_list(m: int, cfg: AdversaryConfig):
    """Group all 6^m Events by the adversary's local count list."""
    grouped: dict[tuple[int, int, int], list[tuple[Event, Fraction]]] = {}
    for event, weight in _all_events(m):
        grouped.setdefault(_local_counts(event, cfg), []).append((event, weight))
    return grouped


def _group_rows(events: list[tuple[Event, Fraction]]) -> tuple[np.ndarray, np.ndarray]:
    """A group's code matrix and its weights as integer numerators over one
    common denominator."""
    den = math.lcm(*(w.denominator for _, w in events))
    codes = np.array([e.codes for e, _ in events], np.int8)
    return codes, np.array([w.numerator * (den // w.denominator) for _, w in events], np.int64)


def _failed_weights(cfg: AdversaryConfig, p: ProtocolParams, codes: np.ndarray, nums: np.ndarray, ks: np.ndarray):
    """Failed weight numerator of each strategy (a row of ks) on one group's
    rows. Each strategy is paired with every row; the pairs run through the
    engine a few strategies at a time, so no block exceeds its size."""
    n = len(codes)
    per = max(1, _block_rows(codes.shape[1]) // n)
    weights = []
    for lo in range(0, len(ks), per):
        chunk = ks[lo : lo + per]
        failed = _failed(cfg, p, np.tile(codes, (len(chunk), 1)), ks=np.repeat(chunk, n, axis=0))
        weights.append(failed.reshape(len(chunk), n) @ nums)
    return np.concatenate(weights)


def conditional_failure_probability(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    events: list[tuple[Event, Fraction]],
    strategy: Union[StrategyS, StrategyR],
) -> Fraction:
    """Exact failure probability of one strategy, conditioned on the given
    equal-local-count-list group of Events."""
    codes, nums = _group_rows(events)
    return Fraction(int(_failed_weights(cfg, p, codes, nums, _ks(strategy))[0]), int(nums.sum()))


def max_conditional_failure(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    events: list[tuple[Event, Fraction]],
) -> Fraction:
    """Best conditional failure probability any strategy achieves on one
    local count list group (exhaustive enumeration of k-vectors)."""
    if cfg not in _CLASS_MAP:
        raise ValueError("brute-force strategy search applies to faulty configurations only")
    codes, nums = _group_rows(events)
    ks = _strategy_ks(cfg, _local_counts(events[0][0], cfg))
    return Fraction(int(_failed_weights(cfg, p, codes, nums, ks).max()), int(nums.sum()))


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
