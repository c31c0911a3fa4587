"""Exact arithmetic-error *magnitude* analysis (extension beyond the paper).

The paper reports the word-level error probability ``P(Error)``.  Error-
resilient applications usually also care about *how wrong* an erroneous
sum is (mean error distance, MSE...).  Because each stage's operand bits
are independent of its carry-in, the pair ``(approximate carry, exact
carry)`` is a Markov state, and the numeric difference

``D = approx_output - exact_output
    = sum_i (s_approx_i - s_exact_i) * 2^i  +  (c_approx_N - c_exact_N) * 2^N``

can be tracked exactly alongside it:

* :func:`error_pmf` -- the full probability mass function of ``D``
  (a DP over ``{(carry state) -> {delta: prob}}``); exponential worst
  case in width, practical to ~20 bits, guarded by ``max_entries``.
* :func:`error_moments` -- exact ``E[D]`` and ``E[D^2]`` for *any*
  width in linear time, by propagating per-state first/second moments
  instead of full distributions.
* :func:`worst_case_error` -- exact ``max |D|`` (WCE) for *any* width
  in linear time, by propagating the reachable ``[min, max]`` delta
  interval per carry-pair state (extremes compose stage-by-stage even
  though the full distribution does not).
* :func:`joint_error_pmf` -- the joint law of ``(D, exact sum)``,
  from which the mean *relative* error distance (MRED) falls out
  exactly; support is bounded by ``2^(N+1)`` exact values times the
  delta support, so the same ``max_entries`` guard applies.

All support hybrid chains and per-bit probabilities, and are
cross-validated against exhaustive enumeration and each other.  When a
guarded DP outgrows ``max_entries`` it raises
:class:`~repro.core.exceptions.SupportLimitError` carrying the width,
support size and stage, so callers (the engine's distribution router)
can degrade to a truncated DP or Monte-Carlo instead of parsing the
message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .exceptions import AnalysisError, SupportLimitError
from .recursive import CellSpec, resolve_chain
from .truth_table import ACCURATE
from .types import (
    Probability,
    validate_probability,
    validate_probability_vector,
)

#: Carry-pair Markov states ``(c_approx, c_exact)``.
_STATES: Tuple[Tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


def _weights(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int],
    p_a: Union[Probability, Sequence[Probability]],
    p_b: Union[Probability, Sequence[Probability]],
    p_cin: Probability,
):
    cells = resolve_chain(cell, width)
    n = len(cells)
    pa = [float(p) for p in validate_probability_vector(p_a, n, "p_a")]
    pb = [float(p) for p in validate_probability_vector(p_b, n, "p_b")]
    pc = float(validate_probability(p_cin, "p_cin"))
    return cells, n, pa, pb, pc


def error_pmf(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    max_entries: int = 2_000_000,
    prune_below: float = 0.0,
    quantize: Optional[Callable[[int], int]] = None,
) -> Dict[int, float]:
    """Exact PMF of ``D = approx - exact`` for the whole adder output.

    Parameters
    ----------
    max_entries:
        Abort (``AnalysisError``) if the intermediate support grows past
        this many ``(state, delta)`` pairs -- a guard against
        pathological very wide adders.
    prune_below:
        Optionally drop deltas whose accumulated mass is below this
        threshold (default 0: fully exact).  When pruning, the returned
        PMF may sum to slightly less than 1.
    quantize:
        Optionally map every accumulated delta through this function
        (the engine's truncated rung rounds to a few significant bits).
        Nearby deltas merge and no mass drops, so the PMF still sums to
        1 and the error rate stays exact.

    Returns
    -------
    dict
        ``{delta: probability}`` with strictly positive probabilities.
    """
    cells, n, pa, pb, pc = _weights(cell, width, p_a, p_b, p_cin)

    # state -> {delta: prob}; both chains share the carry-in.
    dists: Dict[Tuple[int, int], Dict[int, float]] = {
        (0, 0): {0: 1.0 - pc} if pc < 1.0 else {},
        (1, 1): {0: pc} if pc > 0.0 else {},
    }

    for i, table in enumerate(cells):
        weight_bit = 1 << i
        nxt: Dict[Tuple[int, int], Dict[int, float]] = {}
        for (ca, ce), dist in dists.items():
            if not dist:
                continue
            for a in (0, 1):
                wa = pa[i] if a else 1.0 - pa[i]
                if wa == 0.0:
                    continue
                for b in (0, 1):
                    wb = pb[i] if b else 1.0 - pb[i]
                    w = wa * wb
                    if w == 0.0:
                        continue
                    sa, ca_next = table.evaluate(a, b, ca)
                    se, ce_next = ACCURATE.evaluate(a, b, ce)
                    delta_inc = (sa - se) * weight_bit
                    bucket = nxt.setdefault((ca_next, ce_next), {})
                    if quantize is None:
                        for delta, prob in dist.items():
                            key = delta + delta_inc
                            bucket[key] = bucket.get(key, 0.0) + prob * w
                    else:
                        for delta, prob in dist.items():
                            key = quantize(delta + delta_inc)
                            bucket[key] = bucket.get(key, 0.0) + prob * w
        if prune_below > 0.0:
            for bucket in nxt.values():
                stale = [d for d, p in bucket.items() if p < prune_below]
                for d in stale:
                    del bucket[d]
        size = sum(len(bucket) for bucket in nxt.values())
        if size > max_entries:
            raise SupportLimitError(
                f"error_pmf support for the width-{n} chain exceeded "
                f"max_entries={max_entries} at stage {i} ({size} "
                f"(state, delta) pairs); raise the limit, set "
                "prune_below, or use error_moments() for wide adders",
                width=n, entries=size, limit=max_entries, stage=i,
            )
        dists = nxt

    weight_carry = 1 << n
    pmf: Dict[int, float] = {}
    for (ca, ce), dist in dists.items():
        delta_inc = (ca - ce) * weight_carry
        for delta, prob in dist.items():
            key = delta + delta_inc
            if quantize is not None:
                key = quantize(key)
            pmf[key] = pmf.get(key, 0.0) + prob
    return {d: p for d, p in pmf.items() if p > 0.0}


@dataclass(frozen=True)
class ErrorMoments:
    """Exact first/second moments of the arithmetic error ``D``."""

    mean: float
    second_moment: float
    width: int

    @property
    def variance(self) -> float:
        """``Var[D] = E[D^2] - E[D]^2`` (clamped at 0 for rounding)."""
        return max(self.second_moment - self.mean * self.mean, 0.0)

    @property
    def rms(self) -> float:
        """Root-mean-square error ``sqrt(E[D^2])``."""
        return self.second_moment ** 0.5

    @property
    def normalized_rms(self) -> float:
        """RMS divided by the maximum exact output ``2^(N+1) - 1``."""
        return self.rms / float((1 << (self.width + 1)) - 1)


def error_moments(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> ErrorMoments:
    """Exact ``E[D]`` and ``E[D^2]`` in O(width) time and O(1) memory.

    Per carry-pair state ``s`` we propagate ``(p_s, m1_s, m2_s)`` where
    ``m1_s = E[D * 1_s]`` and ``m2_s = E[D^2 * 1_s]``; an increment
    ``delta`` on a transition of weight ``w`` updates them linearly:

    ``p' += w p``, ``m1' += w (m1 + delta p)``,
    ``m2' += w (m2 + 2 delta m1 + delta^2 p)``.
    """
    cells, n, pa, pb, pc = _weights(cell, width, p_a, p_b, p_cin)

    stats: Dict[Tuple[int, int], Tuple[float, float, float]] = {
        (0, 0): (1.0 - pc, 0.0, 0.0),
        (0, 1): (0.0, 0.0, 0.0),
        (1, 0): (0.0, 0.0, 0.0),
        (1, 1): (pc, 0.0, 0.0),
    }

    for i, table in enumerate(cells):
        weight_bit = float(1 << i)
        nxt = {state: [0.0, 0.0, 0.0] for state in _STATES}
        for (ca, ce), (p, m1, m2) in stats.items():
            if p == 0.0 and m1 == 0.0 and m2 == 0.0:
                continue
            for a in (0, 1):
                wa = pa[i] if a else 1.0 - pa[i]
                if wa == 0.0:
                    continue
                for b in (0, 1):
                    wb = pb[i] if b else 1.0 - pb[i]
                    w = wa * wb
                    if w == 0.0:
                        continue
                    sa, ca_next = table.evaluate(a, b, ca)
                    se, ce_next = ACCURATE.evaluate(a, b, ce)
                    delta = (sa - se) * weight_bit
                    acc = nxt[(ca_next, ce_next)]
                    acc[0] += w * p
                    acc[1] += w * (m1 + delta * p)
                    acc[2] += w * (m2 + 2.0 * delta * m1 + delta * delta * p)
        stats = {state: tuple(vals) for state, vals in nxt.items()}  # type: ignore[misc]

    weight_carry = float(1 << n)
    mean = 0.0
    second = 0.0
    for (ca, ce), (p, m1, m2) in stats.items():
        delta = (ca - ce) * weight_carry
        mean += m1 + delta * p
        second += m2 + 2.0 * delta * m1 + delta * delta * p
    return ErrorMoments(mean=mean, second_moment=second, width=n)


@dataclass(frozen=True)
class WorstCaseError:
    """Exact extremes of the arithmetic error ``D`` (all exact integers)."""

    min_delta: int
    max_delta: int
    width: int

    @property
    def wce(self) -> int:
        """Worst-case error ``max |D|`` over the reachable support."""
        return max(abs(self.min_delta), abs(self.max_delta))

    @property
    def normalized_wce(self) -> float:
        """WCE divided by the maximum exact output ``2^(N+1) - 1``."""
        return self.wce / float((1 << (self.width + 1)) - 1)


def worst_case_error(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> WorstCaseError:
    """Exact ``max |D|`` (WCE) in O(width) time and O(1) memory.

    The full delta *distribution* does not compose linearly, but its
    reachable ``[min, max]`` interval does: per carry-pair state we
    track the extreme deltas attainable with positive probability, and
    each stage shifts them by the extreme ``(s_approx - s_exact) * 2^i``
    increments of its reachable transitions.  Zero-probability operand
    values (``p == 0`` or ``p == 1`` bits) are excluded, so the answer
    is the exact worst case *under the given input distribution*, in
    exact integer arithmetic at any width.
    """
    cells, n, pa, pb, pc = _weights(cell, width, p_a, p_b, p_cin)

    # state -> (min reachable delta, max reachable delta); states with
    # zero probability mass are simply absent.
    spans: Dict[Tuple[int, int], Tuple[int, int]] = {}
    if pc < 1.0:
        spans[(0, 0)] = (0, 0)
    if pc > 0.0:
        spans[(1, 1)] = (0, 0)

    for i, table in enumerate(cells):
        weight_bit = 1 << i
        nxt: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for (ca, ce), (lo, hi) in spans.items():
            for a in (0, 1):
                if (pa[i] if a else 1.0 - pa[i]) == 0.0:
                    continue
                for b in (0, 1):
                    if (pb[i] if b else 1.0 - pb[i]) == 0.0:
                        continue
                    sa, ca_next = table.evaluate(a, b, ca)
                    se, ce_next = ACCURATE.evaluate(a, b, ce)
                    inc = (sa - se) * weight_bit
                    key = (ca_next, ce_next)
                    cur = nxt.get(key)
                    if cur is None:
                        nxt[key] = (lo + inc, hi + inc)
                    else:
                        nxt[key] = (min(cur[0], lo + inc),
                                    max(cur[1], hi + inc))
        spans = nxt

    weight_carry = 1 << n
    lo_all: Optional[int] = None
    hi_all: Optional[int] = None
    for (ca, ce), (lo, hi) in spans.items():
        inc = (ca - ce) * weight_carry
        lo_all = lo + inc if lo_all is None else min(lo_all, lo + inc)
        hi_all = hi + inc if hi_all is None else max(hi_all, hi + inc)
    return WorstCaseError(min_delta=int(lo_all or 0),
                          max_delta=int(hi_all or 0), width=n)


def joint_error_pmf(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    max_entries: int = 2_000_000,
    prune_below: float = 0.0,
) -> Dict[Tuple[int, int], float]:
    """Exact joint PMF of ``(D, exact sum)``.

    Extends the :func:`error_pmf` DP with the exact adder's partial
    value, so relative-error metrics (MRED: ``E[|D| / max(exact, 1)]``)
    come out exactly instead of sample-only.  Support is bounded by the
    ``2^(N+1)`` exact values times the per-value delta support, so the
    practical width limit is lower than :func:`error_pmf`'s (~12 bits at
    the default guard); past it a :class:`SupportLimitError` is raised.

    Returns ``{(delta, exact_sum): probability}``.
    """
    cells, n, pa, pb, pc = _weights(cell, width, p_a, p_b, p_cin)

    # state -> {(delta, exact partial value): prob}
    dists: Dict[Tuple[int, int], Dict[Tuple[int, int], float]] = {
        (0, 0): {(0, 0): 1.0 - pc} if pc < 1.0 else {},
        (1, 1): {(0, 0): pc} if pc > 0.0 else {},
    }

    for i, table in enumerate(cells):
        weight_bit = 1 << i
        nxt: Dict[Tuple[int, int], Dict[Tuple[int, int], float]] = {}
        for (ca, ce), dist in dists.items():
            if not dist:
                continue
            for a in (0, 1):
                wa = pa[i] if a else 1.0 - pa[i]
                if wa == 0.0:
                    continue
                for b in (0, 1):
                    wb = pb[i] if b else 1.0 - pb[i]
                    w = wa * wb
                    if w == 0.0:
                        continue
                    sa, ca_next = table.evaluate(a, b, ca)
                    se, ce_next = ACCURATE.evaluate(a, b, ce)
                    delta_inc = (sa - se) * weight_bit
                    value_inc = se * weight_bit
                    bucket = nxt.setdefault((ca_next, ce_next), {})
                    for (delta, value), prob in dist.items():
                        key = (delta + delta_inc, value + value_inc)
                        bucket[key] = bucket.get(key, 0.0) + prob * w
        if prune_below > 0.0:
            for bucket in nxt.values():
                stale = [k for k, p in bucket.items() if p < prune_below]
                for k in stale:
                    del bucket[k]
        size = sum(len(bucket) for bucket in nxt.values())
        if size > max_entries:
            raise SupportLimitError(
                f"joint_error_pmf support for the width-{n} chain "
                f"exceeded max_entries={max_entries} at stage {i} "
                f"({size} (state, delta, value) entries); raise the "
                "limit, set prune_below, or estimate MRED by sampling",
                width=n, entries=size, limit=max_entries, stage=i,
            )
        dists = nxt

    weight_carry = 1 << n
    joint: Dict[Tuple[int, int], float] = {}
    for (ca, ce), dist in dists.items():
        delta_inc = (ca - ce) * weight_carry
        value_inc = ce * weight_carry
        for (delta, value), prob in dist.items():
            key = (delta + delta_inc, value + value_inc)
            joint[key] = joint.get(key, 0.0) + prob
    return {k: p for k, p in joint.items() if p > 0.0}


def relative_error_from_joint(
    joint: Dict[Tuple[int, int], float]
) -> float:
    """MRED ``E[|D| / max(exact, 1)]`` from a :func:`joint_error_pmf`."""
    return float(sum(
        abs(delta) / float(max(value, 1)) * prob
        for (delta, value), prob in joint.items()
    ))
