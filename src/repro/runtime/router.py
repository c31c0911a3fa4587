"""Graceful degradation: route a query to the best engine the budget
can afford.

The paper's Fig. 1 story -- exhaustive simulation explodes as
``2^(2N+1)`` while cheaper estimators stay flat -- becomes an
operational decision here.  :func:`plan_engine` walks the P(error)
simulation ladder

    exhaustive (one block)  ->  chunked exhaustive  ->  Monte-Carlo

using the engines' own registry metadata
(:data:`repro.engine.registry.REGISTRY`: ``max_width``, ``block_cases``,
``cost_estimate``, ``ops_per_second``) and the
:class:`~repro.runtime.budget.RunBudget`: a width beyond the exhaustive
limit, a case count over the budget's ``max_cases``, or a deadline too
short for the estimated enumeration throughput each push the query one
rung down instead of erroring or hanging.  Every downgrade is recorded
in the result's provenance manifest (``degraded_from``), so a number
produced by a fallback engine can never masquerade as the exact oracle.

:func:`plan` walks the ladders declared as data
(:class:`~repro.engine.registry.Rung` tuples): the error-magnitude
ladder over cell chains and the zoo ladder over windowed-block adders.
Both go exact DP -> truncated DP -> sampling, each rung bounded by
per-kind width ceilings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.exceptions import AnalysisError, RefusalError
from ..obs import metrics as _metrics
from .budget import RunBudget

if TYPE_CHECKING:
    from ..engine.registry import EngineRegistry, Rung
    from ..engine.request import AnalysisRequest

ENGINE_EXHAUSTIVE = "exhaustive"
ENGINE_CHUNKED_EXHAUSTIVE = "chunked-exhaustive"
ENGINE_PARALLEL_EXHAUSTIVE = "parallel-exhaustive"
ENGINE_MONTECARLO = "montecarlo"

#: Conservative enumeration throughput (cases/second) used to judge
#: whether a deadline can afford exhaustive enumeration at all.  Kept
#: for backwards compatibility; the ladder itself now reads the
#: exhaustive engine's registered ``ops_per_second`` (same default).
#: Real machines do better; underestimating only degrades earlier,
#: which is the safe direction.
CASES_PER_SECOND_ESTIMATE = 2_000_000


@dataclass(frozen=True)
class EngineDecision:
    """The routing outcome: which engine runs and why."""

    engine: str
    reason: str
    degraded_from: Optional[str] = None
    estimated_cases: Optional[int] = None
    samples: Optional[int] = None


def _record_decision(decision: EngineDecision) -> EngineDecision:
    """Telemetry: count routing outcomes (and degradations) per engine,
    so operators can see *why* latency changed -- e.g. deadline pressure
    pushing exact queries down to Monte-Carlo."""
    if _metrics.is_enabled():
        _metrics.inc(f"runtime.router.decision.{decision.engine}")
        if decision.degraded_from is not None:
            _metrics.inc("runtime.router.degraded")
    return decision


def plan_engine(
    width: int,
    budget: Optional[RunBudget] = None,
    samples: Optional[int] = None,
    jobs: Optional[int] = None,
) -> EngineDecision:
    """Choose the strongest engine the width and budget allow.

    Preference order: single-block exhaustive (exact, fits one
    enumeration block), chunked exhaustive (exact, bounded memory),
    sharded parallel exhaustive (exact, *jobs* worker processes),
    Monte-Carlo (estimate, bounded everything).  *samples* is the
    Monte-Carlo fallback's sample count (clamped to the budget's
    ``max_samples``).  *jobs* ( >= 2) adds the parallel-exhaustive
    rung: a deadline one core cannot meet is re-judged against the
    pool's aggregate throughput before the query degrades to an
    estimate -- exactness is worth one more rung.

    Thresholds come from the engine registry rather than hard-coded
    width constants: the exhaustive engine's ``max_width``,
    ``block_cases``, ``cost_estimate`` (its abstract cost *is* the case
    count) and ``ops_per_second``, and the Monte-Carlo engine's
    ``default_samples``.
    """
    from ..engine.backends import register_builtin_engines
    from ..engine.registry import REGISTRY

    register_builtin_engines()
    exhaustive = REGISTRY.get(ENGINE_EXHAUSTIVE)
    montecarlo = REGISTRY.get(ENGINE_MONTECARLO)

    if width < 1:
        raise AnalysisError(f"width must be >= 1, got {width}")
    mc_samples = (samples if samples is not None
                  else montecarlo.default_samples or 1)
    if budget is not None and budget.max_samples is not None:
        mc_samples = min(mc_samples, budget.max_samples)

    if exhaustive.max_width is not None and width > exhaustive.max_width:
        return _record_decision(EngineDecision(
            engine=ENGINE_MONTECARLO,
            reason=f"width {width} exceeds the exhaustive limit "
                   f"({exhaustive.max_width})",
            degraded_from=ENGINE_CHUNKED_EXHAUSTIVE,
            samples=mc_samples,
        ))
    cases = int(exhaustive.cost_estimate(width, None))
    cases_per_second = int(exhaustive.ops_per_second)
    if budget is not None:
        if budget.max_cases is not None and cases > budget.max_cases:
            return _record_decision(EngineDecision(
                engine=ENGINE_MONTECARLO,
                reason=f"{cases} cases exceed the budget's max_cases "
                       f"({budget.max_cases})",
                degraded_from=ENGINE_CHUNKED_EXHAUSTIVE,
                estimated_cases=cases,
                samples=mc_samples,
            ))
        if budget.deadline_s is not None:
            affordable = int(budget.deadline_s * cases_per_second)
            if cases > affordable:
                if jobs is not None and jobs >= 2 \
                        and cases <= affordable * jobs:
                    return _record_decision(EngineDecision(
                        engine=ENGINE_PARALLEL_EXHAUSTIVE,
                        reason=f"{cases} cases overrun the "
                               f"{budget.deadline_s:g}s deadline on one "
                               f"core but fit across {jobs} workers",
                        degraded_from=ENGINE_EXHAUSTIVE,
                        estimated_cases=cases,
                    ))
                return _record_decision(EngineDecision(
                    engine=ENGINE_MONTECARLO,
                    reason=f"{cases} cases would overrun the "
                           f"{budget.deadline_s:g}s deadline at "
                           f"~{cases_per_second} cases/s",
                    degraded_from=ENGINE_CHUNKED_EXHAUSTIVE,
                    estimated_cases=cases,
                    samples=mc_samples,
                ))
    if exhaustive.block_cases is None or cases <= exhaustive.block_cases:
        return _record_decision(EngineDecision(
            engine=ENGINE_EXHAUSTIVE,
            reason=f"{cases} cases fit a single enumeration block",
            estimated_cases=cases,
        ))
    return _record_decision(EngineDecision(
        engine=ENGINE_CHUNKED_EXHAUSTIVE,
        reason=f"{cases} cases require chunked enumeration",
        degraded_from=ENGINE_EXHAUSTIVE,
        estimated_cases=cases,
    ))


@lru_cache(maxsize=None)
def _routing_data() -> Tuple["EngineRegistry",
                             Tuple[Tuple["Rung", ...], ...]]:
    """The registry and the ladders, imported once (the engine package
    imports this module, so the import has to wait for first use; by
    then the package has registered its engines)."""
    from ..engine.distribution import DISTRIBUTION_LADDER
    from ..engine.registry import REGISTRY
    from ..engine.zoo import ZOO_LADDER

    return REGISTRY, (DISTRIBUTION_LADDER, ZOO_LADDER)


def ladder_for(request: "AnalysisRequest") -> Optional[Tuple["Rung", ...]]:
    """The routing ladder whose first rung accepts *request*, if any.

    The ladders are data, declared next to their engines' width
    constants: :data:`repro.engine.distribution.DISTRIBUTION_LADDER`
    (error-magnitude kinds over cell chains) and
    :data:`repro.engine.zoo.ZOO_LADDER` (every kind over windowed-block
    adders).
    """
    registry, ladders = _routing_data()
    for ladder in ladders:
        if registry.get(ladder[0].engine).accepts(request):
            return ladder
    return None


def plan(
    request: "AnalysisRequest",
    budget: Optional[RunBudget] = None,
    samples: Optional[int] = None,
) -> EngineDecision:
    """Walk the request's ladder to the first rung that can answer it.

    A rung is taken when it serves the request's kind, the width fits
    the kind's ceiling, the estimated cost fits the budget's deadline
    (a ``None`` ceiling skips both checks), and the engine's
    ``accepts()`` holds -- so the router never picks an engine that
    refuses the request.  ``degraded_from`` names the last rung passed
    over that serves the kind; a sampling rung (one with
    ``default_samples``) gets *samples*, clamped to the budget's
    ``max_samples``.  Raises :class:`~repro.core.exceptions.RefusalError`
    when no ladder or no rung accepts the request.
    """
    registry, _ = _routing_data()
    width, kind = request.width, request.kind
    passed: Optional[str] = None
    skipped: List[str] = []
    for rung in ladder_for(request) or ():
        if kind not in rung.ceilings:
            continue
        info = registry.get(rung.engine)
        ceiling = rung.ceilings[kind]
        if ceiling is not None and width > ceiling:
            skipped.append(f"width {width} is past {rung.engine}'s "
                           f"support guard ({ceiling})")
        elif ceiling is not None and budget is not None \
                and budget.deadline_s is not None \
                and info.cost_estimate(width, None) \
                > budget.deadline_s * info.ops_per_second:
            skipped.append(f"{rung.engine} cannot meet the "
                           f"{budget.deadline_s:g}s deadline")
        elif not info.accepts(request):
            if info.max_width is not None and width > info.max_width:
                skipped.append(f"width {width} is past {rung.engine}'s "
                               f"max_width ({info.max_width})")
            else:
                skipped.append(f"{rung.engine} does not accept it")
        else:
            rung_samples = None
            if info.default_samples is not None:
                rung_samples = (samples if samples is not None
                                else info.default_samples)
                if budget is not None and budget.max_samples is not None:
                    rung_samples = min(rung_samples, budget.max_samples)
            return _record_decision(EngineDecision(
                engine=rung.engine,
                reason="; ".join(skipped + [
                    f"{rung.engine} serves {kind!r} at width {width}"]),
                degraded_from=passed,
                samples=rung_samples,
            ))
        passed = rung.engine
    raise RefusalError("; ".join(
        [f"no engine serves {kind!r} at width {width}"] + skipped))
