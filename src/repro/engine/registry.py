"""Engine registry: capability metadata and cost estimates per backend.

Every analytical and simulation backend registers an
:class:`EngineInfo` here (see :mod:`repro.engine.backends`).  Selection
-- both the executor's default choice and the
:mod:`repro.runtime.router` degradation ladders -- reads capabilities
(``max_width``, ``exact``, ``supports_batch``) and the abstract
``cost_estimate(width, samples)`` from the registry instead of
hard-coding per-backend thresholds.  Engine families with a routing
ladder declare it as a tuple of :class:`Rung` next to their width
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.exceptions import AnalysisError
from .request import AnalysisRequest

#: Engine families.
FAMILY_ANALYTICAL = "analytical"
FAMILY_SIMULATION = "simulation"

#: Abstract cost units the estimators speak: one unit ~ one enumerated
#: case / drawn sample / recursion stage-op.  Used with
#: ``ops_per_second`` to judge deadline affordability.
CostEstimator = Callable[[int, Optional[int]], float]


@dataclass(frozen=True)
class EngineInfo:
    """Registration record for one backend."""

    name: str
    family: str                    # FAMILY_ANALYTICAL | FAMILY_SIMULATION
    request_kinds: Tuple[str, ...]
    exact: bool
    run: Callable[..., object]     # (request, **options) -> AnalysisResult
    cost_estimate: CostEstimator
    supports_batch: bool = False
    supports_trace: bool = False
    supports_correlated: bool = False
    #: Safe to execute in a worker process: the runner is a pure function
    #: of a picklable request + options (no shared mutable state beyond
    #: the per-process cache tiers, whose hit/miss deltas are merged
    #: back by :mod:`repro.engine.parallel`).
    parallel_safe: bool = False
    #: The answer is a pure function of the request alone -- no seed,
    #: sample budget or wall clock in the output -- so it may be replayed
    #: from the persistent result cache (:mod:`repro.engine.diskcache`)
    #: to any future identical request.
    deterministic: bool = False
    max_width: Optional[int] = None
    block_cases: Optional[int] = None   # chunking threshold (exhaustive)
    ops_per_second: float = 2_000_000.0
    default_samples: Optional[int] = None
    #: Understands windowed-block (``request.block``) zoo adders.  The
    #: check cuts both ways: block engines answer *only* block requests,
    #: and cell-chain engines never see a block request.
    supports_block: bool = False
    description: str = ""

    def accepts(self, request: AnalysisRequest) -> bool:
        """Static capability check (kind, width, correlation, trace)."""
        if request.kind not in self.request_kinds:
            return False
        if self.max_width is not None and request.width > self.max_width:
            return False
        if request.joints is not None and not self.supports_correlated:
            return False
        if request.keep_trace and not self.supports_trace:
            return False
        block = getattr(request, "block", None)
        if (block is not None) != self.supports_block:
            return False
        return True


@dataclass(frozen=True)
class Rung:
    """One step of a routing ladder: an engine and its width ceilings.

    Ladders are tuples of rungs, walked by
    :func:`repro.runtime.router.plan`.  *ceilings* maps each request
    kind the rung serves to the widest width it takes.  ``None`` means
    any width, taken with no deadline check: the linear-time exact DPs,
    and the sampler whose cost the budget caps through ``max_samples``.
    A kind missing from the map is skipped, so the walker moves on to
    the next rung.
    """

    engine: str
    ceilings: Mapping[str, Optional[int]]


class EngineRegistry:
    """Name -> :class:`EngineInfo` map with capability queries."""

    def __init__(self) -> None:
        self._engines: Dict[str, EngineInfo] = {}

    def register(self, info: EngineInfo, replace: bool = False) -> EngineInfo:
        if not replace and info.name in self._engines:
            raise AnalysisError(f"engine {info.name!r} already registered")
        self._engines[info.name] = info
        return info

    def get(self, name: str) -> EngineInfo:
        try:
            return self._engines[name]
        except KeyError:
            known = ", ".join(sorted(self._engines)) or "<none>"
            raise AnalysisError(
                f"unknown engine {name!r}; registered: {known}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._engines)

    def __contains__(self, name: str) -> bool:
        return name in self._engines

    def for_request(
        self,
        request: AnalysisRequest,
        family: Optional[str] = None,
        exact: Optional[bool] = None,
    ) -> List[EngineInfo]:
        """Capable engines for *request*, cheapest first."""
        found = [
            info for info in self._engines.values()
            if info.accepts(request)
            and (family is None or info.family == family)
            and (exact is None or info.exact == exact)
        ]
        found.sort(key=lambda info: info.cost_estimate(request.width, None))
        return found


#: The process-wide registry, populated by :mod:`repro.engine.backends`.
REGISTRY = EngineRegistry()
