"""The answer oracle: every served answer is checked in-process.

References are computed after the timed window and memoised.  Each
answer passes two checks:

* **Same engine.**  An answer claiming engine E is compared, field for
  field, with ``engine.run`` forcing E (same sample count and seed for
  the seeded samplers), so exact answers must be bit-identical.  An
  estimate must in addition lie inside the interval it reports.
* **Independent reference.**  The forced rerun shares all of E's code,
  so a kernel made faster but wrong would still match it.  Every answer
  is therefore also compared with an engine that shares no kernel with
  E: chain answers with the scalar recursion (``recursive``; or the
  exact rational ``transfer`` engine when E *is* the recursion), within
  :data:`CHAIN_ULPS_PER_STAGE` units in the last place per stage; exact
  error-magnitude answers up to :data:`ENUM_MAX_WIDTH` bits with
  exhaustive enumeration (``distribution-exhaustive`` /
  ``zoo-exhaustive``), within :data:`ENUM_REL_TOL`.  Wider magnitude
  answers and estimates have the same-engine check only: enumeration
  past 8 bits costs seconds to minutes per document.

Anything else is a failure, filed by cause.
"""

from __future__ import annotations

import json
import math
import time
from typing import Dict, List, Optional, Tuple

from repro import engine
from repro.serve import parse_analysis_doc, result_to_doc

#: Which answer field an estimate's ``interval`` bounds, per kind.
_INTERVAL_FIELD = {"med": "med", "mred": "mred",
                   "error_distribution": "p_error", "chain": "p_error"}

#: Allowed distance, in ulps of the larger value per chain stage,
#: between a float chain kernel and the independent reference.  The
#: vectorized kernel and the recursion round differently; over the
#: sweep grids and open-loop documents the largest gap seen was 1.4 ulp
#: per stage (87 ulps at w=64).  A kernel that is wrong by even one part
#: in 10^12 at w=64 lies outside it.
CHAIN_ULPS_PER_STAGE = 16

#: Exact magnitude answers up to this width are also enumerated.
ENUM_MAX_WIDTH = 8

#: Relative tolerance (with :data:`ENUM_ABS_TOL` as the absolute floor)
#: between a DP's magnitude figures and enumeration.  They sum in
#: different orders; the largest gap seen was 2.5e-13 (a bias near 0).
ENUM_REL_TOL = 1e-9
ENUM_ABS_TOL = 1e-12

#: Answer fields compared with enumeration when both sides carry them.
_MAGNITUDE_FIELDS = ("p_error", "p_success", "med", "nmed", "mse", "wce",
                     "mred", "bias")


def cause_of(status: int) -> str:
    """Failure cause for a non-200 HTTP status."""
    return {500: "http_500", 504: "http_504", 429: "shed"}.get(status,
                                                                "other")


def ulp_close(value: float, reference: float, width: int) -> bool:
    """*value* within ``CHAIN_ULPS_PER_STAGE * width`` ulps of
    *reference* (ulps of the larger of the two)."""
    if value == reference:
        return True
    scale = math.ulp(max(abs(value), abs(reference)))
    return abs(value - reference) <= CHAIN_ULPS_PER_STAGE * width * scale


def independent_engine(answer: Dict[str, object]) -> Optional[str]:
    """The engine that checks *answer* independently, or ``None`` when
    the answer gets the same-engine check only."""
    served = str(answer.get("engine"))
    if answer.get("kind", "chain") == "chain":
        return "transfer" if served == "recursive" else "recursive"
    if answer.get("exact") and int(answer["width"]) <= ENUM_MAX_WIDTH:
        return ("zoo-exhaustive" if served.startswith("zoo-")
                else "distribution-exhaustive")
    return None


def agrees(answer: Dict[str, object], reference: Dict[str, object]) -> bool:
    """*answer* matches an independent *reference* within the stated
    tolerances."""
    if answer.get("kind", "chain") == "chain":
        return ulp_close(float(answer["p_success"]),
                         float(reference["p_success"]),
                         int(answer["width"]))

    def close(a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=ENUM_REL_TOL, abs_tol=ENUM_ABS_TOL)

    for field in _MAGNITUDE_FIELDS:
        mine, theirs = answer.get(field), reference.get(field)
        if mine is not None and theirs is not None \
                and not close(float(mine), float(theirs)):
            return False
    if answer.get("distribution") is not None:
        mine = dict(map(tuple, answer["distribution"]))
        theirs = dict(map(tuple, reference.get("distribution") or ()))
        return all(close(mine.get(d, 0.0), theirs.get(d, 0.0))
                   for d in set(mine) | set(theirs))
    return True


class Oracle:
    """Memoised in-process references keyed by (document, engine)."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple[str, str, Optional[int]], Dict] = {}
        #: ``(engine, width, samples, seconds)`` of every same-engine
        #: reference run, the timed side of the router's cost-ratio
        #: metric.
        self.runs: List[Tuple[str, int, Optional[int], float]] = []

    def reference(self, doc: Dict[str, object], engine_name: str,
                  samples: Optional[int] = None,
                  timed: bool = True) -> Dict[str, object]:
        key = (json.dumps(doc, sort_keys=True), engine_name, samples)
        ref = self._memo.get(key)
        if ref is None:
            request = parse_analysis_doc(doc)
            started = time.perf_counter()
            result = engine.run(request, engine=engine_name,
                                samples=samples, seed=0)
            if timed:
                self.runs.append((engine_name, request.width, samples,
                                  time.perf_counter() - started))
            ref = json.loads(json.dumps(result_to_doc(result)))
            self._memo[key] = ref
        return ref

    def check(self, doc: Dict[str, object], status: int,
              body: bytes) -> Tuple[bool, str]:
        """``(ok, cause)`` for one HTTP exchange."""
        if status != 200:
            return False, cause_of(status)
        answer = json.loads(body)
        if answer != self.reference(doc, str(answer.get("engine")),
                                    answer.get("samples")):
            return False, "wrong"
        if not answer["exact"] and not inside_interval(answer):
            return False, "wrong"
        other = independent_engine(answer)
        if other is not None and not agrees(
                answer, self.reference(doc, other, timed=False)):
            return False, "wrong"
        return True, "ok"


def inside_interval(answer: Dict[str, object]) -> bool:
    """An estimate lies inside its own reported interval (answers that
    report none, such as the truncated DPs, pass)."""
    interval = answer.get("interval")
    if interval is None:
        return True
    value = answer.get(_INTERVAL_FIELD.get(str(answer.get("kind", "chain")),
                                           "p_error"))
    if value is None:
        return False
    low, high = interval
    return low <= value <= high
