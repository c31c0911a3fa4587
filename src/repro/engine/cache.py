"""Stage transitions of the paper's recursion (Algorithm 1, Eqs. 10-12).

The recursion's per-stage work factors into two pieces: deriving the
cell's M/K/L analysis masks from its truth table, and contracting them
with the stage's operand probabilities into the 2x2 success-carry
transition ``v_next = T v`` plus the final functional ``l`` (see
:mod:`repro.explore.hybrid_search` for the derivation).

Only the first piece is memoised.  Per truth table (keyed on its eight
``(sum, cout)`` rows, never on the cell name) this module keeps:

* the 0/1 coefficient of each operand-pair weight in each transition
  entry, which :func:`stage_transition` contracts with the stage's
  probabilities -- a handful of multiply-adds, cheaper than any lookup
  keyed on the probabilities;
* :func:`mask_arrays`, the masks' NumPy form for the vectorised engine.

Both memos are unbounded, like :mod:`repro.core.matrices`' own: at most
``4**8`` distinct tables exist.  :func:`stage_transition` is a pure
function of its arguments, so a chain's answer never depends on what
ran before it in the process.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

import numpy as np

from ..core.matrices import derive_matrices
from ..core.truth_table import FullAdderTruthTable

_Rows = Tuple[Tuple[int, int], ...]
_Coefficients = Tuple[Tuple[float, float, float, float], ...]

_COEFFICIENTS: Dict[_Rows, _Coefficients] = {}
_ARRAYS: Dict[_Rows, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


class StageTransition(NamedTuple):
    """One stage's contracted update on ``v = (P(C̄∩Succ), P(C∩Succ))``.

    ``apply`` advances the state through a non-final stage
    (K mask -> row 0, M mask -> row 1); ``success`` contracts the state
    entering the *final* stage with the L-mask functional.  A named
    tuple because one is built per stage of every chain, and tuple
    construction is about half the cost of a frozen dataclass's.
    """

    t00: float
    t01: float
    t10: float
    t11: float
    l0: float
    l1: float

    def apply(self, c0: float, c1: float) -> Tuple[float, float]:
        """``v_next = T v``: the Eq. 11 carry update."""
        return (self.t00 * c0 + self.t01 * c1,
                self.t10 * c0 + self.t11 * c1)

    def success(self, c0: float, c1: float) -> float:
        """``P(Succ) = l . v`` at the last stage (Eq. 12)."""
        return self.l0 * c0 + self.l1 * c1

    @property
    def matrix(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """``T[out][in]`` as nested tuples (hybrid-search convention)."""
        return ((self.t00, self.t01), (self.t10, self.t11))

    @property
    def final(self) -> Tuple[float, float]:
        """The final-stage functional ``(l0, l1)``."""
        return (self.l0, self.l1)


def _coefficients(table: FullAdderTruthTable) -> _Coefficients:
    """Coefficient of each pair weight in ``t00, t01, t10, t11, l0, l1``.

    Row ``(a<<2 | b<<1 | cin)`` of the truth table carries the pair
    weight indexed ``a<<1 | b``, and its carry-in picks the column: the
    K mask feeds ``t0*``, M feeds ``t1*`` and L feeds ``l*``.
    """
    rows = table.rows
    coefficients = _COEFFICIENTS.get(rows)
    if coefficients is None:
        mkl = derive_matrices(table)
        coefficients = tuple(
            tuple(float(mask[(pair << 1) | cin]) for pair in range(4))
            for mask in (mkl.k, mkl.m, mkl.l)
            for cin in (0, 1)
        )
        _COEFFICIENTS[rows] = coefficients  # type: ignore[assignment]
    return coefficients  # type: ignore[return-value]


def stage_transition(
    table: FullAdderTruthTable, p_a: float, p_b: float
) -> StageTransition:
    """The contracted transition of one stage with cell *table*.

    Each entry is a 4-term sum over the pair weights
    ``(qa·qb, qa·pb, pa·qb, pa·pb)`` in ascending pair order.  A 0/1
    coefficient either drops a weight exactly or keeps it exactly, so
    the sums are bit-identical to accumulating the weights of the mask's
    rows in row order.
    """
    p_a, p_b = float(p_a), float(p_b)
    q_a, q_b = 1.0 - p_a, 1.0 - p_b
    w0, w1, w2, w3 = q_a * q_b, q_a * p_b, p_a * q_b, p_a * p_b
    # Unrolled: this runs once per stage of every chain.
    ((a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3),
     (d0, d1, d2, d3), (e0, e1, e2, e3), (f0, f1, f2, f3)) = \
        _coefficients(table)
    return StageTransition(
        a0 * w0 + a1 * w1 + a2 * w2 + a3 * w3,
        b0 * w0 + b1 * w1 + b2 * w2 + b3 * w3,
        c0 * w0 + c1 * w1 + c2 * w2 + c3 * w3,
        d0 * w0 + d1 * w1 + d2 * w2 + d3 * w3,
        e0 * w0 + e1 * w1 + e2 * w2 + e3 * w3,
        f0 * w0 + f1 * w1 + f2 * w2 + f3 * w3,
    )


def mask_arrays(
    table: FullAdderTruthTable,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Memoised ``(m, k, l)`` float arrays for the vectorised engine."""
    rows = table.rows
    arrays = _ARRAYS.get(rows)
    if arrays is None:
        arrays = _ARRAYS[rows] = derive_matrices(table).as_arrays()
    return arrays
