"""Stage transitions: a pure function of (truth table, P(A), P(B))."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.adders import PAPER_LPAAS
from repro.core.matrices import derive_matrices
from repro.core.truth_table import ACCURATE
from repro.engine import AnalysisRequest, run
from repro.engine.cache import StageTransition, mask_arrays, stage_transition

CELLS = (ACCURATE, *PAPER_LPAAS)


def _row_order_contraction(table, p_a, p_b):
    """Eqs. 10-12 spelled out: visit the truth-table rows in order and
    add each success row's pair weight to the entry its mask and
    carry-in select."""
    mkl = derive_matrices(table)
    qa, qb = 1.0 - p_a, 1.0 - p_b
    pair = (qa * qb, qa * p_b, p_a * qb, p_a * p_b)
    t = [0.0] * 6  # t00 t01 t10 t11 l0 l1
    for row in range(8):
        weight, cin = pair[row >> 1], row & 1
        if mkl.k[row]:
            t[0 + cin] += weight
        if mkl.m[row]:
            t[2 + cin] += weight
        if mkl.l[row]:
            t[4 + cin] += weight
    return tuple(t)


class TestStageTransition:
    def test_matches_direct_recursion(self):
        # Accurate cell at p=0.5: carry-out of a successful stage is
        # correct by construction, and success from (0.5, 0.5) is 1.
        t = stage_transition(ACCURATE, 0.5, 0.5)
        assert isinstance(t, StageTransition)
        assert t.success(0.5, 0.5) == pytest.approx(1.0)

    def test_apply_conserves_mass_for_accurate(self):
        t = stage_transition(ACCURATE, 0.3, 0.8)
        c0, c1 = t.apply(1.0, 0.0)
        assert 0.0 <= c0 <= 1.0 and 0.0 <= c1 <= 1.0
        assert c0 + c1 == pytest.approx(1.0)  # exact cell never fails

    def test_matrix_and_final_views(self):
        t = stage_transition(PAPER_LPAAS[0], 0.25, 0.75)
        (t00, t01), (t10, t11) = t.matrix
        assert (t00, t01, t10, t11) == (t.t00, t.t01, t.t10, t.t11)
        assert t.final == (t.l0, t.l1)


class TestPureFunction:
    def test_bit_identical_to_row_order_contraction(self):
        rng = np.random.default_rng(20170618)
        grid = [0.0, 0.5, 1.0, 5e-324, 1.0 - 2.0 ** -53,
                *rng.random(40).tolist()]
        for table in CELLS:
            for p_a in grid:
                for p_b in grid[::3]:
                    got = tuple(stage_transition(table, p_a, p_b))
                    want = _row_order_contraction(table, p_a, p_b)
                    assert [x.hex() for x in got] == \
                        [x.hex() for x in want], (table.name, p_a, p_b)

    def test_same_rows_give_identical_transitions_across_table_objects(self):
        # The memo key is the truth-table rows, not object identity.
        clone = type(ACCURATE)(ACCURATE.rows, name="clone-of-accurate")
        assert stage_transition(clone, 0.3, 0.6) == \
            stage_transition(ACCURATE, 0.3, 0.6)
        assert mask_arrays(clone) is mask_arrays(ACCURATE)

    def test_nearby_probabilities_are_not_merged(self):
        # Each call contracts its own probabilities: a value 1e-14 away
        # is not served the transition of an earlier caller.
        base = stage_transition(PAPER_LPAAS[1], 0.5, 0.5)
        nudged = stage_transition(PAPER_LPAAS[1], 0.5 + 1e-14, 0.5)
        assert nudged == _row_order_contraction(PAPER_LPAAS[1],
                                                0.5 + 1e-14, 0.5)
        assert nudged != base


class TestHistoryIndependence:
    P_A = 0.1234567891
    NUDGED = 0.1234567891 + 2e-13

    def test_chain_answer_does_not_depend_on_earlier_requests(self):
        # The two probabilities round to the same 12 digits.  A
        # probability-keyed cache would serve the second request the
        # first one's transitions; the answer must instead match a fresh
        # process that runs the second request alone.
        run(request=AnalysisRequest.chain("LPAA 1", 32, p_a=self.P_A))
        warm = run(request=AnalysisRequest.chain(
            "LPAA 1", 32, p_a=self.NUDGED)).p_success

        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "from repro.engine import AnalysisRequest, run\n"
            "print(repr(run(request=AnalysisRequest.chain("
            f"'LPAA 1', 32, p_a={self.NUDGED!r})).p_success))\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout.strip()
        assert repr(warm) == fresh
