"""Engine router: degradation ladder planning and provenance stamping."""

import pytest

from repro import engine
from repro.runtime import (
    ENGINE_CHUNKED_EXHAUSTIVE,
    ENGINE_EXHAUSTIVE,
    ENGINE_MONTECARLO,
    RunBudget,
    plan_engine,
)
from repro.simulation.exhaustive import MAX_EXHAUSTIVE_WIDTH


class TestPlanEngine:
    def test_small_width_uses_exhaustive(self):
        decision = plan_engine(4)
        assert decision.engine == ENGINE_EXHAUSTIVE
        assert decision.degraded_from is None
        assert decision.estimated_cases == 1 << 9

    def test_large_width_chunks(self):
        decision = plan_engine(12)
        assert decision.engine == ENGINE_CHUNKED_EXHAUSTIVE
        assert decision.degraded_from == ENGINE_EXHAUSTIVE

    def test_absurd_width_falls_to_montecarlo(self):
        decision = plan_engine(MAX_EXHAUSTIVE_WIDTH + 1)
        assert decision.engine == ENGINE_MONTECARLO
        assert decision.degraded_from == ENGINE_CHUNKED_EXHAUSTIVE

    def test_case_budget_forces_montecarlo(self):
        decision = plan_engine(8, RunBudget(max_cases=1_000))
        assert decision.engine == ENGINE_MONTECARLO
        assert decision.estimated_cases == 1 << 17

    def test_deadline_heuristic_forces_montecarlo(self):
        # 2^29 cases cannot fit a 0.001 s deadline at any plausible rate.
        decision = plan_engine(14, RunBudget(deadline_s=0.001))
        assert decision.engine == ENGINE_MONTECARLO
        assert "deadline" in decision.reason

    def test_mc_samples_respect_budget_cap(self):
        decision = plan_engine(20, RunBudget(max_samples=5_000))
        assert decision.samples == 5_000

    def test_invalid_width_rejected(self):
        from repro.core.exceptions import AnalysisError

        with pytest.raises(AnalysisError, match="width"):
            plan_engine(0)


class TestRoutedSimulation:
    """``engine.run(..., simulate=True)`` executes the plan_engine ladder."""

    def test_exhaustive_path_is_exact(self):
        result = engine.run("LPAA 1", 4, simulate=True)
        assert result.engine == ENGINE_EXHAUSTIVE
        assert not result.truncated
        assert result.p_error == pytest.approx(
            engine.run("LPAA 1", 4).p_error, abs=1e-12
        )
        assert result.raw.manifest.degraded_from is None

    def test_degradation_is_stamped_into_provenance(self):
        result = engine.run(
            "LPAA 2", 10, simulate=True,
            budget=RunBudget(max_cases=100, max_samples=20_000), seed=5,
        )
        assert result.engine == ENGINE_MONTECARLO
        assert result.degraded_from == ENGINE_CHUNKED_EXHAUSTIVE
        assert result.raw.manifest.degraded_from \
            == ENGINE_CHUNKED_EXHAUSTIVE
        assert result.samples == 20_000

    def test_routed_checkpointing_works(self, tmp_path):
        ckpt = tmp_path / "routed.ckpt"
        routed = engine.run(
            "LPAA 3", 18, simulate=True,
            budget=RunBudget(max_samples=10_000),
            samples=10_000, seed=2, checkpoint_path=str(ckpt),
        )
        assert routed.engine == ENGINE_MONTECARLO
        assert ckpt.exists()
        resumed = engine.run(
            "LPAA 3", 18, simulate=True,
            budget=RunBudget(max_samples=10_000),
            samples=10_000, seed=2, checkpoint_path=str(ckpt), resume=True,
        )
        assert resumed.raw.errors == routed.raw.errors


def _ladder_request(ladder, kind, width):
    """A request on *ladder* for (*kind*, *width*), or None when no such
    request exists (the narrowest windowed zoo member is 2 bits)."""
    from repro.engine import REGISTRY, AnalysisRequest

    if REGISTRY.get(ladder[0].engine).supports_block:
        if width < 2:
            return None
        return AnalysisRequest.zoo(f"aca1:{width}:{min(4, width - 1)}",
                                   kind=kind)
    return AnalysisRequest.distribution("LPAA 1", width, kind=kind)


def _ladder_cases():
    from repro.engine import DISTRIBUTION_LADDER, ZOO_LADDER

    for ladder in (DISTRIBUTION_LADDER, ZOO_LADDER):
        kinds = []
        for rung in ladder:
            kinds += [k for k in rung.ceilings if k not in kinds]
        for kind in kinds:
            yield pytest.param(ladder, kind,
                               id=f"{ladder[0].engine}-{kind}")


class TestLadderInvariant:
    """The router never picks an engine that refuses the request.

    Generated from the ladder data and the registry: every ladder x
    every kind its rungs serve x the widths around every ceiling and
    every rung's ``max_width`` x four budgets.  ``plan()`` must return
    a rung whose engine accepts the request, or raise the typed
    refusal.
    """

    BUDGETS = (None, RunBudget(deadline_s=1.0), RunBudget(deadline_s=1e-9),
               RunBudget(max_samples=1000))

    @staticmethod
    def _widths(ladder):
        from repro.engine import REGISTRY

        widths = {1, 2, 62, 63, 64}
        for rung in ladder:
            for ceiling in rung.ceilings.values():
                if ceiling is not None:
                    widths |= {ceiling - 1, ceiling, ceiling + 1}
            max_width = REGISTRY.get(rung.engine).max_width
            if max_width is not None:
                widths |= {max_width - 1, max_width, max_width + 1}
        return sorted(w for w in widths if w >= 1)

    @pytest.mark.parametrize("ladder,kind", list(_ladder_cases()))
    def test_plan_returns_an_accepting_rung_or_refuses(self, ladder, kind):
        from repro.core.exceptions import RefusalError
        from repro.engine import REGISTRY
        from repro.runtime import ladder_for, plan

        engines = [rung.engine for rung in ladder]
        for width in self._widths(ladder):
            request = _ladder_request(ladder, kind, width)
            if request is None:
                continue
            assert ladder_for(request) is ladder
            for budget in self.BUDGETS:
                where = f"width={width} budget={budget}"
                try:
                    decision = plan(request, budget)
                except RefusalError:
                    continue
                info = REGISTRY.get(decision.engine)
                assert info.accepts(request), where
                rung = ladder[engines.index(decision.engine)]
                assert kind in rung.ceilings, where
                if decision.degraded_from is not None:
                    assert engines.index(decision.degraded_from) \
                        < engines.index(decision.engine), where
                assert (decision.samples is not None) \
                    == (info.default_samples is not None), where

    def test_zoo_pmf_kinds_past_the_sampler_are_refused(self):
        from repro.core.exceptions import RefusalError
        from repro.engine import ZOO_MC_MAX_WIDTH, AnalysisRequest
        from repro.runtime import plan

        width = ZOO_MC_MAX_WIDTH + 1
        for kind in ("med", "error_distribution", "mred"):
            with pytest.raises(RefusalError, match="max_width"):
                plan(AnalysisRequest.zoo(f"aca1:{width}:4", kind=kind))
        # ER and WCE stay exact at that width.
        assert plan(AnalysisRequest.zoo(f"aca1:{width}:4",
                                        kind="wce")).engine == "zoo-dp"
