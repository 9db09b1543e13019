"""The columnar untimed simulator as an evaluation backend.

``"untimed-vec"`` answers exactly the questions ``"untimed"`` answers
— same scenario knobs consumed (the machine configuration alone), same
access-category counters, same per-PE fetch vectors — but replays the
trace through :func:`repro.core.vec_simulator.simulate_vec`.  The two
backends are held bit-identical by the generative differential harness
in ``tests/test_vec_fidelity.py``; only the ``vec_fallback_pes``
telemetry metric (how many PE cache walks needed the scalar fallback)
and the profile phase names distinguish their outcomes, and
:meth:`~repro.backends.base.EvalOutcome.identical` ignores both.  LRU
and FIFO walks both solve in closed form — ``docs/fastpaths.md`` maps
exactly which (policy, capacity, warmth) cells replay columnar and
which fall back.

Scenario knobs the columnar engine cannot batch raise
:class:`~repro.backends.base.UnsupportedScenarioError` up front — an
unknown cache policy would otherwise only surface as a ``KeyError``
deep inside the walk, and an unknown reduction strategy (smuggled past
the config validator by a hand-built scenario) must name the backend
that refused it, exactly as the timed backend does.
"""

from __future__ import annotations

from ..cache import POLICIES
from ..core.superop_replay import closes, replay_superops
from ..core.vec_simulator import simulate_vec
from ..ir.trace import Trace
from ..obs import profile
from .base import (
    EvalOutcome,
    Scenario,
    UnsupportedScenarioError,
    register_backend,
)

__all__ = ["UntimedVecBackend"]


class UntimedVecBackend:
    """Backend ``"untimed-vec"``: columnar replay, scalar-identical."""

    name = "untimed-vec"
    scenario_axes: tuple[str, ...] = ()
    #: Same strategies the scalar engine models; the subrange combine
    #: is charged through the scalar engine's own shared routine, so
    #: the strategies can never drift apart.
    supported_reductions: tuple[str, ...] = ("host", "subrange")
    result_schema: tuple[str, ...] = (
        "page_fetches",
        "distinct_pages_fetched",
        "vec_fallback_pes",
    )
    table_metrics: tuple[str, ...] = ("page_fetches",)
    #: Counts engine decisions, not physics: super-op and flat replay
    #: of one point may differ here and still be identical().
    telemetry_metrics: tuple[str, ...] = ("vec_fallback_pes",)

    def evaluate(self, trace: Trace, scenario: Scenario) -> EvalOutcome:
        config = scenario.config
        if config.reduction_strategy not in self.supported_reductions:
            raise UnsupportedScenarioError(
                self.name,
                "reduction_strategy",
                config.reduction_strategy,
                supported=self.supported_reductions,
            )
        if config.has_cache and config.cache_policy not in POLICIES:
            raise UnsupportedScenarioError(
                self.name,
                "cache_policy",
                config.cache_policy,
                supported=tuple(POLICIES),
            )
        telemetry: dict[str, int] = {}
        superops = trace.attached_superops()

        def run():
            # A super-op view that closes under this geometry replays in
            # O(unique behaviour); any other view replays the flat trace
            # columnar.  Either engine's scalar fallback count flows into
            # the same vec_fallback_pes metric.
            if superops is not None and superops.ops and closes(superops, config):
                return replay_superops(superops, config, telemetry=telemetry)
            return simulate_vec(trace, config, telemetry)

        # Same REPRO_PROFILE opt-in (and bit-exactness caveat) as the
        # scalar untimed backend.
        phases: dict[str, float] = {}
        if profile.enabled():
            with profile.collect() as phases:
                result = run()
        else:
            result = run()
        metrics = {
            "page_fetches": float(result.page_fetches.sum()),
            "distinct_pages_fetched": float(
                result.distinct_pages_fetched.sum()
            ),
            "vec_fallback_pes": float(telemetry.get("fallback_pes", 0)),
        }
        for name, seconds in phases.items():
            metrics[f"profile_{name}_s"] = seconds
        return EvalOutcome(
            backend=self.name,
            scenario=scenario,
            stats=result.stats,
            metrics=metrics,
            per_pe={
                "page_fetches": result.page_fetches,
                "distinct_pages_fetched": result.distinct_pages_fetched,
            },
        )


register_backend(UntimedVecBackend())
