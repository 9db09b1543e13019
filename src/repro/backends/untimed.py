"""The untimed trace-driven simulator as an evaluation backend (§6-§7).

A thin adapter: :func:`repro.core.simulator.simulate` already takes
(trace, config) and returns counters; this backend maps its
:class:`~repro.core.simulator.SimResult` onto the common
:class:`~repro.backends.base.EvalOutcome` shape.  It consumes no
scenario axes beyond the machine configuration — topology, mode and
cost model do not exist in the untimed model.

Traces that carry a super-op view (loaded from a v2 store shard, or
explicitly compacted) replay through
:func:`repro.core.superop_replay.replay_superops` instead when the view
:func:`~repro.core.superop_replay.closes` under the scenario's
geometry: O(unique behaviour) work, counters bit-identical to the flat
walk.  A view that does not close replays the flat trace here.  Cold
and warm LRU ops and cold FIFO ops decide in closed form; the
remaining per-piece walks are enumerated in ``docs/fastpaths.md``.
"""

from __future__ import annotations

from ..core.simulator import simulate
from ..core.superop_replay import closes, replay_superops
from ..ir.trace import Trace
from ..obs import profile
from .base import EvalOutcome, Scenario, register_backend

__all__ = ["UntimedBackend"]


class UntimedBackend:
    """Backend ``"untimed"``: the paper's measurement instrument."""

    name = "untimed"
    scenario_axes: tuple[str, ...] = ()
    result_schema: tuple[str, ...] = (
        "page_fetches",
        "distinct_pages_fetched",
    )
    table_metrics: tuple[str, ...] = ("page_fetches",)

    def evaluate(self, trace: Trace, scenario: Scenario) -> EvalOutcome:
        # REPRO_PROFILE adds per-phase wall columns to the metrics.
        # Off by default: timings are machine-dependent, so including
        # them unconditionally would break the serial-vs-parallel
        # bit-exactness contract (and cached outcomes replay whatever
        # columns they were stored with).
        superops = trace.attached_superops()
        config = scenario.config

        def run():
            if superops is not None and superops.ops and closes(superops, config):
                return replay_superops(superops, config)
            return simulate(trace, config)

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


register_backend(UntimedBackend())
