"""The cold end-to-end workloads, built from the benchmark seed.

Each workload is a function of ``--seed`` alone: the seed becomes the
spec's ``seed_salt``, so the program only ever sees a generated
:class:`~repro.scenarios.ScenarioSpec` and every random stream it draws
is derived from that spec's hash.  Nothing here seeds a donor cache or
reuses a fleet, simulator or store between runs.

* ``diurnal-mix`` — the catalogue's ``diurnal-week`` mix (chat, 4-image
  and long-context) under its own diurnal arrivals (0.5 rps, 120 s period)
  on its static 2-chip ``least_loaded`` fleet, batch runtime.  Hundreds of
  distinct shapes make the per-shape layers (op-graph build, priming and
  report-time pricing) dominate; the static dispatcher does almost nothing.
* ``faulted-autoscale-live`` — two weighted chat tenants plus video
  frames on a narrow prompt range (about 60 priced shapes), bursty
  arrivals, an autoscaled 1-4 chip fleet rejecting beyond its queue, a
  chip outage and a DRAM degrade, through the live actor runtime
  (unpaced, no chaos).  The per-shape layers shrink to about a third of
  the run; controllers, actor runtime and engine do the rest.
* ``plan-bnb`` — branch-and-bound capacity planning of a mixed-traffic
  scenario over a groups x mix x DRAM x keep-fraction chip grid, run
  cold against a fresh :class:`~repro.planner.PlanStore` and then
  re-planned warm against the same store.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional

from repro.planner import PlannerConfig, PlanStore, plan_scenario
from repro.scenarios import (
    MULTI_IMAGE,
    TEXT_CHAT,
    VIDEO_FRAMES,
    ArrivalSpec,
    AutoscalerSpec,
    FaultsSpec,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    get_scenario,
    run_scenario,
)

WORKLOADS = ("diurnal-mix", "faulted-autoscale-live", "plan-bnb")

#: Trace lengths, sized so one cold run fits a few seconds on a 2-core box.
DIURNAL_REQUESTS = 250
FAULTED_REQUESTS = 4000
PLAN_REQUESTS = 150

#: The planner's TTFT objective sits in the gap between two bound tiers of
#: the chip grid below (floors 1.88 s and 2.07 s, stable across seeds), so
#: the same 16 of 24 designs survive the bound pass on every seed.
PLAN_TTFT_P99_S = 1.47
PLAN_LATENCY_P95_S = 10.0


def diurnal_mix(seed: int) -> ScenarioSpec:
    """The ``diurnal-week`` catalogue scenario, resized and re-salted."""
    return replace(
        get_scenario("diurnal-week"),
        name="bench-diurnal-mix",
        n_requests=DIURNAL_REQUESTS,
        seed_salt=seed,
    )


def faulted_autoscale_live(seed: int) -> ScenarioSpec:
    """Tenant chat plus video on a faulted, autoscaled, rejecting fleet."""
    chat = replace(TEXT_CHAT, prompt_token_range=(32, 39))
    return ScenarioSpec(
        name="bench-faulted-autoscale-live",
        description="weighted tenants on a faulted autoscaled fleet",
        n_requests=FAULTED_REQUESTS,
        mix=(
            replace(chat, name="premium_chat", tenant="premium", priority=2.0),
            replace(chat, name="free_chat", weight=2.0, tenant="free"),
            VIDEO_FRAMES,
        ),
        arrival=ArrivalSpec(
            kind="bursty",
            rate_rps=1.5,
            burst_multiplier=6.0,
            mean_calm_arrivals=40.0,
            mean_burst_arrivals=20.0,
        ),
        fleet=FleetSpec(
            max_batch_size=8,
            autoscaler=AutoscalerSpec(
                min_chips=1,
                max_chips=4,
                window=32,
                min_observations=8,
                cooldown_s=1.0,
                scale_down_ratio=0.3,
                max_queue_depth=16,
                admission="reject",
            ),
        ),
        slo=SLOSpec(ttft_p99_s=2.0),
        faults=FaultsSpec(
            n_chip_failures=1,
            n_dram_degrades=1,
            window=(0.3, 0.7),
            outage_s=30.0,
        ),
        seed_salt=seed,
    )


def plan_bnb_spec(seed: int) -> ScenarioSpec:
    """Mixed chat / 4-image / video traffic for the planner."""
    return ScenarioSpec(
        name="bench-plan-bnb",
        description="mixed traffic planned by branch and bound",
        n_requests=PLAN_REQUESTS,
        mix=(
            replace(TEXT_CHAT, weight=3.0),
            MULTI_IMAGE,
            VIDEO_FRAMES,
        ),
        arrival=ArrivalSpec(kind="poisson", rate_rps=2.0),
        fleet=FleetSpec(max_batch_size=8),
        slo=SLOSpec(ttft_p99_s=PLAN_TTFT_P99_S, latency_p95_s=PLAN_LATENCY_P95_S),
        seed_salt=seed,
    )


def plan_config() -> PlannerConfig:
    """24 chip designs x (1-3 static chips + one autoscaled option)."""
    return PlannerConfig.from_axes(
        groups=(2, 4),
        mixes=((2, 2), (3, 1), (1, 3)),
        dram_gbps=(None, 204.8),
        keep_fractions=(None, 0.5),
        min_chips=1,
        max_chips=3,
    )


def digest(text: str) -> str:
    """SHA-256 of a canonical report JSON text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Setup:
    """Everything a run needs, built before the clock starts."""

    workload: str
    spec: ScenarioSpec
    config: Optional[PlannerConfig] = None
    store: Optional[PlanStore] = None

    @property
    def runtime(self) -> str:
        return "live" if self.workload == "faulted-autoscale-live" else "batch"


def build(workload: str, seed: int, store_dir: Path) -> Setup:
    """The workload's spec, planner config and (empty) plan store."""
    if workload == "diurnal-mix":
        return Setup(workload, diurnal_mix(seed))
    if workload == "faulted-autoscale-live":
        return Setup(workload, faulted_autoscale_live(seed))
    if workload == "plan-bnb":
        return Setup(
            workload, plan_bnb_spec(seed), plan_config(), PlanStore(store_dir)
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def run_once(setup: Setup, *, runtime: Optional[str] = None):
    """Spec in, canonical report JSON out, through the public entry point.

    Serving workloads call :func:`run_scenario` with its default engine;
    ``plan-bnb`` calls :func:`plan_scenario` serially against the setup's
    store, so a second call is the warm re-plan.
    """
    if setup.config is not None:
        report = plan_scenario(
            setup.spec, setup.config, search="bnb", store=setup.store
        )
    else:
        report = run_scenario(setup.spec, runtime=runtime or setup.runtime)
    return report, report.to_json()


def sim_stats(setup: Setup, report) -> Dict[str, Any]:
    """Simulated (not host) statistics; they must never move."""
    if setup.config is not None:
        best = report.best
        return {
            "n_simulated": report.n_simulated,
            "n_bound_evals": report.n_bound_evals,
            "frontier": len(report.frontier),
            "best": None if best is None else f"{best.design.name} {best.option.label}",
            "best_ttft_p99_s": None if best is None else best.ttft_p99_s,
        }
    rejected = report.autoscale.n_rejected if report.autoscale is not None else 0
    return {
        "n_requests": report.n_requests,
        "n_completed": report.n_completed,
        "rejected": rejected,
        "makespan_s": report.makespan_s,
        "ttft_p99_s": report.ttft.p99,
    }


def simulated_requests(setup: Setup, report) -> int:
    """Requests the run simulated: the trace, or the trace per candidate."""
    if setup.config is not None:
        return report.n_simulated * report.n_requests
    return report.n_requests
