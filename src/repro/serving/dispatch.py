"""Stepwise dispatch controllers: one arrival-ordered decision at a time.

Every serving loop in this package — static least-loaded/round-robin
dispatch (under any fault schedule), the SLO-aware autoscaler and its
fault-injection twin — is *sequential in arrival order*: each decision
depends only on the decisions made for earlier arrivals.  This module
factors that sequential core into controller objects with a uniform
protocol:

* :meth:`~StaticDispatchController.on_arrival` — feed one arrival (in
  ``(arrival_s, request_id)`` order) and take its dispatch/admission/
  scaling decision;
* :meth:`~StaticDispatchController.finish_events` — apply whatever
  trailing work remains once the stream ends (fault events scheduled
  past the last arrival; the plain autoscaler no-ops);
* :meth:`~StaticDispatchController.final_jobs` — the per-chip engine runs
  still owed, as :class:`ShardJob` values an executor of the caller's
  choice performs (:func:`run_jobs` for the batch path, per-chip actors
  for the live runtime);
* :meth:`~StaticDispatchController.collect` — fold the executed jobs into
  the path's result object;
* :meth:`~StaticDispatchController.state_dict` /
  :meth:`~StaticDispatchController.restore_state` — JSON-serializable
  snapshot of the *dynamic* decision state, the substrate of
  :class:`repro.serving.runtime.Checkpoint`.  Pure memo caches (cost
  estimates, CC latencies) are deliberately excluded: they only change
  speed, never values, and rebuild lazily after a restore.

:func:`make_controller` is the one place that picks a controller for a
fleet/faults/priorities combination, and :func:`run_batch` is the one
batch driver behind both fleets' ``run``: it feeds the sorted trace
through the controller, so the live actor runtime — which drives the
*same* controllers one message at a time — is equivalent to the batch
path by construction, not by coincidence.  The fault-aware autoscaler
lives in :mod:`repro.serving.faults` next to the era machinery it shares
with :class:`StaticDispatchController`.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.simulator import PerformanceSimulator
from .faults import (
    FaultAutoscaleController,
    FaultEvent,
    FaultSchedule,
    _FaultLedger,
    _pool_order,
    _validate_targets,
    normalize_priorities,
)
from .fleet import simulate_chip_shard
from .metrics import RequestRecord, percentile
from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult

#: The engine result of a chip that received no work in a job set.
EMPTY_RESULT = ServingResult(records=(), peak_batch_size=0, decode_steps=0)

#: Execution planes of the fleet ``run`` entry points: ``"batch"`` drives
#: the controllers in a plain in-process loop (the historical path),
#: ``"live"`` drives the same controllers through the asyncio actor
#: runtime (:mod:`repro.serving.runtime`).  Results are bit-identical.
RUNTIMES: Tuple[str, ...] = ("batch", "live")


@dataclass(frozen=True)
class ShardJob:
    """One engine run a controller still owes: a chip, its sim, its shard.

    ``chip_id`` indexes the fleet (and the live runtime's chip actors);
    ``sim`` is the simulator the shard must run on — usually the fleet
    chip itself, but a degraded-era replacement on the fault paths;
    ``shard`` is the dispatch-ordered request list.  Executing a job is
    always ``sim.run(shard)``; jobs for different chips are independent.
    """

    chip_id: int
    sim: ContinuousBatchingSimulator
    shard: Tuple[ServingRequest, ...]

    def run(self) -> ServingResult:
        """Execute the job in-process."""
        return self.sim.run(list(self.shard))


def sorted_order(trace: Sequence[ServingRequest]) -> List[int]:
    """``trace`` indices in the canonical ``(arrival_s, request_id)`` order.

    Every controller must be fed arrivals in exactly this order — it is
    the order all batch loops have always used, so reusing it keeps the
    controller-driven paths byte-identical to the historical ones.
    """
    return sorted(
        range(len(trace)),
        key=lambda i: (trace[i].arrival_s, trace[i].request_id),
    )


def run_jobs(
    jobs: Sequence[ShardJob], processes: Optional[int] = None
) -> Dict[int, ServingResult]:
    """Execute ``jobs`` keyed by chip id, in-process or across ``processes``.

    Jobs for different chips are independent, so with ``processes > 1``
    and more than one job they fan out through
    :class:`~repro.experiments.parallel.ParallelSweepRunner`.  Each
    worker rebuilds its chip from ``job.sim`` — system, serving
    configuration and harvested cost memos, so a degraded-era sim
    rebuilds degraded — and returns the bit-identical result of the
    in-process run.  A sim built on a custom
    :class:`~repro.core.simulator.PerformanceSimulator` subclass cannot
    be rebuilt from its system alone, so such job sets stay in-process.
    """
    if (
        processes is not None
        and processes > 1
        and len(jobs) > 1
        and all(type(job.sim.simulator) is PerformanceSimulator for job in jobs)
    ):
        # Imported lazily: repro.experiments pulls in the experiment
        # registry, which serving must not depend on at import time.
        from ..experiments.parallel import ParallelSweepRunner

        runner = ParallelSweepRunner(processes=processes, cache=False)
        outcomes = runner.map(
            simulate_chip_shard,
            [
                {
                    "system": job.sim.simulator.system,
                    "model": job.sim.model,
                    "chip_id": job.sim.chip_id,
                    "max_batch_size": job.sim.max_batch_size,
                    "cc_bandwidth_fraction": job.sim.cc_bandwidth_fraction,
                    "context_bucket": job.sim.cost_model.context_bucket,
                    "engine": job.sim.engine,
                    "shard": list(job.shard),
                    "cc_latencies": job.sim.cc_latencies(),
                    "bucket_costs": job.sim.cost_model.bucket_costs(),
                    "step_cache": job.sim.cost_model.step_cache(),
                }
                for job in jobs
            ],
        )
        return {job.chip_id: outcome for job, outcome in zip(jobs, outcomes)}
    return {job.chip_id: job.run() for job in jobs}


def request_to_state(request: ServingRequest) -> Dict[str, Any]:
    """The ``request`` as plain JSON data (exact float repr)."""
    return {
        "request_id": request.request_id,
        "arrival_s": request.arrival_s,
        "images": request.request.images,
        "prompt_text_tokens": request.request.prompt_text_tokens,
        "output_tokens": request.request.output_tokens,
    }


#: The fields a :func:`request_to_state` document must carry, with the
#: scalar type each must coerce to.
REQUEST_STATE_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("request_id", int),
    ("arrival_s", float),
    ("images", int),
    ("prompt_text_tokens", int),
    ("output_tokens", int),
)


def request_from_state(data: Mapping[str, Any]) -> ServingRequest:
    """Rebuild a :class:`ServingRequest` from :func:`request_to_state` ``data``.

    Validates field by field: a missing or uncoercible field raises a
    ``ValueError`` *naming that field* (carried on the exception as a
    ``field`` attribute), so streaming ingestion
    (:func:`repro.serving.runtime.service.requests_from_lines`) can
    report exactly what was wrong with a malformed trace line.
    """
    from ..models.mllm import InferenceRequest

    values: Dict[str, Any] = {}
    for name, kind in REQUEST_STATE_FIELDS:
        if name not in data:
            error = ValueError(f"request state is missing field {name!r}")
            error.field = name  # type: ignore[attr-defined]
            raise error
        try:
            values[name] = kind(data[name])
        except (TypeError, ValueError):
            error = ValueError(
                f"request state field {name!r} must be "
                f"{kind.__name__}-like, got {data[name]!r}"
            )
            error.field = name  # type: ignore[attr-defined]
            raise error from None
    return ServingRequest(
        request_id=values["request_id"],
        arrival_s=values["arrival_s"],
        request=InferenceRequest(
            images=values["images"],
            prompt_text_tokens=values["prompt_text_tokens"],
            output_tokens=values["output_tokens"],
        ),
    )


def record_to_state(record: RequestRecord) -> Dict[str, Any]:
    """The ``record`` as plain JSON data.

    JSON serializes floats with ``repr``, which round-trips every finite
    double exactly — the reloaded record is ``==`` to the original, the
    property the checkpoint byte-identity contract rests on.
    """
    return {
        "request_id": record.request_id,
        "images": record.request.images,
        "prompt_text_tokens": record.request.prompt_text_tokens,
        "output_tokens": record.request.output_tokens,
        "arrival_s": record.arrival_s,
        "prefill_start_s": record.prefill_start_s,
        "prefill_end_s": record.prefill_end_s,
        "first_token_s": record.first_token_s,
        "finish_s": record.finish_s,
        "chip_id": record.chip_id,
    }


def record_from_state(data: Mapping[str, Any]) -> RequestRecord:
    """Rebuild a :class:`RequestRecord` from :func:`record_to_state` ``data``."""
    from ..models.mllm import InferenceRequest

    return RequestRecord(
        request_id=int(data["request_id"]),
        request=InferenceRequest(
            images=int(data["images"]),
            prompt_text_tokens=int(data["prompt_text_tokens"]),
            output_tokens=int(data["output_tokens"]),
        ),
        arrival_s=float(data["arrival_s"]),
        prefill_start_s=float(data["prefill_start_s"]),
        prefill_end_s=float(data["prefill_end_s"]),
        first_token_s=float(data["first_token_s"]),
        finish_s=float(data["finish_s"]),
        chip_id=int(data["chip_id"]),
    )


def result_to_state(result: ServingResult) -> Dict[str, Any]:
    """A closed-era :class:`ServingResult` ``result`` as plain JSON data."""
    return {
        "records": [record_to_state(record) for record in result.records],
        "peak_batch_size": result.peak_batch_size,
        "decode_steps": result.decode_steps,
    }


def result_from_state(data: Mapping[str, Any]) -> ServingResult:
    """Rebuild a :class:`ServingResult` from :func:`result_to_state` ``data``."""
    return ServingResult(
        records=tuple(
            record_from_state(record) for record in data["records"]
        ),
        peak_batch_size=int(data["peak_batch_size"]),
        decode_steps=int(data["decode_steps"]),
    )


class StaticDispatchController:
    """Arrival-at-a-time dispatch over a static fleet, under any fault schedule.

    The fleet's policy picks among the chips currently alive:
    ``round_robin`` cycles a position counter over them, ``least_loaded``
    takes the smallest ``(horizon, chip_id)``, a chip's horizon advancing
    by the dispatcher-side batch-1 estimate of every request it takes.
    On an empty ``schedule`` every chip stays alive and this is the plain
    static dispatch; a fault event closes the target chip's era through
    the :class:`~repro.serving.faults._FaultLedger` and re-dispatches the
    displaced requests across the survivors at the event time, highest
    ``priorities`` first (a static fleet has no admission control, so
    priorities order re-dispatch only).  Requests arriving while every
    chip is down park until a ``chip_up``.

    The controller needs the full ``trace`` up front: priority
    normalization is global and era re-dispatch reaches requests by
    trace position.
    """

    kind = "static"

    def __init__(
        self,
        fleet,
        trace: Sequence[ServingRequest],
        schedule: FaultSchedule,
        priorities: Optional[Sequence[float]] = None,
    ) -> None:
        if not trace:
            raise ValueError("trace must not be empty")
        _validate_targets(schedule, fleet.n_chips)
        self.fleet = fleet
        self.round_robin = fleet.policy == "round_robin"
        self.trace = trace
        self.schedule = schedule
        self.weights = normalize_priorities(priorities, len(trace))
        self.ledger = _FaultLedger(fleet, trace, schedule)
        self.event_pos = 0
        self.horizons = [0.0] * fleet.n_chips
        #: Alive chip ids in id order, updated on fault events only.
        self.alive = self.ledger.alive_ids()
        self.rr_position = 0
        #: ``(index, eff_arrival_s, sid)`` awaiting a ``chip_up``; ``sid``
        #: is the first-dispatch id, ``None`` for a displaced request.
        self.parked: List[Tuple[int, float, Optional[int]]] = []
        self.n_seen = 0

    def _dispatch(self, index: int, eff: float, sid: Optional[int]) -> int:
        alive = self.alive
        horizons = self.horizons
        if self.round_robin:
            chip_id = alive[self.rr_position % len(alive)]
            self.rr_position += 1
        else:
            # ``min`` keeps the first of equal keys and ``alive`` is in id
            # order, so this is the minimum of ``(horizon, chip_id)``.
            chip_id = min(alive, key=horizons.__getitem__)
        ledger = self.ledger
        floor = ledger.states[chip_id].floor
        if floor > eff:
            eff = floor
        if not self.round_robin:
            # Only least-loaded reads the horizons, so only it prices work.
            cost = ledger.estimate(chip_id, self.trace[index].request)
            horizon = horizons[chip_id]
            horizons[chip_id] = (eff if eff > horizon else horizon) + cost
        ledger.place(chip_id, index, eff, sid)
        return chip_id

    def _apply(self, event: FaultEvent) -> None:
        pool = self.ledger.apply_event(event)
        self.alive = self.ledger.alive_ids()
        if event.kind == "chip_up":
            self.horizons[event.chip_id] = (
                self.ledger.states[event.chip_id].floor
            )
            flush, self.parked = self.parked, []
            for index, eff, sid in flush:
                self._dispatch(index, max(eff, event.time_s), sid)
        for entry in _pool_order(pool, self.trace, self.weights):
            if not self.alive:
                self.parked.append((entry.index, entry.eff_arrival_s, None))
                continue
            self._dispatch(
                entry.index, max(entry.eff_arrival_s, event.time_s), None
            )

    def on_arrival(self, index: int, request: ServingRequest) -> int:
        """Apply due fault events, then dispatch (or park) one arrival.

        The arrival runs under its rank in the arrival order as its
        run-time id, so a chip breaks ties on equal arrival times in
        dispatch order.  Returns the assigned chip id, or ``-1`` when
        every chip is down and the request parks until a ``chip_up``.
        """
        sid = self.n_seen
        self.n_seen += 1
        arrival = request.arrival_s
        events = self.schedule.events
        while (
            self.event_pos < len(events)
            and events[self.event_pos].time_s <= arrival
        ):
            self._apply(events[self.event_pos])
            self.event_pos += 1
        if not self.alive:
            self.parked.append((index, arrival, sid))
            return -1
        return self._dispatch(index, arrival, sid)

    def finish_events(self) -> None:
        """Apply trailing fault events; raise if requests stayed parked."""
        events = self.schedule.events
        while self.event_pos < len(events):
            self._apply(events[self.event_pos])
            self.event_pos += 1
        if self.parked:
            raise ValueError(
                f"{len(self.parked)} requests were never dispatched: every "
                "chip was down through the end of the trace"
            )

    def final_jobs(self) -> List[ShardJob]:
        """The engine runs closing every chip's open era."""
        return self.ledger.final_jobs()

    def collect(self, results: Mapping[int, ServingResult]):
        """Fold the executed closing eras into a :class:`~repro.serving.fleet.FleetResult`."""
        from .fleet import FleetResult

        self.ledger.install_final(results)
        records, per_chip = self.ledger.collect()
        return FleetResult(
            records=records,
            per_chip=per_chip,
            assignments=tuple(self.ledger.assignments),
            fault_events=self.schedule.events,
            redispatched_ids=tuple(
                self.trace[i].request_id for i in self.ledger.redispatched
            ),
            aborted_ids=tuple(
                self.trace[i].request_id for i in self.ledger.aborted
            ),
        )

    def preview_records(self) -> Tuple[RequestRecord, ...]:
        """Records of a hypothetical end-of-stream right now (pure)."""
        return self.ledger.preview_records()

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the dynamic dispatch state.

        The schedule rides along so a resume under a different fault
        schedule is refused instead of silently diverging.
        """
        return {
            "kind": self.kind,
            "schedule": self.schedule.to_dict(),
            "n_seen": self.n_seen,
            "event_pos": self.event_pos,
            "rr_position": self.rr_position,
            "horizons": list(self.horizons),
            "parked": [list(entry) for entry in self.parked],
            "ledger": self.ledger.state_dict(),
        }

    def restore_state(
        self, state: Mapping[str, Any], trace: Sequence[ServingRequest]
    ) -> None:
        """Reload :meth:`state_dict` data (``trace`` must equal the original)."""
        if state["schedule"] != self.schedule.to_dict():
            raise ValueError(
                "controller state was taken under a different fault schedule"
            )
        self.n_seen = int(state["n_seen"])
        self.event_pos = int(state["event_pos"])
        self.rr_position = int(state["rr_position"])
        self.horizons = [float(h) for h in state["horizons"]]
        self.parked = [
            (int(index), float(eff), None if sid is None else int(sid))
            for index, eff, sid in state["parked"]
        ]
        self.ledger.restore_state(state["ledger"])
        self.alive = self.ledger.alive_ids()


class AutoscaleDispatchController:
    """Arrival-at-a-time form of the SLO-aware autoscaling control loop.

    Holds the admission heap, rolling TTFT window, cooldown clock and
    scaling ledger of an
    :class:`~repro.serving.autoscale.AutoscalingFleetSimulator` run
    without faults or priorities.  Chips replay the controlled
    assignment under synthetic positional ids and admission-delayed
    arrivals; :meth:`collect` maps the records back into an
    :class:`~repro.serving.autoscale.AutoscaleResult`.
    """

    kind = "autoscale"

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        config = fleet.autoscaler
        self.config = config
        self.assignments: Dict[int, int] = {}
        self.dispatch_time: Dict[int, float] = {}
        self.horizons: List[float] = [0.0] * fleet.n_chips
        self.inflight: List[float] = []
        self.ttft_window: Deque[float] = deque(maxlen=config.window)
        self.events: List = []
        self.rejected: List[Tuple[int, int]] = []  # (index, request_id)
        self.n_active = config.min_chips
        self.last_scale = float("-inf")
        #: index -> the arrival, for replay-shard reconstruction.
        self.seen: Dict[int, ServingRequest] = {}

    @property
    def n_seen(self) -> int:
        """Arrivals processed so far (the checkpoint cursor)."""
        return len(self.seen)

    def on_arrival(self, index: int, request: ServingRequest) -> int:
        """Admit/dispatch one arrival and take the scaling decision.

        Returns the assigned chip id, or ``-1`` when admission control
        rejected the request.
        """
        from .autoscale import ScalingEvent

        config = self.config
        self.seen[index] = request
        now = request.arrival_s

        # Admission control against the estimated in-flight depth.
        while self.inflight and self.inflight[0] <= now:
            heapq.heappop(self.inflight)
        effective = now
        depth_limit = config.max_queue_depth * self.n_active
        if len(self.inflight) >= depth_limit:
            if config.admission == "reject":
                self.rejected.append((index, request.request_id))
                return -1
            overflow = len(self.inflight) - depth_limit + 1
            for _ in range(overflow):
                effective = heapq.heappop(self.inflight)

        # Least-loaded dispatch over the active prefix.
        chip_id = min(
            range(self.n_active), key=lambda c: (self.horizons[c], c)
        )
        chip = self.fleet.chips[chip_id]
        cost = self.fleet._estimate_cost_s(chip, request.request)
        start = max(self.horizons[chip_id], effective)
        prefill = chip.cc_latency_s(request.request)
        first_step = chip.cost_model.step_latency_s(
            [self.fleet.model.prompt_tokens(request.request)]
        )
        self.ttft_window.append(start + prefill + first_step - now)
        self.horizons[chip_id] = start + cost
        heapq.heappush(self.inflight, self.horizons[chip_id])
        self.assignments[index] = chip_id
        self.dispatch_time[index] = effective

        # Control decision on the rolling percentile.
        if (
            len(self.ttft_window) >= config.min_observations
            and now - self.last_scale >= config.cooldown_s
        ):
            rolling = percentile(list(self.ttft_window), 99)
            target = config.target_p99_ttft_s
            if (
                rolling > target * config.scale_up_ratio
                and self.n_active < config.max_chips
            ):
                self.events.append(
                    ScalingEvent(
                        time_s=now,
                        n_chips_before=self.n_active,
                        n_chips_after=self.n_active + 1,
                        rolling_p99_ttft_s=rolling,
                    )
                )
                self.n_active += 1
                self.last_scale = now
            elif (
                rolling < target * config.scale_down_ratio
                and self.n_active > config.min_chips
            ):
                self.events.append(
                    ScalingEvent(
                        time_s=now,
                        n_chips_before=self.n_active,
                        n_chips_after=self.n_active - 1,
                        rolling_p99_ttft_s=rolling,
                    )
                )
                self.n_active -= 1
                self.last_scale = now
        return chip_id

    def finish_events(self) -> None:
        """No trailing work: the controller has no fault timeline."""

    def final_jobs(self) -> List[ShardJob]:
        """The exact replay shards of the controlled assignment.

        Chips run under *synthetic* positional ids with admission-delayed
        arrivals, the same contract the batch replay documents; records
        map back to true ids and arrivals in :meth:`collect`.
        """
        shards: List[List[ServingRequest]] = [
            [] for _ in range(self.fleet.n_chips)
        ]
        for index in sorted(self.assignments):
            source = self.seen[index]
            shards[self.assignments[index]].append(
                replace(
                    source,
                    request_id=index,
                    arrival_s=max(self.dispatch_time[index], source.arrival_s),
                )
            )
        return [
            ShardJob(chip_id=chip_id, sim=chip, shard=tuple(shard))
            for chip_id, (chip, shard) in enumerate(
                zip(self.fleet.chips, shards)
            )
            if shard
        ]

    def collect(self, results: Mapping[int, ServingResult]):
        """Merge executed replay jobs into an :class:`AutoscaleResult`."""
        from .autoscale import AutoscaleResult

        per_chip = tuple(
            results.get(chip_id, EMPTY_RESULT)
            for chip_id in range(self.fleet.n_chips)
        )
        records: List[RequestRecord] = []
        for result in per_chip:
            for record in result.records:
                source = self.seen[record.request_id]
                records.append(
                    replace(
                        record,
                        request_id=source.request_id,
                        arrival_s=source.arrival_s,
                    )
                )
        records.sort(key=lambda record: record.request_id)
        assignments = tuple(
            self.assignments.get(index, -1) for index in range(self.n_seen)
        )
        return AutoscaleResult(
            records=tuple(records),
            per_chip=per_chip,
            assignments=assignments,
            rejected_ids=tuple(request_id for _, request_id in self.rejected),
            events=tuple(self.events),
            final_chips=self.n_active,
        )

    def preview_records(self) -> Tuple[RequestRecord, ...]:
        """Records of a hypothetical end-of-stream right now (pure)."""
        results = run_jobs(self.final_jobs())
        return self.collect(results).records

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the dynamic control-loop state."""
        return {
            "kind": self.kind,
            "assignments": [
                [index, chip_id] for index, chip_id in self.assignments.items()
            ],
            "dispatch_time": [
                [index, time_s] for index, time_s in self.dispatch_time.items()
            ],
            "horizons": list(self.horizons),
            "inflight": list(self.inflight),
            "ttft_window": list(self.ttft_window),
            "events": [
                {
                    "time_s": event.time_s,
                    "n_chips_before": event.n_chips_before,
                    "n_chips_after": event.n_chips_after,
                    "rolling_p99_ttft_s": event.rolling_p99_ttft_s,
                }
                for event in self.events
            ],
            "rejected": [list(pair) for pair in self.rejected],
            "n_active": self.n_active,
            # -inf (never scaled) has no JSON literal; None encodes it.
            "last_scale": (
                None if self.last_scale == float("-inf") else self.last_scale
            ),
            "seen": sorted(self.seen),
        }

    def restore_state(
        self, state: Mapping[str, Any], trace: Sequence[ServingRequest]
    ) -> None:
        """Reload :meth:`state_dict` data; arrivals rebuild from ``trace``."""
        from .autoscale import ScalingEvent

        self.assignments = {
            int(index): int(chip_id) for index, chip_id in state["assignments"]
        }
        self.dispatch_time = {
            int(index): float(time_s)
            for index, time_s in state["dispatch_time"]
        }
        self.horizons = [float(h) for h in state["horizons"]]
        self.inflight = [float(f) for f in state["inflight"]]
        self.ttft_window = deque(
            (float(t) for t in state["ttft_window"]),
            maxlen=self.config.window,
        )
        self.events = [
            ScalingEvent(
                time_s=float(event["time_s"]),
                n_chips_before=int(event["n_chips_before"]),
                n_chips_after=int(event["n_chips_after"]),
                rolling_p99_ttft_s=float(event["rolling_p99_ttft_s"]),
            )
            for event in state["events"]
        ]
        self.rejected = [
            (int(index), int(request_id))
            for index, request_id in state["rejected"]
        ]
        self.n_active = int(state["n_active"])
        self.last_scale = (
            float("-inf")
            if state["last_scale"] is None
            else float(state["last_scale"])
        )
        self.seen = {int(index): trace[int(index)] for index in state["seen"]}


def make_controller(
    fleet,
    trace: Sequence[ServingRequest],
    *,
    faults: Optional[FaultSchedule] = None,
    priorities: Optional[Sequence[float]] = None,
):
    """The controller for a ``fleet``/``faults``/``priorities`` combination.

    The one place that chooses: a static fleet always gets a
    :class:`StaticDispatchController` (``faults=None`` is the empty
    schedule); an autoscaled fleet gets the streaming
    :class:`AutoscaleDispatchController` unless a fault schedule or
    priorities select the fault-aware
    :class:`~repro.serving.faults.FaultAutoscaleController`.  ``trace``
    is the full trace, which the fault-aware controllers need up front.
    """
    from .autoscale import AutoscalingFleetSimulator

    if isinstance(fleet, AutoscalingFleetSimulator):
        if faults is None and priorities is None:
            return AutoscaleDispatchController(fleet)
        controller_cls = FaultAutoscaleController
    else:
        controller_cls = StaticDispatchController
    schedule = faults if faults is not None else FaultSchedule()
    return controller_cls(fleet, trace, schedule, priorities=priorities)


#: Every controller ``kind`` :func:`make_controller` can build — the
#: kinds a :class:`~repro.serving.runtime.Checkpoint` may name.
CONTROLLER_KINDS: Tuple[str, ...] = (
    StaticDispatchController.kind,
    AutoscaleDispatchController.kind,
    FaultAutoscaleController.kind,
)


def run_batch(
    fleet,
    trace: Sequence[ServingRequest],
    *,
    faults: Optional[FaultSchedule] = None,
    priorities: Optional[Sequence[float]] = None,
):
    """Play ``trace`` through ``fleet`` in-process: the one batch driver.

    Primes the fleet's cost caches, builds the controller for ``faults``
    and ``priorities`` through :func:`make_controller`, feeds it the
    arrivals in :func:`sorted_order`, applies trailing events, executes
    the final jobs with :func:`run_jobs` (fanned out over the fleet's
    ``processes``) and returns the controller's collected result.
    """
    trace = list(trace)
    if not trace:
        raise ValueError("trace must not be empty")
    if fleet.precompute:
        fleet.precompute_service_times(trace)
    controller = make_controller(
        fleet, trace, faults=faults, priorities=priorities
    )
    for index in sorted_order(trace):
        controller.on_arrival(index, trace[index])
    controller.finish_events()
    return controller.collect(
        run_jobs(controller.final_jobs(), fleet.processes)
    )


__all__ = [
    "CONTROLLER_KINDS",
    "EMPTY_RESULT",
    "REQUEST_STATE_FIELDS",
    "RUNTIMES",
    "AutoscaleDispatchController",
    "ShardJob",
    "StaticDispatchController",
    "make_controller",
    "record_from_state",
    "record_to_state",
    "request_from_state",
    "request_to_state",
    "result_from_state",
    "result_to_state",
    "run_batch",
    "run_jobs",
    "sorted_order",
]
