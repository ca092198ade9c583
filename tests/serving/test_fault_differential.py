"""Differential chaos suite: the fault path must hide when unused.

Two families of identity, both asserted with ``==`` on the full record
tuples (no tolerances — the fault path is bit-identical or broken):

* **fault-free identity** — with no fault events the static controller
  must assign and simulate like an independent heap/counter oracle
  (every engine, both dispatch policies, 1–4 chips, tied arrivals under
  ids that are not trace positions), and an empty :class:`FaultSchedule`
  and uniform priorities must reproduce the autoscaled fleet's
  fault-free run exactly.  This is what lets the fault machinery ship
  inside the serving engines without perturbing a single committed
  golden.
* **engine equivalence under faults** — step and wave runs of the
  same faulted trace produce identical records, assignments and scaling
  events.  Era splits are computed from engine-independent prefill
  windows, so the equivalence the engines already guarantee per era
  extends to the whole faulted timeline.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.mllm import get_mllm
from repro.serving import (
    AutoscalerConfig,
    AutoscalingFleetSimulator,
    BurstyArrivals,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    ServingRequest,
    build_trace,
)
from repro.serving.faults import FaultEvent, FaultSchedule
from repro.serving.fleet import POLICIES
from repro.serving.queue import ENGINES

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def model():
    return get_mllm("sphinx-tiny")


def _trace(seed, n=40):
    return build_trace(
        PoissonArrivals(6.0, seed=seed).generate(n),
        RequestSampler(
            seed=seed,
            output_token_choices=(8, 16),
            output_token_weights=(0.6, 0.4),
        ).sample(n),
    )


def _bursty_trace(seed, n=60):
    return build_trace(
        BurstyArrivals(4.0, burst_multiplier=5.0, seed=seed).generate(n),
        RequestSampler(seed=seed).sample(n),
    )


def _config():
    return AutoscalerConfig(
        target_p99_ttft_s=2.0,
        min_chips=1,
        max_chips=3,
        window=16,
        min_observations=4,
        cooldown_s=0.5,
        max_queue_depth=16,
    )


def _schedule(seed, *, n_chips, span):
    rng = random.Random(seed)
    victim, slowpoke = rng.sample(range(n_chips), 2)
    down = round(rng.uniform(0.2, 0.5) * span, 6)
    up = round(down + rng.uniform(0.1, 0.3) * span, 6)
    degrade = round(rng.uniform(0.1, 0.8) * span, 6)
    events = sorted(
        [
            FaultEvent(time_s=down, kind="chip_down", chip_id=victim),
            FaultEvent(time_s=up, kind="chip_up", chip_id=victim),
            FaultEvent(
                time_s=degrade,
                kind="dram_degrade",
                chip_id=slowpoke,
                factor=round(rng.uniform(0.3, 0.9), 3),
            ),
        ],
        key=lambda e: (e.time_s, e.chip_id, e.kind),
    )
    policy = rng.choice(("drain", "abort"))
    return FaultSchedule(events=tuple(events), drain_policy=policy)


def _heap_counter_assignments(fleet, trace):
    """Static dispatch as a round-robin counter and a least-loaded heap.

    An independent oracle for the fault-aware static controller: with no
    fault events it must assign exactly like this loop.
    """
    position = 0
    heap = [(0.0, chip_id) for chip_id in range(fleet.n_chips)]
    assignments = [0] * len(trace)
    order = sorted(
        range(len(trace)),
        key=lambda i: (trace[i].arrival_s, trace[i].request_id),
    )
    for index in order:
        request = trace[index]
        if fleet.policy == "round_robin":
            chip_id = position % fleet.n_chips
            position += 1
        else:
            horizon, chip_id = heapq.heappop(heap)
            cost = fleet._estimate_cost_s(fleet.chips[chip_id], request.request)
            heapq.heappush(
                heap, (max(horizon, request.arrival_s) + cost, chip_id)
            )
        assignments[index] = chip_id
    return assignments


def _oracle_records(fleet, trace, assignments):
    """Each chip runs its shard in trace order, as plain dispatch did."""
    shards = [[] for _ in range(fleet.n_chips)]
    for request, chip_id in zip(trace, assignments):
        shards[chip_id].append(request)
    return tuple(
        sorted(
            (
                record
                for chip, shard in zip(fleet.chips, shards)
                if shard
                for record in chip.run(shard).records
            ),
            key=lambda record: record.request_id,
        )
    )


def _duplicate_id_trace():
    return [
        ServingRequest(request_id=0, arrival_s=r.arrival_s, request=r.request)
        for r in _trace(2)[:4]
    ]


def _shuffled_tie_trace():
    """Groups of four equal arrivals whose ids run against trace order.

    Some chip always holds a tie, which it must break by request id as
    the oracle's chips do.
    """
    base = _trace(3, n=16)
    ids = random.Random(3).sample(range(100, 116), 16)
    return [
        ServingRequest(
            request_id=ids[i],
            arrival_s=base[i - i % 4].arrival_s,
            request=base[i].request,
        )
        for i in range(16)
    ]


class TestStaticDispatchOracle:
    @given(
        seed=seeds,
        n_chips=st.integers(min_value=1, max_value=4),
        policy=st.sampled_from(POLICIES),
        engine=st.sampled_from(ENGINES),
    )
    @settings(max_examples=20, deadline=None)
    def test_assignments_and_records_match_the_oracle(
        self, model, seed, n_chips, policy, engine
    ):
        trace = _trace(seed)
        fleet = FleetSimulator(
            model,
            n_chips=n_chips,
            policy=policy,
            max_batch_size=8,
            engine=engine,
        )
        result = fleet.run(trace)
        expected = _heap_counter_assignments(fleet, trace)
        assert result.assignments == tuple(expected)
        assert result.records == _oracle_records(fleet, trace, expected)
        assert result.redispatched_ids == ()
        assert result.aborted_ids == ()

    @pytest.mark.parametrize(
        "make_trace",
        [_duplicate_id_trace, _shuffled_tie_trace],
        ids=["duplicate-ids", "shuffled-tied-ids"],
    )
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n_chips", [1, 2, 3, 4])
    def test_ids_that_are_not_positions(
        self, model, n_chips, policy, make_trace
    ):
        trace = make_trace()
        fleet = FleetSimulator(
            model, n_chips=n_chips, policy=policy, max_batch_size=2
        )
        result = fleet.run(trace)
        expected = _heap_counter_assignments(fleet, trace)
        assert result.assignments == tuple(expected)
        assert result.records == _oracle_records(fleet, trace, expected)


class TestFaultFreeIdentity:
    @given(seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_autoscaled_empty_schedule_and_uniform_priorities(self, model, seed):
        trace = _bursty_trace(seed)
        engine = random.Random(seed).choice(ENGINES)

        def run(**kwargs):
            fleet = AutoscalingFleetSimulator(
                model, autoscaler=_config(), max_batch_size=8, engine=engine
            )
            return fleet.run(trace, **kwargs)

        legacy = run()
        for faulted in (
            run(faults=FaultSchedule()),
            run(priorities=[2.0] * len(trace)),
            run(faults=FaultSchedule(), priorities=[2.0] * len(trace)),
        ):
            assert faulted.records == legacy.records
            assert faulted.assignments == legacy.assignments
            assert faulted.rejected_ids == legacy.rejected_ids
            assert faulted.events == legacy.events
            assert faulted.final_chips == legacy.final_chips


class TestEngineEquivalenceUnderFaults:
    @given(seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_static_fleet_engines_agree(self, model, seed):
        trace = _trace(seed, n=48)
        schedule = _schedule(seed, n_chips=3, span=trace[-1].arrival_s)
        results = {
            engine: FleetSimulator(
                model,
                n_chips=3,
                policy="least_loaded",
                max_batch_size=8,
                engine=engine,
            ).run(trace, faults=schedule)
            for engine in ENGINES
        }
        wave, step = results["wave"], results["step"]
        assert wave.records == step.records
        assert wave.assignments == step.assignments
        assert wave.redispatched_ids == step.redispatched_ids
        assert wave.aborted_ids == step.aborted_ids

    @given(seed=seeds)
    @settings(max_examples=4, deadline=None)
    def test_autoscaled_fleet_engines_agree(self, model, seed):
        trace = _bursty_trace(seed, n=48)
        schedule = _schedule(seed, n_chips=3, span=trace[-1].arrival_s)
        results = {
            engine: AutoscalingFleetSimulator(
                model, autoscaler=_config(), max_batch_size=8, engine=engine
            ).run(trace, faults=schedule)
            for engine in ENGINES
        }
        wave, step = results["wave"], results["step"]
        assert wave.records == step.records
        assert wave.assignments == step.assignments
        assert wave.rejected_ids == step.rejected_ids
        assert wave.events == step.events
