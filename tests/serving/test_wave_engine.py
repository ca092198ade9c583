"""Wave engine: bit-identity against the per-step oracle.

The wave engine compresses constant-composition runs of decode steps,
batches the admission-cutoff walk into one array pass and consumes
columnar traces, but its contract is exact ``==`` equivalence with the
per-step oracle.  Every test here is an equality assertion, not a
tolerance: randomized traces (arrival process, request mixes, batch
sizes, bucket widths) must produce ``==``-identical ``RequestRecord``
tuples, peak-batch/decode-step counters, fleet traces and autoscaler
scaling decisions, whichever engine runs the decode loop.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import context_bucket_for
from repro.models.mllm import get_mllm
from repro.planner import evaluate as planner_evaluate
from repro.planner.__main__ import _build_parser as planner_parser
from repro.planner.plan import plan_scenario
from repro.scenarios import runner as scenario_runner
from repro.scenarios.__main__ import _build_parser as scenarios_parser
from repro.scenarios.__main__ import _run as scenarios_cli_run
from repro.serving import (
    DEFAULT_ENGINE,
    ENGINES,
    AutoscalerConfig,
    AutoscalingFleetSimulator,
    BurstyArrivals,
    ContinuousBatchingSimulator,
    FleetSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
    trace_to_array,
)
from repro.serving.engine import prefill_windows
from repro.serving.runtime.service import (
    run_scenario_live,
    run_scenario_supervised,
)
from repro.serving.trace import TRACE_DTYPE

MODEL = get_mllm("sphinx-tiny")

#: Shared cost-cache donor: every chip in this module prices the same
#: model on the same default system, and the CC-latency / bucket-cost /
#: step memos are independent of batch size and bucket width, so chips
#: seed from (and harvest back into) one pool.  Seeding only moves work,
#: never values — both engines of a pair get identical caches, keeping
#: each comparison fair.
_DONOR = {
    "cc": {},
    "buckets": {},
    "steps": {},
}


def _chip(engine, *, max_batch_size=8, context_bucket=32):
    chip = ContinuousBatchingSimulator(
        model=MODEL,
        max_batch_size=max_batch_size,
        context_bucket=context_bucket,
        engine=engine,
    )
    chip.seed_cc_latencies(_DONOR["cc"])
    chip.cost_model.seed_bucket_costs(_DONOR["buckets"])
    chip.cost_model.seed_step_cache(_DONOR["steps"])
    return chip


def _harvest(chip):
    _DONOR["cc"].update(chip.cc_latencies())
    _DONOR["buckets"].update(chip.cost_model.bucket_costs())
    _DONOR["steps"].update(chip.cost_model.step_cache())


def run_both(trace, *, max_batch_size=8, context_bucket=32):
    """(wave result, step result) of the same trace on twin chips."""
    results = []
    for engine in ("wave", "step"):
        chip = _chip(
            engine,
            max_batch_size=max_batch_size,
            context_bucket=context_bucket,
        )
        results.append(chip.run(trace))
        _harvest(chip)
    return results


def assert_identical(result, reference):
    """Every observable of the two runs is ``==``-identical."""
    assert result.records == reference.records
    assert result.peak_batch_size == reference.peak_batch_size
    assert result.decode_steps == reference.decode_steps


def make_trace(
    n,
    *,
    seed,
    rate=4.0,
    bursty=False,
    images=1,
    prompt_range=(4, 64),
    output_choices=(1, 2, 8, 16, 64),
):
    arrivals = (
        BurstyArrivals(rate, burst_multiplier=6.0, seed=seed)
        if bursty
        else PoissonArrivals(rate, seed=seed)
    )
    sampler = RequestSampler(
        seed=seed,
        images=images,
        prompt_token_range=prompt_range,
        output_token_choices=output_choices,
        output_token_weights=tuple(1.0 for _ in output_choices),
    )
    return build_trace(arrivals.generate(n), sampler.sample(n))


def _simultaneous_arrivals():
    base = make_trace(24, seed=3, rate=6.0)
    times = [0.0] * 8 + [t for t in range(1, 9) for _ in (0, 1)]
    return build_trace(
        [float(t) for t in times], [r.request for r in base[: len(times)]]
    )


#: Deterministic edge traces: (trace builder, chip overrides).
EDGE_CASES = {
    "single-request": (lambda: make_trace(1, seed=0), {}),
    "single-token-outputs": (
        lambda: make_trace(40, seed=1, rate=20.0, output_choices=(1,)),
        {},
    ),
    "serial-batch-of-one": (
        lambda: make_trace(30, seed=2, rate=8.0),
        {"max_batch_size": 1},
    ),
    "simultaneous-arrivals": (_simultaneous_arrivals, {"max_batch_size": 3}),
    # build_trace assigns ids positionally; feed the simulator a trace
    # whose list order disagrees with arrival order.
    "unsorted-trace-positions": (
        lambda: list(reversed(make_trace(30, seed=4, rate=10.0))),
        {},
    ),
    # Bucket width 256 with a slow trickle of arrivals produces runs
    # longer than NUMPY_FOLD_MIN, covering the np.add.accumulate path.
    "wide-bucket-numpy-fold": (
        lambda: make_trace(8, seed=5, rate=0.05, output_choices=(200, 256)),
        {"context_bucket": 256},
    ),
    # Runs between ACCUMULATE_FOLD_MIN and NUMPY_FOLD_MIN fold through
    # itertools.accumulate.
    "medium-bucket-accumulate-fold": (
        lambda: make_trace(12, seed=6, rate=0.2, output_choices=(24, 40)),
        {"context_bucket": 32},
    ),
    # A slow trickle of long decodes: admissions land mid-run, with runs
    # long past SEARCH_CUTOFF_MIN, so the vectorised cutoff (not the
    # scalar walk) picks the admission boundary.
    "long-walk-searchsorted-cutoff": (
        lambda: make_trace(10, seed=5, rate=0.05, output_choices=(200, 256)),
        {"context_bucket": 256},
    ),
}


class TestEngineSelection:
    def test_engines_tuple_and_default(self):
        assert ENGINES == ("step", "wave")
        assert DEFAULT_ENGINE == "wave"
        assert ContinuousBatchingSimulator(model=MODEL).engine == DEFAULT_ENGINE

    @pytest.mark.parametrize("engine", ["warp", "macro"])
    def test_rejects_unknown_engine(self, engine):
        with pytest.raises(ValueError, match="engine"):
            ContinuousBatchingSimulator(model=MODEL, engine=engine)

    def test_fleet_forwards_engine_to_chips(self):
        fleet = FleetSimulator(MODEL, n_chips=2, engine="step")
        assert all(chip.engine == "step" for chip in fleet.chips)
        default = FleetSimulator(MODEL, n_chips=1).chips[0].engine
        assert default == DEFAULT_ENGINE


#: Every public entry point that takes an ``engine`` argument; each must
#: default to the one :data:`DEFAULT_ENGINE` rather than a literal.
ENGINE_DEFAULT_SITES = {
    "ContinuousBatchingSimulator": ContinuousBatchingSimulator,
    "FleetSimulator": FleetSimulator,
    "AutoscalingFleetSimulator": AutoscalingFleetSimulator,
    "build_fleet": scenario_runner.build_fleet,
    "run_scenario": scenario_runner.run_scenario,
    "scenarios-cli-run": scenarios_cli_run,
    "plan_scenario": plan_scenario,
    "candidate_fleet": planner_evaluate.candidate_fleet,
    "evaluate_candidate": planner_evaluate.evaluate_candidate,
    "candidate_survives_chip_loss": planner_evaluate.candidate_survives_chip_loss,
    "simulate_candidate": planner_evaluate.simulate_candidate,
    "run_scenario_live": run_scenario_live,
    "run_scenario_supervised": run_scenario_supervised,
}

#: Each CLI's argv prefix up to its ``--engine`` flag.
ENGINE_CLIS = {
    "scenarios": (scenarios_parser, ["run", "chat-poisson"]),
    "planner": (planner_parser, ["plan", "chat-poisson"]),
}


class TestDefaultEngineNamedOnce:
    @pytest.mark.parametrize("site", list(ENGINE_DEFAULT_SITES))
    def test_engine_parameter_defaults_to_default_engine(self, site):
        engine = inspect.signature(ENGINE_DEFAULT_SITES[site]).parameters["engine"]
        assert engine.default == DEFAULT_ENGINE

    @pytest.mark.parametrize("cli", list(ENGINE_CLIS))
    def test_cli_engine_flag_defaults_to_default_engine(self, cli):
        build, argv = ENGINE_CLIS[cli]
        assert build().parse_args(argv).engine == DEFAULT_ENGINE

    @pytest.mark.parametrize("cli", list(ENGINE_CLIS))
    def test_cli_rejects_the_macro_engine(self, cli, capsys):
        build, argv = ENGINE_CLIS[cli]
        with pytest.raises(SystemExit):
            build().parse_args(argv + ["--engine", "macro"])
        assert "invalid choice: 'macro'" in capsys.readouterr().err


#: ``(arrivals, latencies) -> (starts, ends)`` of the serial CC pipeline,
#: worked by hand on dyadic floats so every sum is exact.
PREFILL_CASES = {
    "empty": (([], []), ([], [])),
    "idle-gaps": (([1.0, 5.0], [2.0, 1.0]), ([1.0, 5.0], [3.0, 6.0])),
    "queued-behind-previous": (
        ([0.0, 0.5, 1.0], [2.0, 2.0, 0.25]),
        ([0.0, 2.0, 4.0], [2.0, 4.0, 4.25]),
    ),
    "simultaneous-arrivals": (
        ([3.0, 3.0, 3.0], [0.5, 0.5, 0.5]),
        ([3.0, 3.5, 4.0], [3.5, 4.0, 4.5]),
    ),
    "arrival-at-previous-end": (
        ([0.0, 2.0, 2.0], [2.0, 1.0, 0.5]),
        ([0.0, 2.0, 3.0], [2.0, 3.0, 3.5]),
    ),
}


class TestPrefillWindows:
    @pytest.mark.parametrize("case", list(PREFILL_CASES))
    def test_serial_cc_recurrence(self, case):
        (arrivals, latencies), expected = PREFILL_CASES[case]
        assert prefill_windows(arrivals, latencies) == expected


class TestInlinedBucketArithmetic:
    def test_matches_the_canonical_quantizer(self):
        # The engine inlines context_bucket_for's arithmetic in its hot
        # loop; the two definitions must never drift.
        for width in (1, 2, 3, 7, 16, 32, 64, 131):
            for context in list(range(0, 4 * width + 2)) + [10**6, 10**6 + 1]:
                inlined = ((max(context, 1) + width - 1) // width) * width
                assert inlined == context_bucket_for(context, width)


class TestPropertyEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=90),
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.2, max_value=40.0),
        bursty=st.booleans(),
        max_batch=st.integers(min_value=1, max_value=12),
        bucket=st.sampled_from((1, 4, 16, 32, 64, 96)),
        images=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_wave_equals_step(
        self, n, seed, rate, bursty, max_batch, bucket, images
    ):
        # Mixed output lengths churn the batch composition constantly —
        # the regime where an unsound admission cutoff or composition
        # update would diverge fastest.
        trace = make_trace(
            n, seed=seed, rate=rate, bursty=bursty, images=images
        )
        wave, step = run_both(
            trace, max_batch_size=max_batch, context_bucket=bucket
        )
        assert_identical(wave, step)

    @given(
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.2, max_value=20.0),
        max_batch=st.integers(min_value=1, max_value=8),
        bucket=st.sampled_from((1, 16, 64)),
    )
    @settings(max_examples=15, deadline=None)
    def test_columnar_trace_equals_object_trace(
        self, n, seed, rate, max_batch, bucket
    ):
        # The wave engine accepts the TRACE_DTYPE array directly; the
        # records must match an object-trace wave run and the oracle.
        trace = make_trace(n, seed=seed, rate=rate)
        array = trace_to_array(trace)
        from_objects = _chip(
            "wave", max_batch_size=max_batch, context_bucket=bucket
        )
        objects_result = from_objects.run(trace)
        _harvest(from_objects)
        from_array = _chip(
            "wave", max_batch_size=max_batch, context_bucket=bucket
        )
        array_result = from_array.run(array)
        oracle = _chip(
            "step", max_batch_size=max_batch, context_bucket=bucket
        )
        step_result = oracle.run(trace)
        assert_identical(array_result, objects_result)
        assert_identical(array_result, step_result)


class TestDeterministicEdges:
    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_wave_equals_step(self, case):
        build, chip_kwargs = EDGE_CASES[case]
        assert_identical(*run_both(build(), **chip_kwargs))

    def test_empty_trace_rejected(self):
        chip = _chip("wave")
        with pytest.raises(ValueError, match="empty"):
            chip.run([])
        with pytest.raises(ValueError, match="empty"):
            chip.run(np.empty(0, dtype=TRACE_DTYPE))


class TestFleetEquivalence:
    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
    @pytest.mark.parametrize("n_chips", [1, 3])
    def test_fleet_traces_identical(self, policy, n_chips):
        trace = make_trace(80, seed=11, rate=12.0, bursty=True)
        results = []
        for engine in ("wave", "step"):
            fleet = FleetSimulator(
                MODEL, n_chips=n_chips, policy=policy, engine=engine
            )
            results.append(fleet.run(trace))
        wave, step = results
        assert wave.assignments == step.assignments
        assert wave.records == step.records
        for chip_wave, chip_step in zip(wave.per_chip, step.per_chip):
            assert chip_wave.records == chip_step.records
            assert chip_wave.peak_batch_size == chip_step.peak_batch_size
            assert chip_wave.decode_steps == chip_step.decode_steps


class TestAutoscalerEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_scale_events_and_records_identical(self, seed):
        trace = make_trace(
            120, seed=seed, rate=8.0, bursty=True, output_choices=(8, 16, 64)
        )
        config = AutoscalerConfig(
            target_p99_ttft_s=2.0,
            min_chips=1,
            max_chips=3,
            window=24,
            min_observations=8,
            cooldown_s=0.5,
            scale_up_ratio=0.5,
            max_queue_depth=16,
        )
        results = []
        for engine in ("wave", "step"):
            fleet = AutoscalingFleetSimulator(
                MODEL, autoscaler=config, engine=engine
            )
            results.append(fleet.run(trace))
        wave, step = results
        assert wave.events == step.events
        assert wave.assignments == step.assignments
        assert wave.rejected_ids == step.rejected_ids
        assert wave.records == step.records
        assert wave.final_chips == step.final_chips
