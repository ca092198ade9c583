"""Benchmark the wave engine against the per-step oracle.

The acceptance criterion of the wave engine (`repro.serving.engine`): on
a 100,000-request mixed trace — steady interactive Poisson traffic with a
long-tailed output-length mix — compressing constant-composition decode
runs must beat the one-Python-iteration-per-step loop by >= 10x
wall-clock while producing ``==``-identical ``RequestRecord``s and
identical peak-batch/decode-step counters.

Both engines run with identically seeded cost caches (harvested from an
untimed warm-up run): the caches are engine-independent and only move
work, so the measured gap is the decode-loop compression, not a caching
artefact.

Feeds ``BENCH_results.json`` (via ``benchmarks/run.py``) with the
``serving_wave_100k`` scenario, which records the speedup ratio.
"""

import time

from repro.models.mllm import get_mllm
from repro.serving import (
    ContinuousBatchingSimulator,
    PoissonArrivals,
    RequestSampler,
    build_trace,
)

N_REQUESTS = 100_000
N_TARGET_SPEEDUP = 10
RATE_RPS = 0.5
MAX_BATCH_SIZE = 16


def bench_trace():
    """The 100k-request mixed trace: Poisson arrivals, long-tail outputs."""
    sampler = RequestSampler(
        seed=42,
        images=1,
        prompt_token_range=(16, 64),
        output_token_choices=(32, 64, 128, 256, 512),
        output_token_weights=(0.25, 0.3, 0.25, 0.15, 0.05),
    )
    return build_trace(
        PoissonArrivals(RATE_RPS, seed=42).generate(N_REQUESTS),
        sampler.sample(N_REQUESTS),
    )


def _measure():
    """(wave result, step result, wave seconds, step seconds)."""
    model = get_mllm("sphinx-tiny")
    trace = bench_trace()

    # Untimed warm-up fills the engine-independent cost memos once; both
    # timed chips then start from identical caches.
    warm = ContinuousBatchingSimulator(
        model=model, max_batch_size=MAX_BATCH_SIZE, engine="wave"
    )
    warm.run(trace)

    def seeded(engine):
        chip = ContinuousBatchingSimulator(
            model=model, max_batch_size=MAX_BATCH_SIZE, engine=engine
        )
        chip.seed_cc_latencies(warm.cc_latencies())
        chip.cost_model.seed_bucket_costs(warm.cost_model.bucket_costs())
        chip.cost_model.seed_step_cache(warm.cost_model.step_cache())
        return chip

    wave_chip = seeded("wave")
    start = time.perf_counter()
    wave = wave_chip.run(trace)
    wave_seconds = time.perf_counter() - start

    step_chip = seeded("step")
    start = time.perf_counter()
    step = step_chip.run(trace)
    step_seconds = time.perf_counter() - start
    return wave, step, wave_seconds, step_seconds


def run_wave_100k() -> dict:
    """Time both engines on the 100k trace and report the speedup ratio."""
    wave, step, wave_seconds, step_seconds = _measure()
    return {
        "requests": N_REQUESTS,
        "decode_steps": wave.decode_steps,
        "identical_records": wave.records == step.records,
        "wave_seconds": wave_seconds,
        "step_seconds": step_seconds,
        "speedup": step_seconds / wave_seconds,
    }


def test_bench_wave_engine_10x_over_per_step_loop():
    wave, step, wave_seconds, step_seconds = _measure()

    # Identity first: the speedup is worthless if a single record moved.
    assert wave.records == step.records
    assert wave.peak_batch_size == step.peak_batch_size
    assert wave.decode_steps == step.decode_steps
    assert len(wave.records) == N_REQUESTS

    speedup = step_seconds / wave_seconds
    print(
        f"\nwave engine: {wave_seconds:.2f} s | per-step loop: "
        f"{step_seconds:.2f} s | speedup {speedup:.1f}x over "
        f"{wave.decode_steps} decode steps"
    )
    assert speedup >= N_TARGET_SPEEDUP, (
        f"wave-engine speedup {speedup:.1f}x below the "
        f"{N_TARGET_SPEEDUP}x target"
    )


SCENARIOS = {
    "serving_wave_100k": run_wave_100k,
}
