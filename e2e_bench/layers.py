"""Outside-in per-layer tracing: wrap each layer's public entry points.

The traced run installs a wrapper at the exact name a caller looks up —
a module global such as ``repro.scenarios.runner.compile_scenario`` or a
class attribute such as ``ContinuousBatchingSimulator.run`` — times every
call into it, and restores the original afterwards.  Nothing under
``src/`` changes.

Spans nest on one stack: a span's *self* time is its duration minus the
durations of the spans it directly contains.  A call into a layer that is
already active (a re-entrant call of the same layer) is passed through
untimed, so a layer's time is never counted twice.

``HOOKS`` is the single table of what is wrapped, under which layer name,
and on which workloads the wrapper must fire at least once (the span
self-check: a renamed or bypassed entry point shows up as a missing span
instead of a silent zero).
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

DIURNAL = ("diurnal-mix",)
LIVE = ("faulted-autoscale-live",)
PLAN = ("plan-bnb",)
SERVING = DIURNAL + LIVE
ALL = SERVING + PLAN


@dataclass(frozen=True)
class Hook:
    """One wrapper: where it goes, its layer, and where it must fire."""

    module: str
    owner: Optional[str]  # class name inside ``module``; None for a global
    attr: str  # defined on ``owner`` itself (or in ``module``), not inherited
    layer: str
    expect: Tuple[str, ...]
    #: ``None`` for a plain span; otherwise the name of a collector method
    #: that also inspects the call's arguments and result.
    observe: Optional[str] = None

    @property
    def label(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}:{owner}{self.attr}"


HOOKS: Tuple[Hook, ...] = (
    Hook("repro.scenarios.runner", None, "compile_scenario", "compile", SERVING,
         "on_compile"),
    Hook("repro.planner.plan", None, "compile_scenario", "compile", PLAN,
         "on_compile"),
    Hook("repro.models.mllm", "MLLMConfig", "build_workload", "models", ALL),
    Hook("repro.serving.fleet", "FleetSimulator", "precompute_service_times",
         "prime", ALL),
    Hook("repro.core.batch", "BatchCostEngine", "evaluate", "batch.evaluate",
         ALL),
    Hook("repro.scenarios.runner", None, "price_offered_load", "pricing", SERVING,
         "on_pricing"),
    Hook("repro.serving.dispatch", "StaticDispatchController", "on_arrival",
         "dispatch", DIURNAL + PLAN),
    Hook("repro.serving.dispatch", "AutoscaleDispatchController", "on_arrival",
         "dispatch", PLAN),
    Hook("repro.serving.faults", "FaultAutoscaleController", "on_arrival",
         "dispatch", LIVE),
    Hook("repro.serving.queue", "ContinuousBatchingSimulator", "run", "engine",
         ALL, "on_engine"),
    Hook("repro.core.simulator", "PerformanceSimulator", "__init__",
         "simulator.init", ALL, "on_simulator"),
    Hook("repro.serving.runtime", None, "run_live", "runtime.live", LIVE),
    Hook("repro.serving.runtime.actors", "Actor", "post", "runtime.post", LIVE),
    Hook("repro.scenarios.report", "ScenarioReport", "to_json", "report.to_json",
         SERVING),
    Hook("repro.planner.report", "PlanReport", "to_json", "report.to_json",
         PLAN),
    Hook("repro.planner.plan", None, "bnb_prune_designs", "planner.bnb", PLAN,
         "on_bnb"),
    Hook("repro.planner.plan", None, "evaluate_candidate", "planner.evaluate",
         PLAN),
    Hook("repro.planner.store", "PlanStore", "get", "store.get", PLAN,
         "on_store_get"),
    Hook("repro.planner.store", "PlanStore", "put", "store.put", PLAN),
)

#: ``summarize`` is imported by name into several modules; every loaded
#: ``repro`` module whose global is the original function gets a wrapper.
SUMMARY_SOURCE = ("repro.serving.metrics", "summarize")
SUMMARY_EXPECT = ALL


@dataclass
class LayerStats:
    """Accumulated timings of one layer."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


@dataclass
class Phase:
    """What one pass (cold run or warm re-run) recorded."""

    layers: Dict[str, LayerStats]
    counts: Dict[str, int]
    cache_infos: List[Any]
    #: Host speed over the pass (``calibrate.Probe.speed``); times scale by it.
    speed: float = 1.0

    def stat(self, layer: str) -> LayerStats:
        return self.layers.get(layer, LayerStats())


class Collector:
    """Span stack plus per-layer totals and the counters the hooks derive.

    Spans are timed on ``clock``; the benchmark passes a clock that stops
    while the host-speed probe samples, so no span includes probe time.

    ``fired`` counts calls per wrapper over the collector's lifetime (the
    self-check); everything else is per pass, taken by :meth:`snapshot`.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.fired: Dict[str, int] = {}
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self.counts: Dict[str, int] = {}
        self.simulators: List[Any] = []
        self._stack: List[List[float]] = []
        self._active: Dict[str, bool] = {}

    def snapshot(self, speed: float = 1.0) -> Phase:
        """The pass recorded so far; the collector starts a fresh one."""
        phase = Phase(
            self.layers, self.counts, [s.cache_info() for s in self.simulators],
            speed,
        )
        self.reset()
        return phase

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # Observers: derive counts from a call's arguments and result.
    def on_compile(self, args, result) -> None:
        self.count("compile.requests", len(result.trace))

    def on_pricing(self, args, result) -> None:
        self.count("pricing.shapes", result.unique_shapes)

    def on_engine(self, args, result) -> None:
        self.count("engine.decode_steps", result.decode_steps)

    def on_simulator(self, args, result) -> None:
        self.simulators.append(args[0])

    def on_bnb(self, args, result) -> None:
        self.count("planner.bound_evals", result.n_bound_evals)

    def on_store_get(self, args, result) -> None:
        self.count("store.misses" if result is None else "store.hits", 1)

    def wrap(self, fn: Callable, layer: str, label: str,
             observe: Optional[str]) -> Callable:
        """A timing wrapper around ``fn`` reporting to this collector."""
        observer = getattr(self, observe) if observe else None
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired[label] = self.fired.get(label, 0) + 1
            if self._active.get(layer):
                return fn(*args, **kwargs)
            self._active[layer] = True
            frame = [0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self._active[layer] = False
                stats = self.layers.setdefault(layer, LayerStats())
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                stats.durations.append(elapsed)
            if observer is not None:
                observer(args, result)
            return result

        wrapper.__e2e_bench_wrapper__ = True
        return wrapper


class Installation:
    """The wrappers currently installed, with what they replaced."""

    def __init__(self, collector: Collector, workload: str) -> None:
        self.collector = collector
        self.workload = workload
        self.expected: Dict[str, Tuple[str, ...]] = {}
        self.missing: List[str] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def _patch(self, target: Any, attr: str, layer: str, label: str,
               observe: Optional[str], expect: Tuple[str, ...]) -> None:
        original = vars(target)[attr]
        setattr(target, attr,
                self.collector.wrap(original, layer, label, observe))
        self._restore.append((target, attr, original))
        self.expected[label] = expect

    def install(self) -> None:
        for hook in HOOKS:
            try:
                target = importlib.import_module(hook.module)
                if hook.owner is not None:
                    target = getattr(target, hook.owner)
                vars(target)[hook.attr]
            except (ImportError, AttributeError, KeyError):
                if self.workload in hook.expect:
                    self.missing.append(hook.label)
                continue
            self._patch(target, hook.attr, hook.layer, hook.label,
                        hook.observe, hook.expect)
        source = importlib.import_module(SUMMARY_SOURCE[0])
        original = getattr(source, SUMMARY_SOURCE[1])
        # One self-check label for every binding: the layer must fire, not
        # each module's import of it.
        label = f"{SUMMARY_SOURCE[0]}:{SUMMARY_SOURCE[1]} (every import)"
        for name, module in sorted(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            if vars(module).get(SUMMARY_SOURCE[1]) is original:
                self._patch(module, SUMMARY_SOURCE[1], "summary", label, None,
                            SUMMARY_EXPECT)

    def restore(self) -> List[str]:
        """Undo every patch; return the names still bound to a wrapper."""
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()
        leftovers = []
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                candidates = [value] + (
                    list(vars(value).values()) if isinstance(value, type) else []
                )
                if any(getattr(c, "__e2e_bench_wrapper__", False)
                       for c in candidates):
                    leftovers.append(f"{name}:{attr}")
        return leftovers

    def silent(self) -> List[str]:
        """Wrappers expected on this workload that are missing or never fired."""
        return self.missing + sorted(
            label for label, expect in self.expected.items()
            if self.workload in expect and not self.collector.fired.get(label)
        )


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(cold: Phase, warm: Phase) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    Every metric describes the cold pass, except ``store.get.s`` and
    ``store.hits``, which describe the warm re-plan the store serves.
    Times are rescaled to the reference host speed by the pass's speed.
    """
    stat = cold.stat
    at_ref = cold.speed
    infos = cold.cache_infos
    op_hits = sum(info.op_hits for info in infos)
    op_total = op_hits + sum(info.op_misses for info in infos)
    req_hits = sum(info.request_hits for info in infos)
    req_total = req_hits + sum(info.request_misses for info in infos)
    engine = stat("engine")
    engine_s = engine.total_s * at_ref
    steps = cold.counts.get("engine.decode_steps", 0)
    live = stat("runtime.live")
    evaluate = stat("planner.evaluate")
    return {
        "compile.s": stat("compile").total_s * at_ref,
        "compile.requests": cold.counts.get("compile.requests", 0),
        "models.build_workload.s": stat("models").total_s * at_ref,
        "models.build_workload.calls": stat("models").calls,
        "prime.s": stat("prime").total_s * at_ref,
        "prime.calls": stat("prime").calls,
        "batch.evaluate.s": stat("batch.evaluate").total_s * at_ref,
        "pricing.s": stat("pricing").total_s * at_ref,
        "pricing.shapes": cold.counts.get("pricing.shapes", 0),
        "dispatch.on_arrival.s": stat("dispatch").total_s * at_ref,
        "dispatch.on_arrival.calls": stat("dispatch").calls,
        "engine.s": engine_s,
        "engine.runs": engine.calls,
        "engine.decode_steps": steps,
        "engine.decode_steps_per_s": steps / engine_s if engine_s else 0.0,
        "simulator.op_hit_ratio": op_hits / op_total if op_total else 0.0,
        "simulator.request_hit_ratio": req_hits / req_total if req_total else 0.0,
        "runtime.live.s": live.total_s * at_ref,
        "runtime.self_s": live.self_s * at_ref,
        "runtime.posts": stat("runtime.post").calls,
        "summary.s": stat("summary").total_s * at_ref,
        "report.to_json.s": stat("report.to_json").total_s * at_ref,
        "planner.bnb.s": stat("planner.bnb").total_s * at_ref,
        "planner.bound_evals": cold.counts.get("planner.bound_evals", 0),
        "planner.evaluate.s": evaluate.total_s * at_ref,
        "planner.simulated": evaluate.calls,
        "planner.candidate_s.p50": percentile(evaluate.durations, 50) * at_ref,
        "planner.candidate_s.p90": percentile(evaluate.durations, 90) * at_ref,
        "store.get.s": warm.stat("store.get").total_s * warm.speed,
        "store.put.s": stat("store.put").total_s * at_ref,
        "store.hits": warm.counts.get("store.hits", 0),
        "store.misses": cold.counts.get("store.misses", 0),
    }


#: Metrics that count work; they must repeat exactly run to run.
COUNT_METRICS = (
    "compile.requests",
    "models.build_workload.calls",
    "prime.calls",
    "pricing.shapes",
    "dispatch.on_arrival.calls",
    "engine.runs",
    "engine.decode_steps",
    "simulator.op_hit_ratio",
    "simulator.request_hit_ratio",
    "runtime.posts",
    "planner.bound_evals",
    "planner.simulated",
    "store.hits",
    "store.misses",
)
