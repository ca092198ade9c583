"""Cold end-to-end benchmark of the EdgeMM serving and planning stack.

Run from the repository root::

    python3 e2e_bench/run.py --workload plan-bnb --seed 1 --seconds 35 --trace 0

Each repetition is a fresh interpreter (``child.py``) that builds the
workload from the seed, runs it cold through the public entry point
(``run_scenario`` / ``plan_scenario``), re-runs it warm, and checks its
outputs.  Repetitions continue while the next one still fits in
``--seconds``.  ``--trace 0`` reports the end-to-end metrics (medians
over repetitions); ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer split plus the tracing overhead.
Every time is rescaled to a reference host speed measured during the run
itself (``calibrate.py``), so the host's speed swings cancel out; the raw
wall times are printed beside them.

Every invocation gates correctness: the canonical report digest must be
identical across all repetitions (and match ``reference.json`` for the
recorded seeds), the simulated statistics must not move, warm and traced
runs (and, for the live workload, one batch-runtime run) must reproduce the
cold untraced output, and every wrapper of the traced run must fire.
The last stdout line is one JSON object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the command exits
non-zero when any check fails.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".e2e_bench_tmp"
WORKLOADS = ("diurnal-mix", "faulted-autoscale-live", "plan-bnb")
#: Workloads on the live runtime; each invocation also runs them once on the
#: batch runtime and requires the byte-identical report.
LIVE_WORKLOADS = ("faulted-autoscale-live",)

#: One repetition may not take longer than this before it counts as hung.
CHILD_TIMEOUT_S = 150.0

#: Times are at the reference host speed (``calibrate.py``).
END_TO_END = (
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("e2e_cpu_s", "s"),
    ("warm_s", "s"),
    ("sim_requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Printed beside them, unbounded: raw wall times and the host speed
#: (1.0 = reference) that rescaled the cold run's.
RAW = (
    ("setup_wall_s", "s"),
    ("e2e_wall_s", "s"),
    ("warm_wall_s", "s"),
    ("e2e_speed", "x"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's digest, simulated statistics "
                        "and traced counts in reference.json (needs --trace 1)")
    args = parser.parse_args(argv)
    if args.record and not args.trace:
        parser.error("--record needs --trace 1")
    return args


def _child(args, mode: str) -> dict:
    """Run one repetition in a fresh interpreter and parse its JSON line."""
    env = dict(os.environ)
    # Fixed so string-hash-dependent memory layout adds no noise between
    # interpreters; reports do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--tmp-root", str(TMP_ROOT),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned-at", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "errors": [f"{mode} repetition timed out"],
                "wall_s": time.monotonic() - started}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"errors": [f"{mode} repetition exited {proc.returncode} "
                             f"without a result: {proc.stderr[-2000:]}"]}
    if proc.returncode != 0 and not result["errors"]:
        result["errors"].append(f"{mode} repetition exited {proc.returncode}")
    result["mode"] = mode
    result["wall_s"] = time.monotonic() - started
    return result


def _repetitions(args) -> list:
    """Full repetitions while the next one still fits in ``--seconds``."""
    modes = ("plain", "traced") if args.trace else ("plain",)
    start = time.monotonic()
    reps = []
    longest = {}
    cycles = 0
    while True:
        mode = modes[cycles % len(modes)]
        elapsed = time.monotonic() - start
        if cycles >= len(modes) and elapsed + longest.get(mode, 0.0) > args.seconds:
            break
        began = time.monotonic()
        reps.append(_child(args, mode))
        longest[mode] = max(longest.get(mode, 0.0), time.monotonic() - began)
        cycles += 1
    return reps


def _gate(reps: list, expected) -> list:
    """Cross-repetition checks; returns (repetition index, message) pairs.

    ``expected`` is this seed's ``reference.json`` entry, or ``None``.
    """
    problems = []
    outputs = [(i, r) for i, r in enumerate(reps) if "digest" in r]
    for index, rep in outputs:
        first = outputs[0][1]
        if rep["digest"] != first["digest"]:
            problems.append((index, "report digest differs between repetitions"))
        if rep["sim"] != first["sim"]:
            problems.append((index, "simulated statistics differ between repetitions"))
        if expected is not None:
            if rep["digest"] != expected["digest"]:
                problems.append((index, "report digest differs from reference.json"))
            if rep["sim"] != expected["sim"]:
                problems.append((index, "simulated statistics differ from reference.json"))
    traced = [(i, r) for i, r in enumerate(reps) if "layers" in r]
    if traced:
        import layers

        base = traced[0][1]["layers"]
        for index, rep in traced:
            for name in layers.COUNT_METRICS:
                if rep["layers"][name] != base[name]:
                    problems.append((index, f"traced count {name} differs between runs"))
            if expected is not None and "layer_counts" in expected:
                for name, value in expected["layer_counts"].items():
                    if rep["layers"][name] != value:
                        problems.append(
                            (index, f"traced count {name} differs from reference.json"))
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e_bench: no program source at {SRC}/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # build step, untimed
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        reps = _repetitions(args)
        if args.workload in LIVE_WORKLOADS:
            # Its digest joins the cross-repetition check: live == batch.
            reps.append(_child(args, "batch"))
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)

    reference_path = HERE / "reference.json"
    reference = json.loads(reference_path.read_text())
    recorded = reference["workloads"][args.workload]
    expected = None if args.record else recorded.get(str(args.seed))
    failed_reps = {i for i, r in enumerate(reps) if r.get("errors")}
    problems = [(i, e) for i, r in enumerate(reps) for e in r.get("errors", [])]
    gated = _gate(reps, expected)
    problems += gated
    failed_reps |= {i for i, _ in gated}
    attempted = len(reps)
    failed = len(failed_reps)

    ok = [r for i, r in enumerate(reps) if i not in failed_reps]
    plain = [r for r in ok if r["mode"] == "plain"]
    traced = [r for r in ok if r["mode"] == "traced"]
    setups = [r for r in ok if "setup_s" in r]
    metrics = {}
    if plain and setups and not problems:
        samples = {
            "setup_s": [r["setup_s"] for r in setups],
            "setup_wall_s": [r["setup_wall_s"] for r in setups],
            "e2e_s": [r["e2e_s"] for r in plain],
            "e2e_cpu_s": [r["e2e_cpu_s"] for r in plain],
            "warm_s": [r["warm_s"] for r in plain],
            "sim_requests_per_s": [r["sim_requests"] / r["e2e_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, _ in RAW[1:]:
            samples[name] = [r[name] for r in plain]
        e2e = {name: statistics.median(values) for name, values in samples.items()}
        if args.trace:
            for name in traced[0]["layers"]:
                values = [r["layers"][name] for r in traced]
                metrics[name] = {"value": statistics.median(values),
                                 "unit": _layer_unit(name)}
            metrics["trace_overhead_s"] = {
                "value": statistics.median(r["e2e_s"] for r in traced)
                - e2e["e2e_s"],
                "unit": "s",
            }
        else:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END}
        _print_human(args, plain, traced, samples, metrics)
        if args.record:
            import layers

            recorded[str(args.seed)] = {
                "digest": plain[0]["digest"],
                "sim": plain[0]["sim"],
                "layer_counts": {name: traced[0]["layers"][name]
                                 for name in layers.COUNT_METRICS},
            }
            reference_path.write_text(json.dumps(reference, indent=2) + "\n")

    for index, message in problems:
        print(f"FAILED repetition {index}: {message}", file=sys.stderr)
    print(f"failed_ratio: {failed / attempted:.4f} ({failed} of {attempted} "
          "repetitions)")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def _print_human(args, plain, traced, samples, metrics) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(plain)} untraced / {len(traced)} traced repetitions")
    for name, unit in END_TO_END + RAW:
        if name == RAW[0][0]:
            print("  raw, unbounded:")
        values = samples[name]
        listed = " ".join(f"{value:.3f}" for value in values)
        print(f"  {name:<20} {statistics.median(values):12.4f} {unit:<4} "
              f"median of {len(values)} [{listed}]")
    print("  simulated statistics (must not change):")
    for name, value in plain[0]["sim"].items():
        print(f"    {name:<18} {value}")
    print(f"    report_sha256      {plain[0]['digest']}")
    if args.trace:
        listed = " ".join(f"{r['e2e_s']:.3f}" for r in traced)
        print(f"  traced e2e_s: median of {len(traced)} [{listed}]")
        print("  per-layer split (traced, median):")
        for name, entry in metrics.items():
            print(f"    {name:<30} {entry['value']:14.6f} {entry['unit']}")


if __name__ == "__main__":
    sys.exit(main())
