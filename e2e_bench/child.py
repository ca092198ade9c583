"""One cold repetition of a workload in a fresh interpreter.

``run.py`` starts this script once per repetition and passes the
monotonic clock reading taken just before the start, so ``setup_s``
covers interpreter start-up, ``import repro`` and building the spec,
planner config and store.  The script then times the cold run (spec in,
canonical report JSON out), re-runs the same entry point warm in the same
interpreter, checks the outputs and prints one JSON object.

A :class:`calibrate.Probe` samples the host's speed from the start of the
script to its end; every time reported (set-up, cold, warm, CPU and each
traced layer) is rescaled to the reference host speed, and the raw wall
times and the measured speeds are reported beside them.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    mkdir -p .e2e_bench_tmp
    python3 e2e_bench/child.py --workload plan-bnb --seed 1 \
        --tmp-root .e2e_bench_tmp \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import calibrate


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "batch"),
                        default="plain",
                        help="batch: run the batch runtime once, untimed, "
                        "for the live == batch check")
    parser.add_argument("--tmp-root", required=True)
    return parser.parse_args(argv)


def _timed(probe, setup, run_once):
    """One timed pass: report, text and ``probe.measure`` of the pass."""
    gc.collect()
    begin = probe.mark()
    report, text = run_once(setup)
    return report, text, probe.measure(begin, probe.mark())


def main(argv=None) -> dict:
    args = _parse(argv)
    out: dict = {"errors": []}
    probe = calibrate.Probe()
    probe.start()
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=args.tmp_root))
    try:
        import workloads as w

        setup = w.build(args.workload, args.seed, tmp / "store")
        # From the parent's clock reading; process CPU time counts from 0.
        spawned = calibrate.Mark(args.spawned_at, 0.0)
        setup_times = probe.measure(spawned, probe.mark())
        out["setup_wall_s"] = setup_times["wall_s"]
        out["setup_s"] = setup_times["s"]
        if args.mode == "batch":
            report, text = w.run_once(setup, runtime="batch")
            out["digest"] = w.digest(text)
            out["sim"] = w.sim_stats(setup, report)
            return out

        installation = None
        if args.mode == "traced":
            import layers

            for module in {hook.module for hook in layers.HOOKS}:
                try:
                    __import__(module)
                except ImportError:
                    pass  # reported by the self-check as a missing span
            collector = layers.Collector(clock=probe.net_clock)
            installation = layers.Installation(collector, args.workload)
            installation.install()

        report, text, cold_times = _timed(probe, setup, w.run_once)
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        cold = None
        if installation is not None:
            cold = installation.collector.snapshot(cold_times["speed"])
        warm_report, warm_text, warm_times = _timed(probe, setup, w.run_once)
        for name in ("wall_s", "s", "cpu_s", "speed"):
            out[f"e2e_{name}"] = cold_times[name]
        out["warm_wall_s"], out["warm_s"] = warm_times["wall_s"], warm_times["s"]
        if installation is not None:
            warm = installation.collector.snapshot(warm_times["speed"])
            leftovers = installation.restore()
            silent = installation.silent()
            if silent:
                out["errors"].append(f"wrappers missing or never fired: {silent}")
            if leftovers:
                out["errors"].append(f"wrappers not restored: {leftovers}")
            out["layers"] = layers.layer_metrics(cold, warm)

        out["digest"] = w.digest(text)
        out["sim"] = w.sim_stats(setup, report)
        out["sim_requests"] = w.simulated_requests(setup, report)
        out["errors"] += _check(w, setup, report, text, warm_report, warm_text)
    except Exception:  # the parent counts the repetition as failed
        out["errors"].append(traceback.format_exc())
    finally:
        probe.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def _check(w, setup, report, text, warm_report, warm_text) -> list:
    """Output checks of one repetition (untimed)."""
    errors = []
    if setup.config is not None:
        if report.n_simulated < 1 or report.best is None:
            errors.append("cold plan simulated nothing or found no best plan")
        if report.store_misses != report.n_simulated or report.store_hits != 0:
            errors.append("cold plan did not start from an empty store")
        if warm_report.store_misses != 0:
            errors.append(f"warm re-plan missed the store "
                          f"{warm_report.store_misses} times")
        if warm_report.store_hits != report.n_simulated:
            errors.append("warm re-plan hits != cold plan simulations")
        if (warm_report.frontier, warm_report.best) != (report.frontier, report.best):
            errors.append("warm re-plan frontier or best plan differs")
        return errors
    if warm_text != text:
        errors.append("warm re-run report differs from the cold run")
    stats = w.sim_stats(setup, report)
    if stats["n_completed"] + stats["rejected"] != stats["n_requests"]:
        errors.append(
            f"completed {stats['n_completed']} + rejected {stats['rejected']} "
            f"!= requests {stats['n_requests']}"
        )
    if report.n_requests != setup.spec.n_requests:
        errors.append("report n_requests differs from the spec")
    return errors


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main()) + "\n")
