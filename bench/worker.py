"""One benchmark process: set up a workload, run timed passes, report samples.

``run.py`` starts this file in a fresh interpreter for each run, and several
more times with ``--setup-only`` to time set-up.  It writes the line ``ready``
to stdout once set-up is done (eulab imported, inputs built, reference
loaded), then, unless ``--setup-only``, one JSON line with the pass samples.

Before every pass all of eulab's ``lru_cache``s are cleared and garbage is
collected, so each pass costs what a fresh ``eulab`` process pays.  With
``--trace 1`` untraced and traced passes alternate; tracing is installed only
around traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Fewest passes of each kind (untraced, and traced with --trace 1) in a run,
#: even when they overrun --seconds.
MIN_PASSES = 2
#: Hard stop for the pass loop, well inside the three minutes a run may take.
MAX_LOOP_SECONDS = 120.0


def import_eulab():
    """Import eulab from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import eulab

    if not Path(eulab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"eulab was imported from {eulab.__file__}, not from {SRC}")
    return eulab


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_eulab()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    reference = workloads.load_reference()
    caches = tracing.package_caches()
    tracer = tracing.Tracer() if args.trace else None
    print("ready", flush=True)
    if args.setup_only:
        return 0

    samples: dict[str, list[float]] = {"untraced": [], "traced": []}
    layer_passes: list[dict] = []
    spans: dict = {}
    attempted = 0
    problems: list[str] = []
    clock = time.perf_counter
    start = clock()
    while True:
        traced = tracer is not None and len(samples["traced"]) < len(samples["untraced"])
        tracing.clear_caches(caches)
        gc.collect()
        if traced:
            tracer.install()
        t0 = clock()
        outcomes = workload.run_pass()
        t1 = clock()
        if traced:
            tracer.uninstall()
            metrics, spans = tracer.collect()
            layer_passes.append(metrics)
        samples["traced" if traced else "untraced"].append(t1 - t0)
        attempted += len(outcomes)
        problems += workload.check(outcomes, reference)
        del outcomes

        elapsed = clock() - start
        kinds = [samples["untraced"]] + ([samples["traced"]] if tracer else [])
        done = min(len(s) for s in kinds) >= MIN_PASSES
        typical = statistics.median(samples["untraced"] + samples["traced"])
        if (done and elapsed + typical > args.seconds) or elapsed > MAX_LOOP_SECONDS:
            break

    result = {
        "samples": samples,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layer_passes"] = layer_passes
        result["spans"] = spans
        result["trace_missing"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
