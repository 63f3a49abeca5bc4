"""eulab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {verify-catalog,oracle-deep,algebra} \
        --seed N --seconds S --trace {0,1}

Run from the root of an eulab checkout; eulab is imported from its src/.
One closed-loop caller in one process: the workload runs in a fresh
interpreter (bench/worker.py) that repeats full passes for about S seconds.
With --trace 0, set-up is timed over several further fresh interpreters.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Lines before it give every metric by name with its
unit, the failure ratio, the number of samples behind each timing, and the
provenance.  The same record, with pass samples and per-span totals, is
written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT_DIR = ROOT / ".bench_out"
CONFIG = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed for set-up in each run, besides the measured one.
SETUP_PROBES = 6
SETUP_TIMEOUT_S = 60
#: Whole-run limit for the measured worker (a run must end within 180 s).
WORKER_TIMEOUT_S = 160


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # string hashing in eulab's dicts and sets repeats for a given seed
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _start_worker(args: argparse.Namespace, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time (until it says ready)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, env=_worker_env(args.seed))
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def measure(args: argparse.Namespace) -> tuple[dict, list[float]]:
    """Run the measured worker, after the set-up probes when untraced; return its record and set-up times."""
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            proc, setup = _start_worker(args, setup_only=True)
            _finish(proc, SETUP_TIMEOUT_S)
            setups.append(setup)
    proc, setup = _start_worker(args, setup_only=False)
    setups.append(setup)
    lines = _finish(proc, WORKER_TIMEOUT_S).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), setups


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with ten samples above it, when that is above the median."""
    n = len(samples)
    if n <= 20:
        return None
    return 100 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(record: dict, setups: list[float]) -> tuple[dict[str, float], list[str]]:
    passes = record["samples"]["untraced"]
    metrics = {
        "pass_s": statistics.median(passes),
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }
    hi = high_percentile(passes)
    notes = [
        f"pass_s: median of {len(passes)} passes; "
        + (f"p{hi[0]:.1f} {hi[1]:.4f} s" if hi else f"too few passes for a tail percentile, max {max(passes):.4f} s"),
        f"setup_s: median of {len(setups)} fresh interpreters",
    ]
    return metrics, notes


def per_layer(record: dict) -> tuple[dict[str, float], list[str]]:
    metrics, unstable = tracing.summarize(record["layer_passes"])
    untraced, traced = record["samples"]["untraced"], record["samples"]["traced"]
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(untraced)
    notes = [f"layer times: median of {len(traced)} traced passes; overhead against {len(untraced)} untraced passes"]
    if record["trace_missing"]:
        notes.append(f"entry points not found (their layers read 0): {', '.join(record['trace_missing'])}")
    if unstable:
        record["problems"].append(f"counts differ between traced passes: {', '.join(unstable)}")
        record["failed"] += 1
    return metrics, notes


def provenance(args: argparse.Namespace, record: dict, setups: list[float]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "passes_untraced": len(record["samples"]["untraced"]),
        "passes_traced": len(record["samples"]["traced"]),
        "setups": len(setups),
    }


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one eulab benchmark workload.")
    config = json.loads(CONFIG.read_text())
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eulab" / "__init__.py").is_file():
        print(f"error: no eulab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, setups = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics, notes = per_layer(record) if args.trace else end_to_end(record, setups)
    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with {CONFIG.name}", file=sys.stderr)
        return 1
    attempted, failed = record["attempted"], record["failed"]
    prov = provenance(args, record, setups)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }

    print(f"eulab benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    for m, v in metrics.items():
        print(f"  {m:32} {v:.6g} {units[m]}")
    print(f"  {'fail_ratio':32} {failed / attempted:.6g} ({failed} of {attempted} invocations)")
    for note in notes:
        print(f"  {note}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**summary, "provenance": prov, "setup_samples": setups, **record}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
