"""Record the reference digests that the algebra workload's outputs are checked against.

    python3 bench/record_reference.py

Writes bench/reference.json: the SHA-256 of each Poly JSON and each
``eulab expand`` output of an algebra pass, at full and small scale, and of
the gamma-xy EGF numerators at every evaluation point the seed can pick.
It was run once, at the commit that defined the benchmark; later commits are
checked against that record, so do not re-run it to make a check pass.
"""

from __future__ import annotations

import json
import sys

import worker

worker.import_eulab()
import workloads  # noqa: E402  (needs eulab on the path)


def record(scale: str) -> dict:
    algebra = workloads.Algebra(seed=0, small=scale == "small")
    outcomes = algebra.run_pass()
    ref: dict = {}
    for o in outcomes[:4]:
        if o.output is None or o.rc not in (None, 0):
            raise SystemExit(f"{o.label} failed: {o.error}")
        ref[o.label] = workloads.sha256(o.output)
    order = algebra.size["gamma_xy_order"]
    ref[algebra.labels[5]] = {
        workloads.point_key(point): workloads.sha256(
            json.dumps(
                workloads.gamma_xy_values(
                    workloads.eulab.egf_build("gamma-xy", order, {"x": point[0], "y": point[1]}), order
                )
            )
        )
        for point in workloads.GAMMA_XY_POINTS
    }
    return ref


def main() -> int:
    reference = {scale: record(scale) for scale in ("full", "small")}
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
