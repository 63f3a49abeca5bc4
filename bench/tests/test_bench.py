"""Self-test of the benchmark: run with ``python3 -m pytest bench/tests``.

Runs a small version of each workload untraced and traced and checks that
tracing changes no output, that every layer the workload is meant to exercise
records calls, and that the output checks catch wrong results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402

eulab = worker.import_eulab()

import tracing  # noqa: E402
import workloads  # noqa: E402

#: the call-count metric of each layer
LAYER_CALLS = {
    "cli": "cli.calls",
    "identities": "identities.calls",
    "permstats": "permstats.calls",
    "stirlingperm": "stirlingperm.calls",
    "trees": "trees.calls",
    "grammar": "grammar.derive_calls",
    "series": "series.calls",
    "expand": "expand.calls",
    "exactalg": "exactalg.mul_calls",
}

#: layers each workload is meant to exercise (README.md, layer table)
EXERCISED = {
    "verify-catalog": ("cli", "identities", "permstats", "stirlingperm", "trees", "exactalg"),
    "oracle-deep": ("cli", "identities", "permstats", "stirlingperm", "trees"),
    "algebra": ("cli", "grammar", "series", "expand", "exactalg"),
}


@pytest.fixture(scope="module")
def caches():
    return tracing.package_caches()


@pytest.fixture(scope="module")
def tracer():
    return tracing.Tracer()


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def comparable(outcome: workloads.Outcome) -> object:
    """An outcome with the one timing-dependent field (verify seconds) removed."""
    out = outcome.output
    if isinstance(out, str) and out.startswith("[{\"identity\""):
        out = [{k: v for k, v in r.items() if k != "seconds"} for r in json.loads(out)]
    elif out is not None and not isinstance(out, str):
        out = workloads.gamma_xy_values(out, 8)
    return outcome.label, outcome.rc, out


def traced_pass(workload, tracer, caches):
    tracing.clear_caches(caches)
    tracer.install()
    try:
        outcomes = workload.run_pass()
    finally:
        tracer.uninstall()
    metrics, _ = tracer.collect()
    return outcomes, metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output_and_sees_every_layer(name, tracer, caches, reference):
    workload = workloads.WORKLOADS[name](seed=7, small=True)
    tracing.clear_caches(caches)
    plain = workload.run_pass()
    assert workload.check(plain, reference) == []
    traced, metrics = traced_pass(workload, tracer, caches)
    assert workload.check(traced, reference) == []
    assert [comparable(o) for o in traced] == [comparable(o) for o in plain]
    for layer in EXERCISED[name]:
        assert metrics[LAYER_CALLS[layer]] >= 1, layer
        assert metrics[f"{layer}.self_s"] > 0, layer


def test_caches_are_cleared_through_the_wrappers(tracer, caches):
    workload = workloads.VerifyCatalog(seed=1, small=True)
    _, first = traced_pass(workload, tracer, caches)
    _, second = traced_pass(workload, tracer, caches)
    assert {m: first[m] for m in tracing.COUNT_METRICS} == {m: second[m] for m in tracing.COUNT_METRICS}
    for layer in ("stirlingperm", "trees"):
        # with warm caches every call of the second pass would be a hit
        assert 0 < second[f"{layer}.cache_hits"] < second[f"{layer}.calls"], layer
    assert second["permstats.perms_enumerated"] > 0


def test_install_patches_aliases_and_uninstall_restores_them(tracer):
    originals = (eulab.series.egf_build, eulab.Poly.__dict__["__mul__"], eulab.Poly.__dict__["from_json"])
    assert eulab.identities.egf_build is originals[0]
    assert tracer.missing == []
    tracer.install()
    try:
        assert eulab.identities.egf_build is eulab.series.egf_build is eulab.egf_build
        assert eulab.series.egf_build.__wrapped__ is originals[0]
        assert eulab.Poly.__dict__["__radd__"] is eulab.Poly.__dict__["__add__"]
        assert eulab.Poly.__dict__["__add__"].__wrapped__ is not None
        assert eulab.permstats.perm_poly.cache_clear is not None
    finally:
        tracer.uninstall()
    tracer.collect()
    assert (eulab.series.egf_build, eulab.Poly.__dict__["__mul__"], eulab.Poly.__dict__["from_json"]) == originals
    assert eulab.identities.egf_build is originals[0]


def test_self_time_excludes_child_spans(tracer):
    tracer.install()
    try:
        eulab.Poly.var("x") ** 5
    finally:
        tracer.uninstall()
    metrics, spans = tracer.collect()
    power, mul = spans["exactalg:Poly.__pow__"], spans["exactalg:Poly.__mul__"]
    assert power["calls"] == 1 and mul["calls"] >= 3
    assert power["self_s"] == pytest.approx(power["total_s"] - mul["total_s"])
    assert metrics["exactalg.self_s"] == pytest.approx(power["total_s"])


def _verify_outcome(reports: list[dict]) -> workloads.Outcome:
    return workloads.Outcome("verify", rc=0, output=json.dumps(reports))


@pytest.mark.parametrize(
    "report, problem",
    [
        ({"identity": "andre", "params": {"max_n": 7}, "status": "pass"}, None),
        ({"identity": "andre", "params": {"max_n": 7}, "status": "fail"}, "status"),
        ({"identity": "andre", "params": {"max_n": -3}, "status": "pass"}, "empty range"),
        ({"identity": "frobenius", "params": {"max_n": 5}, "status": "pass"}, "reported identities"),
    ],
)
def test_verify_check(report, problem):
    found = workloads.check_verify(_verify_outcome([report]), {"andre": None}, exact=True)
    if problem is None:
        assert found is None
    else:
        assert problem in found


def test_checks_catch_wrong_algebra_outputs(reference):
    workload = workloads.Algebra(seed=3, small=True)
    outcomes = workload.run_pass()
    assert workload.check(outcomes, reference) == []
    outcomes[1].output = outcomes[1].output.replace("1", "2", 1)
    outcomes[4].rc = 3
    problems = workload.check(outcomes, reference)
    assert len(problems) == 2
    assert "differs from the reference" in problems[0]
    assert "exit 3" in problems[1]
