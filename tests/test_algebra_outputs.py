"""The exact-algebra kernel returns exactly what it returned before its accumulation was rewritten.

``algebra_digests.json`` holds SHA-256 digests recorded at commit c69f507,
before ``Poly.subst``, ``is_symmetric``, ``divexact`` and the series products
were changed: of ``G5^k(LM)/LM`` as Poly JSON for k <= 12, of the
``eulab expand partial-gamma --n k`` output fed that JSON, of the
``eulab expand esym`` output fed ``G9:k`` iterates (k = 2, 3), and of the
Poly JSON of every coefficient of ``egf_build("trivariate", 10)``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from eulab import Poly, catalog, egf_build
from eulab.cli import main

DIGESTS = json.loads(Path(__file__).with_name("algebra_digests.json").read_text())

#: iterate counts behind the esym pins, per multiplicity k of G9:k
ESYM_STEPS = {2: range(1, 11), 3: range(1, 9)}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def g5_quotient(k: int) -> str:
    lm = Poly.var("L") * Poly.var("M")
    return catalog("G5").iterate(lm, k).divexact(lm).to_json()


def g9_iterate(k: int, steps: int) -> str:
    return catalog(f"G9:{k}").iterate(Poly.var("x_1"), steps).to_json()


def expand_output(argv: list[str], payload: str) -> str:
    """stdout of ``eulab expand ...`` run in-process with ``payload`` on stdin."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        with contextlib.redirect_stdout(out):
            assert main(["expand", *argv]) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue()


def trivariate_egf(order: int) -> str:
    return json.dumps([c.to_json() for c in egf_build("trivariate", order).coeffs])


def record() -> dict:
    """Every pinned digest, computed by the code under test."""
    g5 = {k: g5_quotient(k) for k in range(13)}
    return {
        "g5_over_lm": [[k, sha256(text)] for k, text in g5.items()],
        "partial_gamma": [
            [k, sha256(expand_output(["partial-gamma", "--n", str(k)], g5[k]))] for k in range(13)
        ],
        "esym": [
            [k, steps, sha256(expand_output(["esym"], g9_iterate(k, steps)))]
            for k, counts in ESYM_STEPS.items()
            for steps in counts
        ],
        "trivariate_egf": [[10, sha256(trivariate_egf(10))]],
    }


def rows(name: str):
    """The recorded rows of one output, each test id naming the arguments only."""
    return pytest.mark.parametrize(
        "args, digest",
        [(row[:-1], row[-1]) for row in DIGESTS[name]],
        ids=["-".join(map(str, row[:-1])) for row in DIGESTS[name]],
    )


@rows("g5_over_lm")
def test_g5_quotient(args, digest):
    assert sha256(g5_quotient(*args)) == digest


@rows("partial_gamma")
def test_partial_gamma_output(args, digest):
    (k,) = args
    assert sha256(expand_output(["partial-gamma", "--n", str(k)], g5_quotient(k))) == digest


@rows("esym")
def test_esym_output(args, digest):
    assert sha256(expand_output(["esym"], g9_iterate(*args))) == digest


@rows("trivariate_egf")
def test_trivariate_egf(args, digest):
    assert sha256(trivariate_egf(*args)) == digest


if __name__ == "__main__":
    # re-recording is only right when the outputs are meant to change
    print(json.dumps(record(), indent=1))
