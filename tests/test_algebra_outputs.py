"""The exact-algebra kernel returns exactly what it returned before its accumulation was rewritten.

``algebra_digests.json`` holds SHA-256 digests recorded at commit c69f507,
before ``Poly.subst``, ``is_symmetric``, ``divexact`` and the series products
were changed: of ``G5^k(LM)/LM`` as Poly JSON for k <= 12, of the
``eulab expand partial-gamma --n k`` output fed that JSON, of the
``eulab expand esym`` output fed ``G9:k`` iterates (k = 2, 3), and of the
Poly JSON of every coefficient of ``egf_build("trivariate", 10)``.

Recorded at commit a7557aa, before the series stored divided-power numerators:
the coefficient JSON of ``egf_build("trivariate", 20)``, of ``egf_build(name, 12)``
for the other symbolic EGFs, and of ``egf_build("gamma-xy", 30)`` at two points.

Recorded at commit 289f454, before ``_e_coefficient`` shared one memo per expansion
and counted complements: the ``eulab expand esym`` output fed ``G9:4`` iterates 1 to 6,
in five letters.
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eulab import Poly, catalog, egf_build
from eulab.cli import main

DIGESTS = json.loads(Path(__file__).with_name("algebra_digests.json").read_text())

#: iterate counts behind the esym pins, per multiplicity k of G9:k
ESYM_STEPS = {2: range(1, 11), 3: range(1, 9), 4: range(1, 7)}

#: the symbolic EGFs pinned beyond ``egf_build("trivariate", 10)``, with their orders
EGF_PINNED = (
    ("trivariate", 20),
    *((name, 12) for name in ("fixpoint", "bivariate", "no-succession", "derangement")),
)

#: the gamma-xy points (x, y) pinned at order 30; 2y - 1 is 1/4 and 9/4
GAMMA_XY_PINNED = (("-1/2", "5/8"), ("2/3", "13/8"))


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


def egf_json(name: str, order: int, params: dict | None = None) -> str:
    return json.dumps([c.to_json() for c in egf_build(name, order, params).coeffs])


def trivariate_egf(order: int) -> str:
    return egf_json("trivariate", order)


def gamma_xy_egf(x: str, y: str, order: int) -> str:
    return egf_json("gamma-xy", order, {"x": Fraction(x), "y": Fraction(y)})


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
        "egf": [[name, order, sha256(egf_json(name, order))] for name, order in EGF_PINNED],
        "gamma_xy_egf": [[x, y, 30, sha256(gamma_xy_egf(x, y, 30))] for x, y in GAMMA_XY_PINNED],
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


@rows("egf")
def test_egf(args, digest):
    assert sha256(egf_json(*args)) == digest


@rows("gamma_xy_egf")
def test_gamma_xy_egf(args, digest):
    assert sha256(gamma_xy_egf(*args)) == digest


if __name__ == "__main__":
    # re-recording is only right when the outputs are meant to change
    print(json.dumps(record(), indent=1))
