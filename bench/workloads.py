"""The benchmark workloads: what one pass runs, and how its outputs are checked.

A pass is a fixed list of invocations made the way users make them: ``eulab``
commands through ``eulab.cli.main`` in this process (stdout captured, stdin
supplied as text) and calls into the public library API.  Every entry point is
looked up on its module at call time, so the tracing wrappers see the calls.

A pass returns one ``Outcome`` per invocation.  The checks run after the
timed pass: every command must exit 0, every ``verify`` report must pass over
a non-empty ``n`` range, and every ``expand`` output (and every Poly JSON fed
to it) must have the SHA-256 recorded in ``reference.json`` at the commit that
defined this benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import eulab
import eulab.cli

REFERENCE_FILE = Path(__file__).resolve().with_name("reference.json")

#: Smallest n each catalog identity checks; a range below it is empty.
#: transform-catalog has no n range (it checks a fixed list of transforms).
CATALOG_MIN_N = {
    "andre": 0,
    "chenfu-esym": 1,
    "cn2-closed-form": 2,
    "convolution": 0,
    "diaconis": 1,
    "final-corollary": 2,
    "forest-gamma": 0,
    "frobenius": 1,
    "gamma-2n-2n": 2,
    "gamma-eulerian": 1,
    "gamma-xy-closed-form": 0,
    "histogram-independence": 2,
    "kth-grammar": 1,
    "mainthm-esym": 1,
    "partial-gamma": 0,
    "roselle": 1,
    "second-order-grammar": 1,
    "stembridge": 1,
    "transform-catalog": 0,
    "trivariate-egf": 0,
    "trivariate-grammar": 0,
    "trivariate-pde": 1,
}

#: The gamma-xy evaluation points the seed picks from: x = a/b with
#: |a|, b <= 3 (x = 1 left out, where e^{z(x-1)} degenerates to 1) and
#: y = (q^2 + 1)/2 so that sqrt(2y - 1) = q is rational, q = c/d with c, d <= 3.
#: All are of small height, so the seed does not change the cost of a pass.
GAMMA_XY_POINTS = tuple(
    (x, (q * q + 1) / 2)
    for x in sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)} - {Fraction(1)})
    for q in sorted({Fraction(c, d) for c in (1, 2, 3) for d in (1, 2, 3)})
)

#: Rows of the recurrence table that gamma_tables will build (its guard).
GAMMA_XY_TABLE_N = 12


def point_key(point: tuple[Fraction, Fraction]) -> str:
    return f"x={point[0]},y={point[1]}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one invocation produced: exit code and stdout, or a library result."""

    label: str
    rc: int | None = None
    output: object = None
    error: str | None = None


def run_cli(label: str, argv: list[str], stdin: str | None = None) -> Outcome:
    """``eulab <argv>`` in this process, as the console script would run it."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = eulab.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed invocation, not a failed benchmark
        return Outcome(label, error=f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdin = saved
    return Outcome(label, rc=rc, output=out.getvalue(), error=err.getvalue() or None)


def run_api(label: str, fn: Callable[[], object]) -> Outcome:
    try:
        return Outcome(label, output=fn())
    except Exception as exc:
        return Outcome(label, error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# checks; each returns None when the outcome is right, else what is wrong
# ---------------------------------------------------------------------------


def _check_command(o: Outcome) -> str | None:
    if o.rc is None:
        return f"{o.label}: raised {o.error}"
    if o.rc != 0:
        return f"{o.label}: exit {o.rc} ({(o.error or '').strip()})"
    return None


def check_verify(o: Outcome, expected: dict[str, int | None], exact: bool) -> str | None:
    """Every expected identity reported once, with status pass, over a non-empty range.

    ``expected`` maps identity -> requested --max-n (None: its default range).
    With ``exact`` False the report may hold further identities, which must pass too.
    """
    problem = _check_command(o)
    if problem:
        return problem
    try:
        reports = json.loads(o.output)
    except json.JSONDecodeError as exc:
        return f"{o.label}: stdout is not JSON ({exc})"
    names = [r.get("identity") for r in reports]
    if len(set(names)) != len(names) or not set(expected) <= set(names):
        return f"{o.label}: reported identities {names}"
    if exact and set(names) != set(expected):
        return f"{o.label}: reported identities {names}"
    for r in reports:
        name, status, max_n = r["identity"], r.get("status"), r.get("params", {}).get("max_n")
        if status != "pass":
            return f"{o.label}: {name} status {status!r}"
        want = expected.get(name)
        if want is not None and max_n != want:
            return f"{o.label}: {name} ran max_n={max_n}, asked for {want}"
        if not isinstance(max_n, int) or max_n < CATALOG_MIN_N.get(name, 1):
            return f"{o.label}: {name} passed over an empty range (max_n={max_n})"
    return None


def check_digest(o: Outcome, text: object, want: str | None) -> str | None:
    if want is None:
        return f"{o.label}: no reference digest recorded"
    if sha256(text) != want:
        return f"{o.label}: output differs from the reference (sha256 {sha256(text)[:12]}...)"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload at one scale; ``small`` is the quick version the self-test runs."""

    name = ""

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.scale = "small" if small else "full"

    def run_pass(self) -> list[Outcome]:
        raise NotImplementedError

    def check(self, outcomes: list[Outcome], reference: dict) -> list[str]:
        """One message per invocation whose output is wrong."""
        raise NotImplementedError


class VerifyCatalog(Workload):
    name = "verify-catalog"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.argv = ["verify", "all", "--json"] + (["--max-n", "4"] if small else [])
        self.expected = dict.fromkeys(CATALOG_MIN_N, 4 if small else None)

    def run_pass(self) -> list[Outcome]:
        return [run_cli(" ".join(self.argv), self.argv)]

    def check(self, outcomes: list[Outcome], reference: dict) -> list[str]:
        problem = check_verify(outcomes[0], self.expected, exact=False)
        return [problem] if problem else []


#: (identity, --max-n, --k) at full and small scale
_ORACLE_DEEP = {
    "full": (
        ("diaconis", 8, None),
        ("roselle", 8, None),
        ("stembridge", 8, None),
        ("gamma-eulerian", 8, None),
        ("kth-grammar", 6, 3),
        ("second-order-grammar", 7, None),
        ("andre", 10, None),
        ("forest-gamma", 9, None),
    ),
    "small": (
        ("diaconis", 5, None),
        ("roselle", 5, None),
        ("stembridge", 5, None),
        ("gamma-eulerian", 5, None),
        ("kth-grammar", 3, 3),
        ("second-order-grammar", 4, None),
        ("andre", 5, None),
        ("forest-gamma", 5, None),
    ),
}


class OracleDeep(Workload):
    name = "oracle-deep"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.calls = []
        for identity, max_n, k in _ORACLE_DEEP[self.scale]:
            argv = ["verify", identity, "--max-n", str(max_n), "--json"]
            if k is not None:
                argv[2:2] = ["--k", str(k)]
            self.calls.append((" ".join(argv), argv, {identity: max_n}))

    def run_pass(self) -> list[Outcome]:
        return [run_cli(label, argv) for label, argv, _ in self.calls]

    def check(self, outcomes: list[Outcome], reference: dict) -> list[str]:
        problems = (
            check_verify(o, expected, exact=True)
            for o, (_, _, expected) in zip(outcomes, self.calls)
        )
        return [p for p in problems if p]


#: full / small sizes of the algebra pass
_ALGEBRA = {
    "full": {"g5_steps": 40, "g9_k": 4, "g9_steps": 12, "pde_order": 25, "gamma_xy_order": 30},
    "small": {"g5_steps": 8, "g9_k": 2, "g9_steps": 4, "pde_order": 6, "gamma_xy_order": 8},
}


class Algebra(Workload):
    name = "algebra"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.size = _ALGEBRA[self.scale]
        self.point = random.Random(seed).choice(GAMMA_XY_POINTS)
        n5, k, n9 = self.size["g5_steps"], self.size["g9_k"], self.size["g9_steps"]
        self.labels = (
            f"G5^{n5}(LM)/LM to_json",
            f"expand partial-gamma --n {n5}",
            f"G9:{k}^{n9}(x_1) to_json",
            "expand esym",
            f"verify trivariate-pde --max-n {self.size['pde_order']}",
            f"egf_build gamma-xy {self.size['gamma_xy_order']}",
        )

    def run_pass(self) -> list[Outcome]:
        size, labels = self.size, self.labels
        poly = eulab.Poly
        lm = poly.var("L") * poly.var("M")
        g5 = run_api(labels[0], lambda: eulab.catalog("G5").iterate(lm, size["g5_steps"]).divexact(lm).to_json())
        pg = run_cli(labels[1], ["expand", "partial-gamma", "--n", str(size["g5_steps"])], stdin=g5.output or "")
        g9 = run_api(
            labels[2],
            lambda: eulab.catalog(f"G9:{size['g9_k']}").iterate(poly.var("x_1"), size["g9_steps"]).to_json(),
        )
        esym = run_cli(labels[3], ["expand", "esym"], stdin=g9.output or "")
        pde = run_cli(labels[4], ["verify", "trivariate-pde", "--max-n", str(size["pde_order"]), "--json"])
        x0, y0 = self.point
        gxy = run_api(labels[5], lambda: eulab.egf_build("gamma-xy", size["gamma_xy_order"], {"x": x0, "y": y0}))
        return [g5, pg, g9, esym, pde, gxy]

    def check(self, outcomes: list[Outcome], reference: dict) -> list[str]:
        g5, pg, g9, esym, pde, gxy = outcomes
        ref = reference[self.scale]
        problems = []
        for o in (g5, g9):
            if o.error:
                problems.append(f"{o.label}: raised {o.error}")
            else:
                problems.append(check_digest(o, o.output, ref.get(o.label)))
        for o in (pg, esym):
            problems.append(_check_command(o) or check_digest(o, o.output, ref.get(o.label)))
        problems.append(check_verify(pde, {"trivariate-pde": self.size["pde_order"]}, exact=True))
        problems.append(self._check_gamma_xy(gxy, ref))
        return [p for p in problems if p]

    def _check_gamma_xy(self, o: Outcome, ref: dict) -> str | None:
        """Coefficients against the recurrence table, then against the recorded digest."""
        if o.error:
            return f"{o.label}: raised {o.error}"
        coeffs = gamma_xy_values(o.output, self.size["gamma_xy_order"])
        table = eulab.expand.gamma_tables("gamma-n-xy-poly", GAMMA_XY_TABLE_N)
        x0, y0 = self.point
        for n in range(min(self.size["gamma_xy_order"], GAMMA_XY_TABLE_N) + 1):
            if coeffs[n] != str(table.values[n].evaluate({"x": x0, "y": y0})):
                return f"{o.label}: coefficient {n} at {point_key(self.point)} disagrees with the recurrence"
        return check_digest(o, json.dumps(coeffs), ref.get(o.label, {}).get(point_key(self.point)))


def gamma_xy_values(series: object, order: int) -> list[str]:
    """The EGF numerators n! [z^n] of a gamma-xy series at a point, as exact strings."""
    return [str(series.egf_coefficient(n).constant_value()) for n in range(order + 1)]


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (VerifyCatalog, OracleDeep, Algebra)}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
