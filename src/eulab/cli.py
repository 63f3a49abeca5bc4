"""Command-line verification harness and table emitter.

    eulab verify <identity|all> [--max-n N] [--k K] [--json]
    eulab table <name> --n N [--k K] --format {json,csv}
    eulab expand <basis> [--n N] [--var V]    (reads Poly JSON on stdin)

Exit codes: 0 pass, 1 identity failure, 2 usage (``UnknownIdentityError``),
3 size guard (``SizeLimitError``), 4 any other ``EngineError`` (a parse or
precondition error), 5 any other exception (a bug, one stderr line).
``verify`` reports every identity it ran and exits 5 if any checker raised a
non-``EngineError``, else 3 if any hit a size guard, else 1 if any did not
pass, else 0.  Table and expand output is byte-identical across identical
invocations; verify output includes wall times, which are the one
intentionally non-reproducible field.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import expand as expand_mod
from . import grammar, identities, permstats, stirlingperm, trees
from .errors import EngineError, InvalidParamError, SizeLimitError, UnknownIdentityError
from .exactalg import Poly, writer_guard

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SIZE_GUARD = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5  # an exception that is not an EngineError: a bug, not a refusal

def _dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.identity == "all":
        reports = identities.verify_all(args.max_n, args.k)
    else:
        reports = [identities.verify(args.identity, args.max_n, args.k)]
    if args.json:
        print(_dump([r.to_obj() for r in reports]))
    else:
        for r in reports:
            params = ", ".join(f"{k}={v}" for k, v in r.params.items() if v is not None)
            print(f"{r.name}: {r.status.upper()} ({params}) [{r.seconds:.2f}s]")
            if r.note:
                print(f"  note: {r.note}")
            if r.counterexample is not None:
                print(f"  counterexample: {_dump(r.counterexample)}")
    guarded = [r for r in reports if r.status == "guard"]
    for r in guarded:
        print(f"size guard: {r.note}", file=sys.stderr)
    broken = [r for r in reports if r.status == "error"]
    for r in broken:
        print(f"internal error in {r.name}: {r.note}", file=sys.stderr)
    if broken:
        return EXIT_INTERNAL
    if guarded:
        return EXIT_SIZE_GUARD
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


_IntegerTable = tuple[tuple[str, ...], list[tuple]]  # (header, rows), the value last in each row


def _triangle_table(triangle: str) -> Callable[[int, int | None], _IntegerTable]:
    def rows(n: int, k: int | None) -> _IntegerTable:
        cells = ((m, j, expand_mod.triangle(triangle, m, j)) for m in range(n + 1) for j in range(m + 1))
        return ("n", "k", "value"), [row for row in cells if row[2]]

    return rows


def _gamma_nij_table(n: int, k: int | None) -> _IntegerTable:
    rows = expand_mod.gamma_tables("gamma-nij", n).values
    cells = [(m, *key, v) for m, row in enumerate(rows) for key, v in sorted(row.items())]
    return ("n", "i", "j", "value"), cells


def _gamma_histogram_table(n: int, k: int | None) -> _IntegerTable:
    rows = grammar.histogram_rows(n)
    cells = [(m, list(key), v) for m, row in enumerate(rows) for key, v in sorted(row.items())]
    return ("n", "index", "value"), cells


def _kth_order_table(n: int, k: int | None) -> Poly:
    if k is None:
        raise InvalidParamError("kth-order table requires --k")
    return stirlingperm.kth_order_poly(n, k)


#: table name -> builder at (--n, --k) of a polynomial table or an integer table
_TABLES: dict[str, Callable[[int, int | None], "Poly | _IntegerTable"]] = {
    "eulerian": _triangle_table("eulerian"),
    "trivariate": lambda n, k: permstats.perm_poly(n, "trivariate"),
    "second-order": _triangle_table("second-order-eulerian"),
    "kth-order": _kth_order_table,
    "gamma-nij": _gamma_nij_table,
    "gamma-histogram": _gamma_histogram_table,
    "andre": lambda n, k: trees.tree_weight_poly(n, "andre"),
}


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise InvalidParamError(f"--n must be >= 0, got {args.n}")
    if args.k is not None and args.name != "kth-order":
        raise InvalidParamError(f"table {args.name} takes no --k")
    table = _TABLES[args.name](args.n, args.k)
    if isinstance(table, Poly):
        if args.format == "csv":
            print("monomial,coeff")
            for text, coeff in table.text_terms():
                print(f'{text},"{coeff}"')
        else:
            print(table.to_json())
        return EXIT_PASS
    header, rows = table
    if args.format == "csv":
        print(",".join(header))
        for *index, value in rows:
            cells = [f'"{" ".join(map(str, c))}"' if isinstance(c, list) else str(c) for c in index]
            print(",".join(cells + [f'"{value}"']))
    else:
        print(_dump([dict(zip(header[:-1], row[:-1])) | {"value": str(row[-1])} for row in rows]))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def _cmd_expand(args: argparse.Namespace) -> int:
    poly = Poly.from_json(sys.stdin.read())
    basis = args.basis
    if basis in ("gamma", "frobenius"):
        var = args.var or "x"
        n = args.n if args.n is not None else poly.degree_in(var)
        if basis == "gamma":
            expansion = expand_mod.gamma_expand(poly, var, n)
        else:
            expansion = expand_mod.frobenius_expand(poly, var, n)
    elif basis == "partial-gamma":
        n = args.n if args.n is not None else poly.total_degree()
        expansion = expand_mod.partial_gamma_expand(poly, n)
    else:  # esym
        variables = poly.variables()
        expansion = expand_mod.esym_expand(poly, variables)
    with writer_guard():
        coeffs = [{"index": list(key), "coeff": str(c)} for key, c in sorted(expansion.coeffs.items())]
    out: dict = {"basis": expansion.basis, "coeffs": coeffs}
    if expansion.n is not None:
        out["n"] = expansion.n
    if expansion.var is not None:
        out["var"] = expansion.var
    if expansion.variables:
        out["variables"] = list(expansion.variables)
        out["e_positive"] = expansion.is_positive()
    print(_dump(out))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulab",
        description="Exact verification harness for Eulerian-type polynomial identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one catalog identity (or all)")
    p_verify.add_argument("identity", help=f"identity name or 'all'; known: {', '.join(identities.IDENTITY_NAMES)}")
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=_cmd_verify)

    p_table = sub.add_parser("table", help="emit a polynomial or integer table")
    p_table.add_argument("name", choices=_TABLES)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--k", type=int, default=None)
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.set_defaults(fn=_cmd_table)

    p_expand = sub.add_parser("expand", help="expand a Poly (JSON on stdin) in a basis")
    p_expand.add_argument("basis", choices=expand_mod.BASES)
    p_expand.add_argument("--n", type=int, default=None)
    p_expand.add_argument("--var", default=None)
    p_expand.set_defaults(fn=_cmd_expand)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "k", None) is not None and args.k < 1:
            raise InvalidParamError(f"--k must be >= 1, got {args.k}")
        return args.fn(args)
    except UnknownIdentityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # not a refusal: a bug, reported in one line
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
