import inspect
import io
import json
import time

import pytest

from eulab import expand, grammar, identities, permstats, series, trees
from eulab.cli import _TABLES, main
from eulab.errors import InvalidParamError, PolyParseError
from eulab.exactalg import MAX_EXPONENT, Poly
from eulab.identities import IdentityReport
from eulab.permstats import perm_poly
from eulab.stirlingperm import kth_order_poly

x = Poly.var("x")


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "diaconis", "--max-n", "4"])
        assert code == 0
        assert "diaconis: PASS" in out

    def test_trivial_range(self, capsys):
        code, out, _ = run(capsys, ["verify", "frobenius", "--max-n", "1"])
        assert code == 0

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, ["verify", "andre", "--max-n", "4", "--json"])
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["identity"] == "andre"
        assert reports[0]["status"] == "pass"
        assert reports[0]["params"] == {"max_n": 4}

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["verify", "nonsense"])
        assert code == 2
        assert "unknown identity" in err

    def test_table_range_is_a_size_guard(self, capsys):
        # gamma-2n-2n reads histogram row max_n + 1, past the table guard: an OutOfRangeError
        code, out, err = run(capsys, ["verify", "gamma-2n-2n", "--max-n", "12", "--json"])
        assert code == 3
        assert [r["status"] for r in json.loads(out)] == ["guard"]
        assert err == "size guard: table guard: need 0 <= n_max <= 12\n"

    def test_a_wrong_route_is_a_reported_failure(self, capsys, monkeypatch):
        """+1 on the largest joint key of S_n for n >= 2 breaks the gamma and partial-gamma
        solvers' preconditions: those identities FAIL with the error as the note, and
        every identity is still reported."""
        sweep = permstats._perm_table

        def planted(n):
            table = sweep(n)
            if n < 2:
                return table
            joint = dict(table.joint)
            joint[max(joint)] += 1
            return table._replace(joint=joint)

        def clear():
            for cached in (permstats.perm_poly, permstats.asc_suc_counts):
                cached.cache_clear()

        clear()
        monkeypatch.setattr(permstats, "_perm_table", planted)
        try:
            code, out, err = run(capsys, ["verify", "all", "--json"])
        finally:
            clear()
        assert (code, err) == (1, "")
        reports = {r["identity"]: r for r in json.loads(out)}
        assert len(reports) == 22
        for name, error in [("gamma-eulerian", "NotPalindromicError"), ("partial-gamma", "NotExpandableError")]:
            assert reports[name]["status"] == "fail"
            assert reports[name]["note"].startswith(f"{error}: ")
            assert "counterexample" not in reports[name]
        assert reports["frobenius"]["status"] == "fail"
        assert reports["andre"]["status"] == "pass"

    def test_a_broken_checker_is_an_internal_error(self, capsys, monkeypatch):
        """An exception no route documents is that identity's ERROR, not a FAIL and not a
        crash: every identity is still reported, and the run exits 5."""
        read = permstats.perm_poly

        def planted(n, family):
            if n == 5:
                raise KeyError(family)
            return read(n, family)

        monkeypatch.setattr(permstats, "perm_poly", planted)
        code, out, err = run(capsys, ["verify", "all", "--json"])
        assert code == 5
        reports = {r["identity"]: r for r in json.loads(out)}
        assert len(reports) == 22
        broken = {name for name, r in reports.items() if r["status"] == "error"}
        assert broken == {
            "convolution", "frobenius", "gamma-eulerian", "partial-gamma",
            "stembridge", "trivariate-egf", "trivariate-grammar",
        }
        assert reports["frobenius"]["note"] == "KeyError: 'eulerian'"
        assert all(r["status"] == "pass" for name, r in reports.items() if name not in broken)
        assert err.count("internal error in ") == len(broken)

    def test_an_internal_error_outranks_a_guard(self, capsys, monkeypatch):
        reports = [
            IdentityReport("a", {}, "fail", None, 0.0),
            IdentityReport("b", {}, "guard", None, 0.0, "too large"),
            IdentityReport("c", {}, "error", None, 0.0, "KeyError: 5"),
        ]
        monkeypatch.setattr(identities, "verify_all", lambda max_n, k: reports)
        code, _, err = run(capsys, ["verify", "all", "--json"])
        assert (code, err) == (5, "size guard: too large\ninternal error in c: KeyError: 5\n")
        monkeypatch.setattr(identities, "verify_all", lambda max_n, k: reports[:2])
        assert run(capsys, ["verify", "all", "--json"])[0] == 3

    def test_a_bad_histogram_entry_is_a_reported_failure(self, capsys, monkeypatch):
        """A histogram entry off the theorem's shape fails the identities that read the table."""
        read = grammar.e_exponent_table

        def planted(p, k):
            table = read(p, k)
            row_4 = k == grammar.MAX_HISTOGRAM_N - 1 and p.total_degree() == 4  # mainthm-esym reads k <= 4
            return {exps: -c for exps, c in table.items()} if row_4 else table

        grammar._histogram_rows.cache_clear()
        monkeypatch.setattr(grammar, "e_exponent_table", planted)
        try:
            code, out, _ = run(capsys, ["verify", "all", "--json"])
        finally:
            grammar._histogram_rows.cache_clear()
        assert code == 1
        failed = {r["identity"]: r["note"] for r in json.loads(out) if r["status"] != "pass"}
        assert set(failed) == {"gamma-2n-2n", "final-corollary"}
        assert all(note.startswith("EngineError: histogram entry gamma(4;") for note in failed.values())

    def test_size_guard_exit_code(self, capsys):
        code, _, err = run(capsys, ["verify", "diaconis", "--max-n", "12"])
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("identity", ["trivariate-pde", "trivariate-egf", "convolution"])
    def test_series_identities_guard_at_once(self, capsys, identity):
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", identity, "--max-n", "60", "--json"])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert [r["status"] for r in json.loads(out)] == ["guard"]
        assert err.startswith("size guard:")

    def test_pde_at_order_zero_is_empty(self, capsys):
        code, out, _ = run(capsys, ["verify", "trivariate-pde", "--max-n", "0", "--json"])
        assert code == 1
        assert [r["status"] for r in json.loads(out)] == ["empty"]

    def test_restricted_multiplicity(self, capsys):
        code, out, _ = run(capsys, ["verify", "mainthm-esym", "--max-n", "5", "--k", "3"])
        assert code == 0
        assert "mainthm-esym: PASS" in out

    def test_empty_range_is_not_a_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", "frobenius", "--max-n", "-3"])
        assert code == 1
        assert "frobenius: EMPTY" in out
        assert "PASS" not in out

    def test_all_runs_past_empty_ranges(self, capsys):
        from eulab.identities import IDENTITY_NAMES

        code, out, _ = run(capsys, ["verify", "all", "--max-n", "0", "--json"])
        assert code == 1
        status = {r["identity"]: r["status"] for r in json.loads(out)}
        assert set(status) == set(IDENTITY_NAMES)
        assert status["frobenius"] == "empty"
        assert status["cn2-closed-form"] == "empty"
        assert status["andre"] == "pass"
        assert status["trivariate-grammar"] == "pass"

    def test_guard_keeps_the_other_reports(self, capsys, monkeypatch):
        from eulab.identities import IDENTITY_NAMES

        monkeypatch.setattr("eulab.stirlingperm.PRODUCT_GUARD", 100)  # |Q_4(2)| = 105
        code, out, err = run(capsys, ["verify", "all", "--max-n", "4", "--json"])
        assert code == 3
        status = {r["identity"]: r["status"] for r in json.loads(out)}
        assert set(status) == set(IDENTITY_NAMES)
        stirling = {"chenfu-esym", "kth-grammar", "mainthm-esym", "second-order-grammar"}
        assert {name for name, s in status.items() if s == "guard"} == stirling
        assert {status[name] for name in set(status) - stirling} == {"pass"}
        assert err.count("size guard:") == len(stirling)
        assert all(line.startswith("size guard: k-Stirling guard: |Q_4(") for line in err.splitlines())

    def test_all_past_every_limit_guards_at_once(self, capsys):
        from eulab.identities import IDENTITY_NAMES

        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", "all", "--max-n", "2000", "--json"])
        assert time.perf_counter() - start < 5.0
        assert code == 3
        reports = json.loads(out)
        assert [r["identity"] for r in reports] == list(IDENTITY_NAMES)
        guarded = [r["identity"] for r in reports if r["status"] == "guard"]
        assert len(guarded) == err.count("size guard:") == len(IDENTITY_NAMES) - 1

    @pytest.mark.parametrize("as_json", [False, True])
    def test_fraction_counterexample_is_serialized(self, capsys, monkeypatch, as_json):
        from fractions import Fraction

        from eulab import grammar

        table = grammar.e_exponent_table
        monkeypatch.setattr(
            grammar,
            "e_exponent_table",
            lambda p, k: {key: v + Fraction(1, 2) for key, v in table(p, k).items()},
        )
        argv = ["verify", "mainthm-esym", "--max-n", "3"] + (["--json"] if as_json else [])
        code, out, _ = run(capsys, argv)
        assert code == 1
        if as_json:
            counterexample = json.loads(out)[0]["counterexample"]
        else:
            counterexample = json.loads(out.split("counterexample: ", 1)[1])
        assert counterexample["n"] == 1

    def test_all_small_range(self, capsys):
        from eulab.identities import IDENTITY_NAMES

        code, out, _ = run(capsys, ["verify", "all", "--max-n", "2"])
        assert code == 0
        assert out.count("PASS") == len(IDENTITY_NAMES)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--k", "0"],
        ["verify", "kth-grammar", "--k", "-1"],
        ["table", "kth-order", "--n", "3", "--k", "0"],
    ],
)
def test_bad_k_is_rejected_before_any_work(capsys, monkeypatch, argv):
    def work(*args):
        raise AssertionError("work started before --k was checked")

    from eulab import identities

    monkeypatch.setattr(identities, "verify", work)
    monkeypatch.setitem(_TABLES, "kth-order", work)
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err == f"error: --k must be >= 1, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "frobenius", "--k", "3", "--json"], "identity frobenius takes no k"),
        (["verify", "andre", "--max-n", "4", "--k", "2"], "identity andre takes no k"),
        (["table", "andre", "--n", "3", "--k", "5"], "table andre takes no --k"),
        (["table", "eulerian", "--n", "3", "--k", "1", "--format", "csv"], "table eulerian takes no --k"),
    ],
)
def test_k_is_refused_where_nothing_reads_it(capsys, monkeypatch, argv, message):
    def work(*args):
        raise AssertionError("work started before --k was refused")

    from eulab import identities

    for name in ("frobenius", "andre"):
        entry = identities._REGISTRY[name]
        monkeypatch.setitem(identities._REGISTRY, name, identities._Entry(work, entry.min_n, entry.default_max_n))
    for name in ("andre", "eulerian"):
        monkeypatch.setitem(_TABLES, name, work)
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_all_passes_k_only_to_the_identities_that_take_it(capsys):
    from eulab.identities import IDENTITY_NAMES

    code, out, _ = run(capsys, ["verify", "all", "--max-n", "3", "--k", "2", "--json"])
    assert code == 0
    params = {r["identity"]: r["params"] for r in json.loads(out)}
    assert sorted(params) == sorted(IDENTITY_NAMES)
    with_k = {name for name, p in params.items() if "k" in p}
    assert with_k == {"kth-grammar", "mainthm-esym", "transform-catalog"}
    assert all(params[name]["k"] == 2 for name in with_k)


#: registry -> (its keys, the readers that take a key: module, attribute, parameter)
REGISTRIES = {
    "perm families": (permstats.FAMILIES, [(permstats, "perm_poly", "family")]),
    "EGF kinds": (series.EGF_NAMES, [(series, "egf_build", "name"), (identities, "egf_build", "name")]),
    "tree weightings": (trees.WEIGHTINGS, [(trees, "tree_weight_poly", "weighting")]),
    "recurrence kinds": (tuple(expand._RULES), [(expand, "_row", "kind")]),
    "gamma tables": (expand.TABLE_KINDS, [(expand, "gamma_tables", "kind")]),
    "expansion bases": (expand.BASES, [(expand, "Expansion", "basis")]),
}

#: (registry, key) -> why no command reads it
UNREAD = {
    ("EGF kinds", "derangement"): "acceptance criterion 10",
    ("EGF kinds", "no-succession"): "acceptance criterion 10",
}


def test_every_registry_key_has_a_reader_in_the_commands(capsys, monkeypatch):
    """`verify all` at its defaults, every table and every expand basis read each key of every
    registry, so the package computes nothing that no command checks or prints."""
    inputs = {
        "gamma": perm_poly(5, "eulerian"),
        "frobenius": x * perm_poly(5, "eulerian"),
        "partial-gamma": perm_poly(5, "trivariate"),
        "esym": kth_order_poly(3, 2),
    }
    read = set()

    def spy(registry, module, name, param):
        reader = getattr(module, name)
        signature = inspect.signature(reader)

        def spied(*args, **kwargs):
            read.add((registry, signature.bind(*args, **kwargs).arguments[param]))
            return reader(*args, **kwargs)

        monkeypatch.setattr(module, name, spied)

    for registry, (_, readers) in REGISTRIES.items():
        for reader in readers:
            spy(registry, *reader)
    assert run(capsys, ["verify", "all", "--json"])[0] == 0
    for name in _TABLES:
        assert run(capsys, ["table", name, "--n", "4", *(["--k", "2"] if name == "kth-order" else [])])[0] == 0
    for basis, poly in inputs.items():
        assert run(capsys, ["expand", basis], poly.to_json(), monkeypatch)[0] == 0
    unread = {(registry, key) for registry, (keys, _) in REGISTRIES.items() for key in keys} - read
    assert unread == set(UNREAD)


class TestTable:
    def test_second_order_csv_row(self, capsys):
        code, out, _ = run(capsys, ["table", "second-order", "--n", "5", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value"
        for expected in ('5,1,"1"', '5,2,"52"', '5,3,"328"', '5,4,"444"', '5,5,"120"'):
            assert expected in lines

    def test_eulerian_trivial(self, capsys):
        code, out, _ = run(capsys, ["table", "eulerian", "--n", "1", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1:] == ['0,0,"1"', '1,0,"1"']

    def test_gamma_nij_contains_expected_entry(self, capsys):
        code, out, _ = run(capsys, ["table", "gamma-nij", "--n", "4", "--format", "csv"])
        assert code == 0
        assert '4,0,2,"4"' in out.splitlines()

    def test_trivariate_json_is_poly_form(self, capsys):
        code, out, _ = run(capsys, ["table", "trivariate", "--n", "3", "--format", "json"])
        assert code == 0
        assert Poly.from_json(out.strip()) == perm_poly(3, "trivariate")

    def test_kth_order_requires_k(self, capsys):
        code, _, err = run(capsys, ["table", "kth-order", "--n", "2"])
        assert code == 4
        assert err == "error: kth-order table requires --k\n"
        with pytest.raises(InvalidParamError):
            _TABLES["kth-order"](2, None)
        code, out, _ = run(capsys, ["table", "kth-order", "--n", "2", "--k", "2"])
        assert code == 0

    def test_deterministic_output(self, capsys):
        argv = ["table", "gamma-histogram", "--n", "5", "--format", "csv"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_size_guard(self, capsys):
        code, _, err = run(capsys, ["table", "gamma-nij", "--n", "50"])
        assert code == 3

    def test_kth_order_table_guards_at_large_n(self, capsys):
        code, out, err = run(capsys, ["table", "kth-order", "--n", "2000", "--k", "1"])
        assert code == 3
        assert out == ""
        assert err.startswith("size guard:")

    def test_negative_n_is_rejected(self, capsys):
        code, out, err = run(capsys, ["table", "eulerian", "--n", "-3", "--format", "json"])
        assert code == 4
        assert out == ""
        assert "--n must be >= 0" in err


class TestExpand:
    def test_gamma_expansion_of_quartic(self, capsys, monkeypatch):
        payload = perm_poly(4, "eulerian").to_json()
        code, out, _ = run(capsys, ["expand", "gamma"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        result = json.loads(out)
        assert result["basis"] == "gamma"
        assert result["coeffs"] == [
            {"index": [0], "coeff": "1"},
            {"index": [1], "coeff": "8"},
        ]

    def test_gamma_expansion_of_binomial(self, capsys, monkeypatch):
        payload = ((1 + x) ** 3).to_json()
        code, out, _ = run(capsys, ["expand", "gamma"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["coeffs"] == [{"index": [0], "coeff": "1"}]

    def test_partial_gamma_expansion(self, capsys, monkeypatch):
        payload = perm_poly(4, "trivariate").to_json()
        code, out, _ = run(
            capsys, ["expand", "partial-gamma"], stdin=payload, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == [
            {"index": [0, 1], "coeff": "1"},
            {"index": [1, 1], "coeff": "3"},
            {"index": [3, 0], "coeff": "1"},
        ]

    def test_esym_reports_positivity(self, capsys, monkeypatch):
        from eulab.stirlingperm import kth_order_poly

        payload = kth_order_poly(2, 2).to_json()
        code, out, _ = run(capsys, ["expand", "esym"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        result = json.loads(out)
        assert result["e_positive"] is True
        assert result["coeffs"] == [{"index": [0, 1, 1], "coeff": "1"}]

    def test_parse_error_exit_code(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["expand", "gamma"], stdin="not json", monkeypatch=monkeypatch)
        assert code == 4

    def test_exponent_above_the_limit_exit_code(self, capsys, monkeypatch):
        payload = json.dumps([{"coeff": "1", "exponents": {"x_1": MAX_EXPONENT + 1}}])
        code, _, err = run(capsys, ["expand", "esym"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 4
        assert "limit" in err

    def test_precondition_error_exit_code(self, capsys, monkeypatch):
        payload = (1 + 2 * x).to_json()
        code, _, err = run(capsys, ["expand", "gamma"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 4

    def test_byte_identical_expand(self, capsys, monkeypatch):
        payload = perm_poly(5, "trivariate").to_json()
        _, first, _ = run(capsys, ["expand", "partial-gamma"], stdin=payload, monkeypatch=monkeypatch)
        _, second, _ = run(capsys, ["expand", "partial-gamma"], stdin=payload, monkeypatch=monkeypatch)
        assert first == second


def _raising(module, name, error, arg):
    """``module.name`` patched to raise ``error("planted")`` when ``arg`` is among its arguments."""
    read = getattr(module, name)

    def planted(*args):
        if arg in args:
            raise error("planted")
        return read(*args)

    return module, name, planted


#: 4 300 digits each, which the reader accepts; gamma_1 = -2c has 4 301, which no writer can print
_DIGIT_LIMIT_GAMMA = Poly.from_exponents([({}, 10**4300 - 1), ({"x": 2}, 10**4300 - 1)]).to_json()


@pytest.mark.parametrize(
    "argv, stdin, plant, code, stderr",
    [
        (["verify", "nonsense"], None, None, 2, "error: unknown identity 'nonsense'"),
        (["verify", "transform-catalog", "--k", "0"], None, None, 4, "error: --k must be >= 1, got 0"),
        (["table", "eulerian", "--n", "-1"], None, None, 4, "error: --n must be >= 0, got -1"),
        (["expand", "gamma"], "not json", None, 4, "error: invalid JSON"),
        (["expand", "gamma"], '[{"coeff":1.5,"exponents":{}}]', None, 4, "error: bad coefficient 1.5"),
        (["expand", "esym"], json.dumps([{"coeff": "1", "exponents": {"x_1": MAX_EXPONENT + 1}}]), None, 4,
         "error: bad exponent entry 'x_1': 32768"),
        (["expand", "gamma"], (1 + 2 * x).to_json(), None, 4, "error: coefficients of x^i and x^(n-i) differ"),
        (["verify", "frobenius", "--max-n", "11"], None, None, 3, "size guard: full enumeration guard: n=11"),
        (["table", "trivariate", "--n", "3"], None,
         _raising(permstats, "perm_poly", KeyError, "trivariate"), 5, "internal error: KeyError: 'planted'"),
        (["table", "trivariate", "--n", "3"], None,
         _raising(permstats, "perm_poly", ValueError, "trivariate"), 5, "internal error: ValueError: planted"),
        (["expand", "gamma"], _DIGIT_LIMIT_GAMMA, None, 4, "error: a coefficient has more than 4300 digits"),
        (["verify", "all", "--json"], None,
         _raising(trees, "tree_weight_poly", ValueError, "andre"), 5, "internal error in andre: ValueError: planted"),
    ],
    ids=[
        "unknown-identity", "k-zero", "negative-n", "bad-json", "float-coefficient", "exponent-past-the-limit",
        "not-palindromic", "size-guard", "crash-in-table", "bare-value-error-in-table",
        "coefficient-past-the-digit-limit", "bare-value-error-in-a-route",
    ],
)
def test_exit_code_table(capsys, monkeypatch, argv, stdin, plant, code, stderr):
    """Each documented bad input exits with its code and one stderr line: a refusal is an
    EngineError (2, 3 or 4), and any other exception is a bug (5), reported without a traceback.
    A refusal prints nothing on stdout, except the report ``verify`` prints before a size guard's exit 3."""
    if plant is not None:
        monkeypatch.setattr(*plant)
    got, out, err = run(capsys, argv, stdin, monkeypatch)
    assert got == code
    assert err.startswith(stderr) and err.count("\n") == 1, err
    if code < 5 and (argv[0], code) != ("verify", 3):
        assert out == "", out


def test_writer_refuses_a_coefficient_past_the_digit_limit():
    with pytest.raises(PolyParseError, match="more than 4300 digits"):
        Poly.const(10**5000).to_json()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "unknown-table", "--n", "3"])
    assert exc.value.code == 2
