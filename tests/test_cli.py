import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sexticfield import cli
from sexticfield.basis import Assembly, IntegralBasis, assemble, combine
from sexticfield.cli import run
from sexticfield.exact import floor_root
from sexticfield.sextic import (
    CASE_LABELS,
    PAdicBasis,
    normalize,
    p_integral_basis,
    reduce_triangular_rows,
)

from casegen import instance

GOLDEN = Path(__file__).parent / "golden"


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_json_report_worked_example(capsys):
    """The (4, 4) field: everything in the report is pinned."""
    code, out, err = _capture(capsys, ["--a", "4", "--b", "4", "--json"])
    assert code == 0
    assert err == ""
    report = json.loads(out)

    assert list(report) == [
        "input",
        "normalization",
        "irreducibility",
        "discriminant",
        "primes",
        "integral_basis",
        "index",
        "field_discriminant",
        "verification",
        "warnings",
    ]
    assert report["input"] == {"a": "4", "b": "4"}
    assert report["discriminant"]["value"] == "-34975744"
    assert report["index"] == "8"
    assert report["field_discriminant"]["d_K"] == "-546496"
    assert report["field_discriminant"]["factors"] == [["2", "6"], ["8539", "1"]]

    by_prime = {entry["prime"]: entry for entry in report["primes"]}
    assert by_prime["2"]["case"] == "E18"
    assert by_prime["2"]["k"] == ["0", "0", "0", "1", "1", "1"]

    basis = report["integral_basis"]
    assert basis["denominators"] == ["1", "1", "1", "2", "2", "2"]
    assert basis["elements"][3] == "(t^3)/2"

    ver = report["verification"]
    assert ver["mode"] == "basic"
    assert ver["all_passed"] is True

    # every numeric field is carried as a decimal string, never a JSON number
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert node is None or isinstance(node, (str, bool))

    walk(report)


def test_json_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = _capture(capsys, ["--a", "0", "--b", "12", "--json"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_reducible_inputs_exit_2(capsys):
    # x^2 + x + 2 divides x^6 + 5x - 2
    code, out, _ = _capture(capsys, ["--a", "5", "--b", "-2"])
    assert code == 2
    assert "reducible" in out
    assert "2 + t + t^2" in out

    # the degenerate family (a, b) = (6s^5, 5s^6) with s = 1
    code, out, _ = _capture(capsys, ["--a", "6", "--b", "5"])
    assert code == 2
    assert "1 + t" in out

    # b = 0 always splits off the root 0
    code, out, _ = _capture(capsys, ["--a", "3", "--b", "0"])
    assert code == 2
    assert "witness t" in out


def test_usage_errors_exit_64(capsys):
    for argv in (
        ["--a", "1"],                        # missing --b
        ["--b", "1"],                        # missing --a
        ["--a", "1", "--b", "2", "--prime", "6"],
        ["--a", "1", "--b", "2", "--factor-budget", "-1"],
        # D has about 4800 digits, past the int-to-str limit of 4300
        ["--a", str(10 ** 800 + 1), "--b", "3"],
        ["--a", "0", "--b", "135", "--pure"],  # the flag is gone
    ):
        code, out, err = _capture(capsys, argv)
        assert code == 64
        assert out == ""
        assert err != ""


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="no integer-to-string limit before Python 3.10.7",
)
def test_digit_limit_boundary(capsys):
    """|D| = 10^limit - 1 prints and 10^limit exits 64, at a lowered limit."""
    limit = sys.int_info.str_digits_check_threshold  # the lowest allowed
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for D in (10 ** limit - 1, -(10 ** limit - 1)):
            cli._check_printable(D)
        for D in (10 ** limit, -(10 ** limit)):
            with pytest.raises(cli.UsageError):
                cli._check_printable(D)
        # b = 0 gives D = 3125 a^6, below 10^limit at a and not at a + 1
        a = floor_root((10 ** limit - 1) // 3125, 6)
        assert 3125 * a ** 6 < 10 ** limit <= 3125 * (a + 1) ** 6
        code, out, err = _capture(capsys, ["--a", str(a), "--b", "0", "--json"])
        assert code == 2 and err == ""
        assert json.loads(out)["discriminant"]["value"] == str(3125 * a ** 6)
        code, out, err = _capture(capsys, ["--a", str(a + 1), "--b", "0", "--json"])
        assert code == 64 and out == ""
        assert f"more than {limit} digits" in err
    finally:
        sys.set_int_max_str_digits(saved)
    # the default limit applies again once it is restored
    code, _, _ = _capture(capsys, ["--a", str(a + 1), "--b", "0", "--json"])
    assert code == 2


def test_help_exits_0_through_main(capsys, monkeypatch):
    """--help prints the usage through the console script's entry point
    and exits 0; argparse formats help differently from 3.14 on."""
    monkeypatch.setattr(sys, "argv", ["sexticfield", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 0
    out = capsys.readouterr()
    assert "usage:" in out.out and "--factor-budget" in out.out
    assert out.err == ""


def test_prime_restriction(capsys):
    """--prime computes only the local data and says so."""
    code, out, _ = _capture(
        capsys, ["--a", "0", "--b", "135", "--prime", "3", "--explain"]
    )
    assert code == 0
    assert "F26" in out
    assert out.count("B = 5") == 1
    assert "index = 2187" in out
    assert "restricted to p = 3" in out
    assert "d_K =" not in out

    code, out, _ = _capture(
        capsys, ["--a", "0", "--b", "135", "--prime", "7", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["primes"][0]["case"] == "H1"
    assert report["index"] == "1"
    assert report["field_discriminant"] is None


def test_explain_translated_polygon(capsys):
    """Cases proved via a shifted base expose that polygon too."""
    code, out, _ = _capture(
        capsys,
        ["--a", "4", "--b", "4", "--prime", "8539", "--explain", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    exp = report["primes"][0]["explain"]
    assert report["primes"][0]["case"] == "H12"
    assert exp["polygon"]["base"] == "t"
    assert exp["translated_polygon"]["base"] == "t - (-6/5)"
    # a negative integer translation point is parenthesized the same way
    argv = ["--a", "-6", "--b", "-20", "--prime", "5", "--explain"]
    code, out, _ = _capture(capsys, argv + ["--json"])
    assert code == 0
    exp = json.loads(out)["primes"][0]["explain"]
    assert exp["translated_polygon"]["base"] == "t - (-4)"
    code, out, _ = _capture(capsys, argv)
    assert code == 0
    assert "polygon in t - (-4)" in out


_SRC = Path(__file__).resolve().parents[1] / "src"

# run by a fresh interpreter: the report goes to stdout, the names of the
# modules loaded from tests/ to the last line of stderr
_SRC_ONLY = """
import json, os, sys
sys.path.insert(0, {src!r})
from sexticfield import cli
code = cli.run({argv!r})
files = {{name: getattr(mod, "__file__", None) for name, mod in sys.modules.items()}}
loaded = sorted(name for name, file in files.items()
                if file and os.path.realpath(file).startswith({tests!r}))
print(json.dumps(loaded), file=sys.stderr)
sys.exit(code)
"""


def test_package_runs_from_src_alone(tmp_path):
    """With only src on sys.path (-I -S: no PYTHONPATH, site-packages or
    script directory) and run outside the checkout, --explain --verify
    full answers and loads no module of the test suite.  -B: -I ignores
    PYTHONDONTWRITEBYTECODE, and bytecode cached under src would make
    later cold starts from this checkout faster than a fresh one's."""
    argv = ["--a", "-6", "--b", "-20", "--json", "--explain", "--verify", "full"]
    tests = str(Path(__file__).resolve().parent) + os.sep
    script = _SRC_ONLY.format(src=str(_SRC), argv=argv, tests=tests)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == []
    report = json.loads(proc.stdout)
    (entry,) = [e for e in report["primes"] if e["prime"] == "5"]
    assert entry["case"] == "G6"
    assert "translated_polygon" in entry["explain"]


# run by a fresh interpreter that writes no bytecode: prints which of
# dataclasses and inspect are loaded after the statements
_LOADED = """
import sys
sys.path.insert(0, {src!r})
{statements}
print(" ".join(sorted({{"dataclasses", "inspect"}} & set(sys.modules))))
"""


def _loaded_after(statements, cwd):
    script = _LOADED.format(src=str(_SRC), statements=statements)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    """Importing the CLI loads dataclasses or inspect only where the
    stdlib modules it imports (argparse with a parser built, fractions,
    json.encoder) load them anyway: every CLI call would pay for them."""
    stdlib = _loaded_after(
        "import argparse, fractions, json.encoder\n"
        "argparse.ArgumentParser(prog='p', description='d')"
        ".add_argument('--a', type=int, help='h')",
        tmp_path,
    )
    assert _loaded_after("import sexticfield.cli", tmp_path) <= stdlib


def test_verify_modes(capsys):
    """Each mode lists exactly its checks; full adds one proof at each
    prime with v_p(D) >= 2, so none at 8539 for (4, 4), where
    v_8539(D) = 1: Cohen's test where k > 0 (2 for both fields), the
    Dedekind criterion where k = 0 (3 for (0, 12))."""
    code, out, _ = _capture(
        capsys, ["--a", "0", "--b", "12", "--verify", "none"]
    )
    assert code == 0
    assert "verification: skipped" in out

    full = ["basis_rows_integral", "transition_determinant", "ring_closure"]
    expected = {
        (0, 12): full + ["maximality_at_2", "dedekind_agreement_at_3"],
        (4, 4): full + ["maximality_at_2"],
    }
    for (a, b), full_names in expected.items():
        lists = {"none": [], "basic": ["basis_rows_integral"], "full": full_names}
        for mode, names in lists.items():
            code, out, err = _capture(
                capsys,
                ["--a", str(a), "--b", str(b), "--verify", mode, "--json"],
            )
            assert (code, err) == (0, "")
            ver = json.loads(out)["verification"]
            assert [c["name"] for c in ver["checks"]] == names, (a, b, mode)
            assert all(c["passed"] for c in ver["checks"])
            assert ver["all_passed"] is True


def test_text_report_worked_example(capsys):
    """The whole text report of (0, 12) is the README's example block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(
        r"```\nsexticfield --a 0 --b 12\n```\n\n```\n(.*?)```\n", readme, re.S
    )
    assert block is not None
    code, out, err = _capture(capsys, ["--a", "0", "--b", "12"])
    assert code == 0
    assert err == ""
    assert out == block.group(1)


@pytest.mark.parametrize("a, b", [(0, 12), (0, 135), (4, 4)])
@pytest.mark.parametrize("mode", ["basic", "full"])
def test_json_matches_golden(capsys, a, b, mode):
    """Byte-identical --json output on the worked fields, both verify modes."""
    code, out, err = _capture(
        capsys, ["--a", str(a), "--b", str(b), "--json", "--verify", mode]
    )
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / f"a{a}_b{b}_{mode}.json").read_text()


def _case_entries():
    """Two seeded instances of every case with their --explain entry."""
    rng = random.Random(87)
    out = []
    for label in CASE_LABELS:
        for _ in range(2):
            p, F = instance(label, rng)
            entry = cli._prime_entry(p_integral_basis(p, F), F.f, explain=True)
            out.append({"a": str(F.a), "b": str(F.b), "entry": entry})
    return json.dumps(out, indent=2) + "\n"


def test_case_entries_match_golden():
    """Per-case label, valuations, k, params, rows and polygons are pinned."""
    assert _case_entries() == (GOLDEN / "case_entries.json").read_text()


# every code point, lone surrogates and control characters included
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
@example({})
@example([])
@example({"": [[], {}, [[]], {"a": {}}]})
@example(["\x00\x1f\x7f\n\t\"\\", "\u00e9\u2713\U0001f600", "\ud800", "\udfff\ud834"])
@example({"\ud83d": None, "\x01": True, "k": False})
def test_json_writer_matches_json_dumps(obj):
    assert cli._render_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    0, 1.5, (), ("a",), b"a", {"a"}, {1: "a"}, {None: "a"}, ["a", 3],
    {"k": ["v", {"n": 2}]}, {"k": ("t",)},
])
def test_json_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli._render_json(obj)


def test_json_writer_renders_the_case_entries():
    entries = json.loads((GOLDEN / "case_entries.json").read_text())
    assert cli._render_json(entries) + "\n" == _case_entries()


def test_unexpected_exception_exits_1_without_traceback(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "assemble", boom)
    code, out, err = _capture(capsys, ["--a", "4", "--b", "4", "--json"])
    assert code == 1
    assert out == ""
    assert err == "internal error: ZeroDivisionError: boom\n"


def test_coefficients_beyond_float_range(capsys):
    """Perfect-power detection must not go through a float root."""
    a, b = 10 ** 60 + 1, 10 ** 61 + 3
    code, out, err = _capture(
        capsys,
        ["--a", str(a), "--b", str(b), "--json", "--factor-budget", "10000"],
    )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["verification"]["all_passed"]
    D = int(report["discriminant"]["value"])
    d_K = int(report["field_discriminant"]["d_K"])
    assert D == int(report["index"]) ** 2 * d_K


def test_sixth_power_content_above_the_trial_limit(capsys):
    """p = 1131479 > 10^6 with p^5 | a and p^6 | b is normalized away."""
    a = 18742951521298592598325864112164109052618736657
    b = -207997723422489013374180261907979353154944250519
    code, out, err = _capture(
        capsys,
        ["--a", str(a), "--b", str(b), "--json", "--factor-budget", "10000"],
    )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["normalization"]["applied"] == [["1131479", "1"]]
    assert report["verification"]["all_passed"]
    D = int(report["discriminant"]["value"])
    d_K = int(report["field_discriminant"]["d_K"])
    assert D == int(report["index"]) ** 2 * d_K


def test_unsplit_gcd_warns(capsys):
    m = (2 ** 89 - 1) * (2 ** 107 - 1)
    code, out, err = _capture(
        capsys,
        ["--a", str(7 * m), "--b", str(5 * m), "--json", "--factor-budget", "100"],
    )
    assert code == 0
    # m^5 is the whole cofactor of D: the rest of D factors completely,
    # so only the gcd's own warning speaks for it
    report = json.loads(out)
    assert report["discriminant"]["unfactored_cofactor"] == str(m ** 5)
    assert report["warnings"] == [
        "gcd(a, b) keeps an unfactored cofactor of 196 bits; sixth-power "
        "content in it is assumed absent",
        "gcd(a, b) of the normalized pair keeps an unfactored part of 196 "
        "bits; its primes stay in the discriminant's cofactor and are "
        "assumed not to divide the index",
    ]


def test_unsplit_gcd_is_factored_once(capsys, monkeypatch):
    """normalize's factorization of gcd(a, b) serves assemble too.

    From 10^36 up normalize factors the gcd; assemble reads the
    normalized gcd's factorization off it instead of running rho on the
    same unsplit 196-bit part again.  The report, both warnings
    included, is pinned by a golden.
    """
    from sexticfield import exact

    calls = []
    rho = exact._brent_rho

    def counting(n, budget):
        calls.append(n)
        return rho(n, budget)

    monkeypatch.setattr(exact, "_brent_rho", counting)
    m = (2 ** 89 - 1) * (2 ** 107 - 1)
    code, out, err = _capture(
        capsys,
        ["--a", str(7 * m), "--b", str(5 * m), "--json", "--factor-budget", "100"],
    )
    assert code == 0
    assert err == ""
    assert calls == [m]
    assert out == (GOLDEN / "unsplit_gcd_budget100.json").read_text()


def test_full_verify_runs_oracles_only_where_the_index_can_live(
    capsys, monkeypatch
):
    """One oracle per prime with v_p(D) >= 2, chosen by k.

    D = -(2^12 * 8539) for (4, 4): only p = 2 needs a proof, and k > 0
    there.  For (0, 12), k > 0 at 2 and k = 0 at 3.
    """
    seen = {"maximality": [], "dedekind": []}

    def counting(name, oracle):
        def wrapper(x, p):
            seen[name].append(p)
            return oracle(x, p)
        return wrapper

    monkeypatch.setattr(
        cli, "maximality_test", counting("maximality", cli.maximality_test)
    )
    monkeypatch.setattr(
        cli, "dedekind_maximal_at_p",
        counting("dedekind", cli.dedekind_maximal_at_p),
    )
    for (a, b), expected in {
        (0, 12): {"maximality": [2], "dedekind": [3]},
        (4, 4): {"maximality": [2], "dedekind": []},
    }.items():
        for calls in seen.values():
            calls.clear()
        code, out, err = _capture(
            capsys, ["--a", str(a), "--b", str(b), "--json", "--verify", "full"]
        )
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"a{a}_b{b}_full.json").read_text()
        assert seen == expected, (a, b)


def test_low_valuation_prime_in_the_index_fails_integrality(
    capsys, monkeypatch
):
    """A basis with 8539 in its index still exits 1, v_8539(D) = 1.

    No check is listed at 8539, where the index relation leaves nothing
    to decide; the tampered row t^5/(2 * 8539) is not integral, so
    basis_rows_integral fails, under basic and under full alike.
    """
    honest = assemble(normalize(4, 4))
    basis = honest.basis
    tampered = Assembly(
        discriminant_factors=honest.discriminant_factors,
        per_prime=honest.per_prime,
        basis=IntegralBasis(
            rows=basis.rows,
            denominators=basis.denominators[:5]
            + (basis.denominators[5] * 8539,),
            index=basis.index * 8539,
            d_K=basis.d_K,
        ),
        warnings=honest.warnings,
    )
    monkeypatch.setattr(cli, "assemble", lambda field, factor_budget: tampered)
    for mode in ("basic", "full"):
        code, out, err = _capture(
            capsys, ["--a", "4", "--b", "4", "--json", "--verify", mode]
        )
        assert (code, err) == (1, "")
        ver = json.loads(out)["verification"]
        checks = {c["name"]: c["passed"] for c in ver["checks"]}
        assert checks["basis_rows_integral"] is False
        assert not any(name.endswith("_at_8539") for name in checks)
        assert ver["all_passed"] is False


def test_lattice_that_is_no_ring_fails_ring_closure(capsys, monkeypatch):
    """A lattice that OrderPresentation refuses is a failed ring_closure
    check in a complete report, not an internal error; with no order,
    no prime with k > 0 is claimed maximal."""

    class NoRing:
        @staticmethod
        def from_triangular(rows, denominators, f):
            raise ValueError("lattice is not closed under multiplication")

    monkeypatch.setattr(cli, "OrderPresentation", NoRing)
    code, out, err = _capture(
        capsys, ["--a", "4", "--b", "4", "--json", "--verify", "full"]
    )
    assert (code, err) == (1, "")
    report = json.loads(out)
    golden = json.loads((GOLDEN / "a4_b4_full.json").read_text())
    assert {k: v for k, v in report.items() if k != "verification"} == {
        k: v for k, v in golden.items() if k != "verification"
    }
    ver = report["verification"]
    assert ver["checks"] == [
        {"name": "basis_rows_integral", "passed": True},
        {"name": "transition_determinant", "passed": True},
        {"name": "ring_closure", "passed": False},
        {"name": "maximality_at_2", "passed": False},
    ]
    assert ver["all_passed"] is False


def _plant_at_2(monkeypatch, a, b, k):
    """Make assemble claim exponents k at 2, with the honest rows reduced
    to the new denominators and v_p(d_K) moved to keep the index
    relation; every other prime keeps its honest entry."""
    field = normalize(a, b)
    honest = assemble(field)
    pb2, *rest = honest.per_prime
    rows = reduce_triangular_rows(pb2.rows, [2 ** e for e in k])
    planted = PAdicBasis(
        p=2, case=pb2.case, params=pb2.params, k=k, rows=rows,
        v_D=pb2.v_D, v_dK=pb2.v_D - 2 * sum(k),
    )
    per_prime = (planted, *rest)
    tampered = Assembly(
        discriminant_factors=honest.discriminant_factors,
        per_prime=per_prime,
        basis=combine(per_prime, field.D),
        warnings=honest.warnings,
    )
    monkeypatch.setattr(cli, "assemble", lambda field, factor_budget: tampered)
    return tampered.basis.index


def test_claimed_power_order_at_2_fails_dedekind(capsys, monkeypatch):
    """(4, 4) claimed as k = 0 at 2 (index 1): Z[theta] is integral and a
    ring, but the Dedekind criterion, the one proof listed where k = 0,
    finds it not 2-maximal."""
    assert _plant_at_2(monkeypatch, 4, 4, (0,) * 6) == 1
    code, out, err = _capture(
        capsys, ["--a", "4", "--b", "4", "--json", "--verify", "full"]
    )
    assert (code, err) == (1, "")
    assert json.loads(out)["verification"]["checks"] == [
        {"name": "basis_rows_integral", "passed": True},
        {"name": "transition_determinant", "passed": True},
        {"name": "ring_closure", "passed": True},
        {"name": "dedekind_agreement_at_2", "passed": False},
    ]


def test_order_too_small_at_2_fails_maximality(capsys, monkeypatch):
    """(0, 12)'s E20 rows at 2 reduced for k = (0, 0, 0, 1, 1, 1): the
    lattice of index 8 is integral and a ring, but Cohen's test, the one
    proof listed where k > 0, finds it not 2-maximal."""
    assert _plant_at_2(monkeypatch, 0, 12, (0, 0, 0, 1, 1, 1)) == 8
    code, out, err = _capture(
        capsys, ["--a", "0", "--b", "12", "--json", "--verify", "full"]
    )
    assert (code, err) == (1, "")
    assert json.loads(out)["verification"]["checks"] == [
        {"name": "basis_rows_integral", "passed": True},
        {"name": "transition_determinant", "passed": True},
        {"name": "ring_closure", "passed": True},
        {"name": "maximality_at_2", "passed": False},
        {"name": "dedekind_agreement_at_3", "passed": True},
    ]


def test_hidden_gcd_prime_is_classified(capsys):
    """A 46-bit prime dividing a and b is found from gcd(a, b).

    D carries it to the tenth power inside a cofactor that rho cannot
    split at this budget; at p the field is case H4, so p^3 divides the
    index.
    """
    p = 35184372088891
    a, b = p ** 2 * 1000000000039, p ** 2 * 999999999989
    code, out, err = _capture(
        capsys,
        ["--a", str(a), "--b", str(b), "--json", "--verify", "full",
         "--factor-budget", "10000"],
    )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    by_prime = {entry["prime"]: entry for entry in report["primes"]}
    assert by_prime[str(p)]["case"] == "H4"
    assert by_prime[str(p)]["v_D"] == "10"
    assert int(report["index"]) % p ** 3 == 0
    assert report["verification"]["all_passed"]
    assert report["warnings"] == [
        "discriminant factorization incomplete (cofactor of 341 bits); the "
        "part of it prime to 30ab is assumed squarefree, so no prime in "
        "that part divides the index"
    ]


_BIG = 10 ** 120
_UNIFORM_PAIRS = st.tuples(
    st.integers(-_BIG, _BIG), st.integers(-_BIG, _BIG).filter(bool)
)


@st.composite
def _shared_power_pairs(draw):
    """a = g^i * u, b = g^j * v for an odd g of 40 to 60 bits: content
    above the trial limit, and gcd primes that uniform pairs never hit."""
    g = draw(st.integers(2 ** 39, 2 ** 60 - 1)) | 1
    u = draw(st.integers(-10 ** 6, 10 ** 6))
    v = draw(st.integers(-10 ** 6, 10 ** 6).filter(bool))
    return g ** draw(st.integers(0, 6)) * u, g ** draw(st.integers(0, 7)) * v


@settings(max_examples=60, deadline=None)
@given(st.one_of(_UNIFORM_PAIRS, _shared_power_pairs()))
def test_cli_boundary_on_drawn_pairs(pair):
    """No pair ends in a traceback or an unverified answer: the run exits
    0 or 2 with nothing on stderr and JSON on stdout; a field passes
    --verify full, and D = index^2 * d_K once D is fully factored."""
    a, b = pair
    assume(3125 * a ** 6 != 46656 * b ** 5)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--a", str(a), "--b", str(b), "--json", "--verify", "full",
                    "--factor-budget", "100"])
    assert code in (0, 2), err.getvalue()
    assert err.getvalue() == ""
    report = json.loads(out.getvalue())
    if code == 0:
        assert report["verification"]["all_passed"]
        if "unfactored_cofactor" not in report["discriminant"]:
            D = int(report["discriminant"]["value"])
            d_K = int(report["field_discriminant"]["d_K"])
            assert D == int(report["index"]) ** 2 * d_K
