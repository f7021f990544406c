import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

from sexticfield import cli
from sexticfield.basis import IntegralBasis, assemble
from sexticfield.cli import run
from sexticfield.sextic import CASE_LABELS, normalize, p_integral_basis
from sexticfield.verify import OrderPresentation

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
    ):
        code, out, err = _capture(capsys, argv)
        assert code == 64
        assert out == ""
        assert err != ""


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


def test_pure_cross_check(capsys):
    code, out, _ = _capture(
        capsys, ["--a", "0", "--b", "135", "--pure", "--verify", "full", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["verification"]["checks"]]
    assert "pure_sextic_cross_check" in names
    assert report["verification"]["all_passed"] is True

    # with a nonzero the flag cannot apply and degrades to a warning
    code, out, _ = _capture(capsys, ["--a", "4", "--b", "4", "--pure", "--json"])
    assert code == 0
    report = json.loads(out)
    assert any("--pure ignored" in w for w in report["warnings"])


def test_pure_ignored_when_b_resists_the_budget(capsys):
    """The closed form needs b factored; failing that it is a warning."""
    b = (2 ** 61 - 1) * (2 ** 89 - 1)
    argv = ["--a", "0", "--b", str(b), "--json", "--factor-budget", "10"]
    code, plain, err = _capture(capsys, argv)
    assert (code, err) == (0, "")
    code, out, err = _capture(capsys, argv + ["--pure"])
    assert (code, err) == (0, "")
    report, without = json.loads(out), json.loads(plain)
    warning = report["warnings"].pop()
    assert warning.startswith(f"--pure ignored: cannot certify b = {b} sixth-power-free")
    assert report == without


def test_verify_modes(capsys):
    code, out, _ = _capture(
        capsys, ["--a", "0", "--b", "12", "--verify", "none"]
    )
    assert code == 0
    assert "verification: skipped" in out

    code, out, _ = _capture(
        capsys, ["--a", "0", "--b", "12", "--verify", "full", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["verification"]["checks"]]
    assert "transition_determinant" in names
    assert "maximality_at_2" in names
    assert "dedekind_agreement_at_3" in names
    assert all(c["passed"] for c in report["verification"]["checks"])


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
    """D = -(2^12 * 8539) for (4, 4): only p = 2 needs the oracles."""
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
    code, out, err = _capture(
        capsys, ["--a", "4", "--b", "4", "--json", "--verify", "full"]
    )
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "a4_b4_full.json").read_text()
    assert seen == {"maximality": [2], "dedekind": [2]}


def test_low_valuation_prime_in_the_index_fails_maximality(
    capsys, monkeypatch
):
    """A basis with 8539 in its index fails maximality_at_8539, v(D) = 1.

    No lattice with that index is a ring, so the ring certificate is
    built from the honest basis; that isolates the maximality decision.
    """
    honest = assemble(normalize(4, 4))
    basis = honest.basis
    tampered = dataclasses.replace(
        honest,
        basis=IntegralBasis(
            rows=basis.rows,
            denominators=basis.denominators[:5]
            + (basis.denominators[5] * 8539,),
            index=basis.index * 8539,
            d_K=basis.d_K,
        ),
    )

    class HonestRing:
        @staticmethod
        def from_triangular(rows, denominators, f):
            return OrderPresentation.from_triangular(
                basis.rows, basis.denominators, f
            )

    monkeypatch.setattr(cli, "assemble", lambda field, factor_budget: tampered)
    monkeypatch.setattr(cli, "OrderPresentation", HonestRing)
    code, out, err = _capture(
        capsys, ["--a", "4", "--b", "4", "--json", "--verify", "full"]
    )
    assert code == 1
    assert err == ""
    checks = {
        c["name"]: c["passed"]
        for c in json.loads(out)["verification"]["checks"]
    }
    assert checks["maximality_at_8539"] is False
    assert checks["maximality_at_2"] is True


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
