"""The report checker of `tests/reportcheck.py` against the CLI.

Every golden report passes it (the `--prime` golden its local check),
and so does a seeded draw of two instances of every case run through
the CLI under `--verify none`, so that no verdict depends on the
package's own verifier.  Each planted
defect below fails the check that names it.  `check_corpus` runs the
checker on every `bench/corpus` entry under its workload's flags with
`--verify none`; CI calls it.
"""

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

from sexticfield.cli import run
from sexticfield.sextic import CASE_LABELS

import reportcheck
from casegen import instance
from oracles import PureSexticReport
from reportcheck import check_local_basis, check_report, parse_element

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _golden(name):
    return json.loads((GOLDEN / name).read_text())


def test_parse_element():
    assert parse_element("1") == ((1,), 1)
    assert parse_element("t^2") == ((0, 0, 1), 1)
    assert parse_element("(27 + 36*t + 9*t^2 + t^5)/54") == ((27, 36, 9, 0, 0, 1), 54)
    assert parse_element("(-3*t + t^3)/9") == ((0, -3, 0, 1), 9)
    for bad in ("t^2 + t", "t + t", "2t", "(1 + t)/", "x"):
        with pytest.raises(AssertionError):
            parse_element(bad)


def test_goldens_pass():
    reports = sorted(GOLDEN.glob("*.json"))
    checked = 0
    for path in reports:
        if path.name == "case_entries.json":
            continue
        report = json.loads(path.read_text())
        a, b = int(report["input"]["a"]), int(report["input"]["b"])
        if "_prime" in path.name:
            # a --prime report: one local entry, which is also the basis
            (entry,) = report["primes"]
            check_local_basis(a, b, entry)
            assert report["integral_basis"] == entry["basis"]
            p, k = int(entry["prime"]), map(int, entry["k"])
            assert report["index"] == str(p ** sum(k))
        else:
            check_report(a, b, report)
        checked += 1
    assert checked == 8
    entries = _golden("case_entries.json")
    for item in entries:
        check_local_basis(int(item["a"]), int(item["b"]), item["entry"])
    assert len(entries) == 2 * len(CASE_LABELS)


def test_case_draw_passes_under_verify_none():
    rng = random.Random(2011)
    codes = {0: 0, 2: 0}
    for label in CASE_LABELS:
        for _ in range(2):
            _, field = instance(label, rng)
            a, b = field.original
            code, out, err = _run(["--a", str(a), "--b", str(b), "--json",
                                   "--verify", "none", "--factor-budget", "10000"])
            assert code in codes and err == "", (label, a, b, code, err)
            codes[code] += 1
            check_report(a, b, json.loads(out))
    assert codes[0] >= 150


def _element_sign(r):
    r["integral_basis"]["elements"][4] = "(-9*t + t^4)/18"


def _row_constant(r):
    # (4 + t^3)/6 for (3 + t^3)/6, consistent in the row and the string
    r["integral_basis"]["rows"][3][0] = "4"
    r["integral_basis"]["elements"][3] = "(4 + t^3)/6"


def _power_basis(r):
    block = r["integral_basis"]
    block["rows"] = [["0"] * i for i in range(6)]
    block["denominators"] = ["1"] * 6
    block["elements"] = ["1", "t", "t^2", "t^3", "t^4", "t^5"]
    r["index"] = "1"
    r["field_discriminant"]["d_K"] = r["discriminant"]["value"]


def _d_K(r):
    r["field_discriminant"]["d_K"] = str(4 * int(r["field_discriminant"]["d_K"]))


def _index(r):
    r["index"] = str(int(r["index"]) + 1)


def _v_D(r):
    r["primes"][2]["v_D"] = "4"


def _composite_factor(r):
    r["discriminant"]["factors"][0] = ["4", "3"]


def _normalization(r):
    r["normalization"]["applied"] = [["2", "1"]]


def _false_witness(r):
    r["irreducibility"] = {"status": "reducible", "method": "", "witness": "1 + t"}


def _d_K_factors(r):
    r["field_discriminant"]["factors"] = [["3", "7"]]


@pytest.mark.parametrize("plant, message", [
    (_element_sign, "element 4"),
    (_row_constant, "not closed under multiplication"),
    (_power_basis, "basis not 2-maximal"),
    (_d_K, r"d_K \* index\^2 != D"),
    (_index, "index is not the product"),
    (_v_D, r"v_5\(D\) is not 4"),
    (_composite_factor, "4 is not prime"),
    (_normalization, "normalization"),
    (_false_witness, "does not divide f"),
    (_d_K_factors, "d_K factors"),
])
def test_planted_defect_is_flagged(plant, message):
    report = _golden("a0_b135_basic.json")
    check_report(0, 135, report)
    plant(report)
    with pytest.raises(AssertionError, match=message):
        check_report(0, 135, report)


def test_maximality_entry_at_a_low_valuation_prime_is_flagged():
    """v_8539(D) = 1 for (4, 4): a maximality entry there is a check
    that cannot fail, and the checker refuses it."""
    report = _golden("a4_b4_full.json")
    check_report(4, 4, report)
    report["verification"]["checks"].append(
        {"name": "maximality_at_8539", "passed": True}
    )
    with pytest.raises(AssertionError, match="verification check names"):
        check_report(4, 4, report)


def test_pure_sextic_closed_form_is_consulted(monkeypatch):
    report = _golden("a0_b12_full.json")
    monkeypatch.setattr(reportcheck, "pure_sextic_discriminant",
                        lambda b: PureSexticReport(0, 0, (), 1))
    with pytest.raises(AssertionError, match="pure-sextic closed form"):
        check_report(0, 12, report)


def check_corpus(*workloads):
    """Run the checker on every corpus entry of `workloads` (default all)
    under the workload's flags with --verify none; print the time taken."""
    sys.path.insert(0, str(BENCH))
    import run as bench

    for workload in workloads or sorted(bench.WORKLOADS):
        start = time.perf_counter()
        entries = bench.load_pool(workload)["entries"]
        for entry in entries:
            argv = bench.field_argv(workload, entry)
            argv[argv.index("--verify") + 1] = "none"
            code, out, err = _run(argv)
            assert code in (0, 2) and err == "", (workload, entry, code, err)
            check_report(int(entry["a"]), int(entry["b"]), json.loads(out))
        print(f"{workload}: {len(entries)} reports pass, "
              f"{time.perf_counter() - start:.1f} s")
