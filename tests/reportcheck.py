"""A checker of CLI reports that shares no kernel with the package.

`check_report(a, b, report)` takes the input pair and the parsed
`--json` report of `sexticfield --a a --b b` (any `--verify` mode, no
`--prime`) and checks its mathematics from the report's strings alone,
with sympy and the `Poly`-based references of `tests/polyref.py`.
Nothing here calls `verify`, `basis` or `sextic`, `exact.is_prime` or
`poly._berkowitz`, so a verdict does not rest on the pipeline's own
verifier.  It asserts:

  * the normalization rebuilds (a, b) from primes;
  * D = 3125a^6 - 46656b^5 of the normalized pair, the listed factors
    times the unfactored cofactor give |D|, every listed factor is
    prime (`sympy.isprime`) with its exact exponent in D;
  * a reducible verdict carries a witness that divides f, and an
    irreducible one holds over Q (sympy's factorization);
  * at each prime entry v_D is the prime's exponent in D,
    2 * sum(k) + v_dK = v_D, and the denominators are p^k;
  * every element string parses back to its row and denominator;
  * the basis contains 1 and is closed under multiplication
    (`polyref.table_by_polys`), so it spans an order and every element
    is integral, and it is p-maximal (`polyref.is_p_maximal`) at every
    listed prime with v_D >= 2; at the others v_p(D) <= 1 already
    leaves no room for a larger order;
  * index is the product of the denominators, d_K * index^2 = D, and
    d_K's factors are the primes with v_dK > 0 when D is factored;
  * for a = 0 with D factored, d_K equals the closed form of
    `oracles.pure_sextic_discriminant`;
  * the verification block lists exactly its mode's checks: none under
    `none`, `basis_rows_integral` under `basic`, and under `full` also
    `transition_determinant`, `ring_closure` and one proof at each
    listed prime with v_D >= 2 (at the others there is nothing to
    decide): `dedekind_agreement_at_p` where the entry's denominators
    are all 1, `maximality_at_p` otherwise; all_passed is the
    conjunction of the listed verdicts.

A prime hidden in an unfactored cofactor is assumed squarefree by the
report, and nothing here can check it.  Any failed check raises
AssertionError naming what is wrong.
"""

import math
import re

import sympy

from oracles import pure_sextic_discriminant
from polyref import is_p_maximal, table_by_polys
from sexticfield.poly import Poly

_TERM = re.compile(r"(-?\d+)|(?:(-?\d+)\*)?t(?:\^(\d+))?")
_X = sympy.Symbol("x")


def parse_element(text):
    """(ascending coefficients, denominator) of an element string.

    The strings read "c + c*t + t^2" or "(c + ... + t^i)/den", with the
    terms in ascending powers and no term twice.
    """
    m = re.fullmatch(r"\((.*)\)/(\d+)", text)
    body, den = (m.group(1), int(m.group(2))) if m else (text, 1)
    coeffs = {}
    for term in body.split(" + "):
        m = _TERM.fullmatch(term)
        assert m, f"cannot parse term {term!r} of {text!r}"
        if m.group(1) is not None:
            j, c = 0, int(m.group(1))
        else:
            j, c = int(m.group(3) or 1), int(m.group(2) or 1)
        assert j not in coeffs and all(j > i for i in coeffs), text
        coeffs[j] = c
    top = max(coeffs)
    return tuple(coeffs.get(j, 0) for j in range(top + 1)), den


def _basis(block):
    """Rows and denominators of a basis block, checked against its elements."""
    rows = [tuple(int(c) for c in row) for row in block["rows"]]
    dens = [int(t) for t in block["denominators"]]
    assert len(rows) == len(dens) == len(block["elements"]) == 6
    for i, (row, den, text) in enumerate(zip(rows, dens, block["elements"])):
        assert len(row) == i, f"row {i} has {len(row)} coefficients"
        assert den >= 1
        assert parse_element(text) == (row + (1,), den), f"element {i}: {text!r}"
    assert dens[0] == 1, "the first basis element must be 1"
    return rows, dens


def _trinomial(a, b):
    return Poly((b, a, 0, 0, 0, 0, 1))


def _check_witness(f, text):
    """The witness of a reducible verdict is a proper monic factor of f."""
    coeffs, den = parse_element(text)
    assert den == 1 and coeffs[-1] == 1 and 1 <= len(coeffs) - 1 <= 5, text
    g = sum(c * _X ** j for j, c in enumerate(coeffs))
    assert sympy.rem(f, g, _X) == 0, f"{text} does not divide f"


def check_prime_entry(a, b, entry):
    """The local data of one prime entry of the normalized pair (a, b).

    Returns (p, v_D, rows, denominators) of the local basis.
    """
    D = 3125 * a ** 6 - 46656 * b ** 5
    p = int(entry["prime"])
    v_D, v_dK = int(entry["v_D"]), int(entry["v_dK"])
    k = [int(e) for e in entry["k"]]
    assert sympy.isprime(p), f"{p} is not prime"
    assert sympy.multiplicity(p, D) == v_D, f"v_{p}(D) is not {v_D}"
    assert 2 * sum(k) + v_dK == v_D, f"2*sum(k) + v_dK != v_D at {p}"
    rows, dens = _basis(entry["basis"])
    assert dens == [p ** e for e in k], f"denominators at {p} are not p^k"
    return p, v_D, rows, dens


def _ring_table(rows, dens, a, b):
    try:
        return table_by_polys(rows, dens, _trinomial(a, b))
    except ValueError as e:
        raise AssertionError(f"basis {dens}: {e}") from None


def check_local_basis(a, b, entry):
    """`check_prime_entry`, and the local basis spans a p-maximal order."""
    p, v_D, rows, dens = check_prime_entry(a, b, entry)
    table = _ring_table(rows, dens, a, b)
    if v_D >= 2:
        assert is_p_maximal(table, p), f"local basis not {p}-maximal"


def check_report(a, b, report):
    """Assert the mathematics of the --json report of (a, b); see above."""
    assert report["input"] == {"a": str(a), "b": str(b)}
    irr = report["irreducibility"]
    norm = report["normalization"]
    if norm is None:
        # b = 0 or a zero discriminant: reducible before normalization
        assert irr["status"] == "reducible"
        _check_witness(_X ** 6 + a * _X + b, irr["witness"])
        return
    na, nb = int(norm["a"]), int(norm["b"])
    scale = 1
    for p, e in norm["applied"]:
        assert sympy.isprime(int(p)) and int(e) > 0, (p, e)
        scale *= int(p) ** int(e)
    assert (na * scale ** 5, nb * scale ** 6) == (a, b), "normalization"
    D = 3125 * na ** 6 - 46656 * nb ** 5
    disc = report["discriminant"]
    assert int(disc["value"]) == D, "discriminant"
    f = _X ** 6 + na * _X + nb
    if irr["status"] == "reducible":
        _check_witness(f, irr["witness"])
        return
    assert irr["status"] == "irreducible", irr["status"]
    assert irr["witness"] is None
    _, parts = sympy.factor_list(f)
    assert len(parts) == 1 and parts[0][1] == 1, "f is reducible over Q"

    factors = [(int(p), int(e)) for p, e in disc["factors"]]
    cofactor = int(disc.get("unfactored_cofactor", "1"))
    assert cofactor >= 1
    assert math.prod(p ** e for p, e in factors) * cofactor == abs(D), \
        "factors times cofactor are not |D|"
    for p, e in factors:
        assert sympy.isprime(p), f"{p} is not prime"
        assert sympy.multiplicity(p, D) == e, f"v_{p}(D) is not {e}"
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})

    entries = report["primes"]
    assert [int(entry["prime"]) for entry in entries] == [p for p, _ in factors]
    local = [check_prime_entry(na, nb, entry) for entry in entries]

    rows, dens = _basis(report["integral_basis"])
    table = _ring_table(rows, dens, na, nb)
    for p, v_D, _, _ in local:
        if v_D >= 2:
            assert is_p_maximal(table, p), f"basis not {p}-maximal"

    index = int(report["index"])
    assert index == math.prod(dens), "index is not the product of denominators"
    field = report["field_discriminant"]
    d_K = int(field["d_K"])
    assert d_K * index ** 2 == D, "d_K * index^2 != D"
    if cofactor == 1:
        listed = [(int(p), int(e)) for p, e in field["factors"]]
        wanted = [(int(entry["prime"]), int(entry["v_dK"])) for entry in entries
                  if entry["v_dK"] != "0"]
        assert listed == wanted, "d_K factors"
        assert math.prod(p ** e for p, e in listed) == abs(d_K)
        if na == 0:
            assert pure_sextic_discriminant(nb).d_K == d_K, "pure-sextic closed form"
    else:
        assert field["factors"] is None
    _check_verification(report["verification"], local)


def _check_verification(ver, local):
    """The check names of ver's mode, in order, and its all_passed."""
    names = []
    if ver["mode"] != "none":
        names.append("basis_rows_integral")
    if ver["mode"] == "full":
        names += ["transition_determinant", "ring_closure"]
        for p, v_D, _, dens in local:
            if v_D >= 2:
                proof = "dedekind_agreement" if set(dens) == {1} else "maximality"
                names.append(f"{proof}_at_{p}")
    assert [c["name"] for c in ver["checks"]] == names, "verification check names"
    assert ver["all_passed"] == all(c["passed"] for c in ver["checks"]), \
        "all_passed is not the conjunction of the checks"
