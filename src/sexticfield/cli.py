"""Command-line front end for the whole pipeline.

Parses (a, b), normalizes, settles irreducibility, classifies every
prime dividing the discriminant, glues the local bases, and reports the
index and field discriminant with optional verification and JSON
output.  Each report section is filled in one place.  D is computed
once, from the input; b = 0 and D = 0 (the (6s^5, 5s^6) family) are
reducible before normalization and leave through the same exit as a
reducible verdict of the irreducibility check.  Each prime's entry
states its case, v_p(D), v_p(d_K), k and parameters in every mode;
--explain adds only the Newton polygon, and the translated one where
the case's index claim rests on it.

Exit codes: 0 success (warnings allowed), 1 internal or verification
failure (never a traceback), 2 the polynomial is provably reducible,
64 usage.  A pair whose discriminant has more decimal digits than the
interpreter's integer-to-string limit allows
(sys.get_int_max_str_digits(), 0 meaning no limit) cannot be reported
and exits 64 before any work is done; the limit is left as it is.

The verification block lists only checks that can fail: basic tests
that every basis row is integral; full adds the transition determinant,
ring closure (a lattice that is not a ring fails it and claims no
maximality at each prime with k > 0) and, at each prime with
v_p(D) >= 2, one p-maximality proof chosen by the table's k: the
Dedekind criterion where k = 0, since the order is Z[theta] at p, and
Cohen's p-radical test where k > 0.  At a prime with v_p(D) <= 1 the
relation D = [O_K : Z[theta]]^2 * d_K leaves nothing to decide, so none
is listed.

--json output comes from a small writer for the report's value types
(dicts, lists, str, None, bool) that gives json.dumps(report, indent=2)
byte for byte without the stdlib's pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .basis import assemble, combine
from .exact import FACTOR_BUDGET, INF, InternalError, floor_root, is_prime
from .newton import build_polygon
from .poly import Poly, X, is_integral
from .sextic import (
    IrreducibilityReport,
    irreducibility_check,
    normalize,
    ore_translations,
    p_integral_basis,
)
from .verify import (
    OrderPresentation,
    dedekind_maximal_at_p,
    lattice_index,
    maximality_test,
)

__all__ = ["build_parser", "run", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sexticfield",
        description=(
            "Integral basis, index, and field discriminant of the sextic "
            "field defined by x^6 + a*x + b."
        ),
    )
    p.add_argument("--a", required=True, type=int, help="linear coefficient")
    p.add_argument("--b", required=True, type=int, help="constant coefficient")
    p.add_argument("--prime", type=int, default=None,
                   help="restrict the report to one prime")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--explain", action="store_true",
                   help="include Newton polygons and parameter derivations")
    p.add_argument("--verify", choices=("none", "basic", "full"),
                   default="basic", help="how much to re-check (default basic)")
    p.add_argument("--factor-budget", type=int, default=FACTOR_BUDGET,
                   help="iteration budget for factoring the discriminant "
                        "(default %(default)s)")
    return p


# parse_args leaves the parser as it is, so one instance serves every run
_PARSER = build_parser()


# ---------------------------------------------------------------------------
# rendering helpers


def _s(n) -> str:
    return str(int(n))


def _render_element(coeffs, den) -> str:
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            power = "t" if j == 1 else f"t^{j}"
            terms.append(power if c == 1 else f"{c}*{power}")
    body = " + ".join(terms) if terms else "0"
    return body if den == 1 else f"({body})/{den}"


def _render_json(obj, indent="") -> str:
    """json.dumps(obj, indent=2) for the report's value types.

    Those are dicts with str keys, lists, str, None and bool; any other
    type raises TypeError.  Strings go through the encoder json.dumps
    itself uses, so the text is the same byte for byte.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = [f"{inner}{_quote(k)}: {_render_json(v, inner)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if kind is list:
        if not obj:
            return "[]"
        items = [inner + _render_json(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    raise TypeError(f"cannot render {kind.__name__} as report JSON")


def _factors_list(factors):
    return [[_s(p), _s(e)] for p, e in factors]


def _factored_str(value, factors, cofactor=1) -> str:
    if not factors and abs(cofactor) == 1:
        return _s(value)
    parts = [f"{p}^{e}" if e > 1 else f"{p}" for p, e in factors]
    if abs(cofactor) != 1:
        parts.append(str(abs(cofactor)))
    body = " * ".join(parts)
    return f"-({body})" if value < 0 else body


# ---------------------------------------------------------------------------
# report assembly


def _polygon_dict(f: Poly, p: int, phi=None, base: str = "t"):
    poly = build_polygon(f, phi if phi is not None else X, p)
    pts = [[_s(x), "inf" if y is INF else _s(y)] for x, y in poly.points]
    verts = [[_s(x), _s(y)] for x, y in poly.vertices]
    edges = [
        {
            "from": [_s(e.x0), _s(e.y0)],
            "to": [_s(e.x1), _s(e.y1)],
            "slope": str(e.slope),
        }
        for e in poly.edges
    ]
    return {
        "base": base,
        "points": pts,
        "vertices": verts,
        "edges": edges,
        "index_contribution": _s(poly.index_contribution()),
    }


def _params_dict(params):
    return {name: str(value) for name, value in params.items()}


def _prime_entry(pb, f: Poly, explain: bool):
    entry = {
        "prime": _s(pb.p),
        "case": pb.case,
        "v_D": _s(pb.v_D),
        "v_dK": _s(pb.v_dK),
        "k": [_s(k) for k in pb.k],
        "params": _params_dict(pb.params),
        "basis": _basis_dict(pb.rows, [pb.p ** k for k in pb.k]),
    }
    if explain:
        entry["explain"] = {"polygon": _polygon_dict(f, pb.p)}
        translations = ore_translations(pb.params)
        if translations:
            # the index claim for this case rests on the polygon taken
            # at the translated base, not at t itself
            t0 = Fraction(translations[0])
            shown = f"{t0}" if t0.denominator == 1 and t0 >= 0 else f"({t0})"
            entry["explain"]["translated_polygon"] = _polygon_dict(
                f, pb.p, X - t0, base=f"t - {shown}"
            )
    return entry


def _basis_dict(rows, denominators):
    return {
        "rows": [[_s(c) for c in row] for row in rows],
        "denominators": [_s(t) for t in denominators],
        "elements": [
            _render_element(row + (1,), t) for row, t in zip(rows, denominators)
        ],
    }


def _skeleton(a, b):
    return {
        "input": {"a": _s(a), "b": _s(b)},
        "normalization": None,
        "irreducibility": None,
        "discriminant": None,
        "primes": None,
        "integral_basis": None,
        "index": None,
        "field_discriminant": None,
        "verification": None,
        "warnings": [],
    }


@lru_cache(maxsize=1)
def _power_of_ten(limit):
    return 10 ** limit


def _check_printable(D):
    """Raise UsageError when |D| has more digits than str() may print."""
    # Python releases before 3.10.7 have no such limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(D) >= _power_of_ten(limit):
        raise UsageError(
            f"the discriminant of (a, b) has more than {limit} digits, "
            f"the interpreter's limit for printing an integer"
        )


def _execute(args):
    a, b = args.a, args.b
    report = _skeleton(a, b)
    warnings = report["warnings"]

    if args.factor_budget < 0:
        raise UsageError("--factor-budget must be non-negative")
    if args.prime is not None and not is_prime(args.prime):
        raise UsageError(f"--prime must be a prime number, got {args.prime}")
    D = 3125 * a ** 6 - 46656 * b ** 5
    _check_printable(D)

    # degenerate pairs never reach normalize or the tables
    if b == 0:
        irr = IrreducibilityReport("reducible", "x divides x^6 + a*x", X)
    elif D == 0:
        # b != 0, so (a, b) = (6s^5, 5s^6) with s != 0
        s = floor_root(abs(a) // 6, 5)
        irr = IrreducibilityReport(
            "reducible",
            "zero discriminant: repeated root -s of the (6s^5, 5s^6) family",
            X + (s if a > 0 else -s),
        )
    else:
        field = normalize(a, b, factor_budget=args.factor_budget)
        D = field.D
        report["normalization"] = {
            "applied": [[_s(p), _s(e)] for p, e in field.normalization],
            "a": _s(field.a),
            "b": _s(field.b),
        }
        if field.unsplit_content != 1:
            warnings.append(
                f"gcd(a, b) keeps an unfactored cofactor of "
                f"{field.unsplit_content.bit_length()} bits; sixth-power content "
                f"in it is assumed absent"
            )
        irr = irreducibility_check(field)
    report["irreducibility"] = {
        "status": irr.status,
        "method": irr.method,
        "witness": _render_element(irr.witness.coeffs, 1)
        if irr.witness is not None else None,
    }
    disc = report["discriminant"] = {"value": _s(D), "factors": None}
    if irr.status == "reducible":
        return report, 2

    if args.prime is not None:
        per_prime = (p_integral_basis(args.prime, field),)
        basis = combine(per_prime, D)
        warnings.append(
            f"restricted to p = {args.prime}: index is the local contribution "
            f"and the field discriminant is omitted"
        )
    else:
        assembly = assemble(field, factor_budget=args.factor_budget)
        pf = assembly.discriminant_factors
        per_prime, basis = assembly.per_prime, assembly.basis
        warnings.extend(assembly.warnings)
        disc["factors"] = _factors_list(pf.factors)
        if not pf.complete:
            disc["unfactored_cofactor"] = _s(abs(pf.cofactor))
        # per_prime follows pf.factors, so these are d_K's primes in order
        report["field_discriminant"] = {
            "d_K": _s(basis.d_K),
            "factors": _factors_list((pb.p, pb.v_dK) for pb in per_prime if pb.v_dK)
            if pf.complete else None,
        }
    f = field.f
    report["primes"] = [_prime_entry(pb, f, args.explain) for pb in per_prime]
    report["integral_basis"] = _basis_dict(basis.rows, basis.denominators)
    report["index"] = _s(basis.index)

    checks = []
    if args.verify != "none":
        ok = all(
            is_integral(*basis.element(i), f) for i in range(6)
        )
        checks.append({"name": "basis_rows_integral", "passed": ok})
    if args.verify == "full":
        checks.append({
            "name": "transition_determinant",
            "passed": lattice_index(basis) == basis.index,
        })
        try:
            order = OrderPresentation.from_triangular(
                basis.rows, basis.denominators, f
            )
        except ValueError:
            order = None
        checks.append({"name": "ring_closure", "passed": order is not None})
        # D = [O_K : Z[theta]]^2 * d_K makes Z[theta] p-maximal where
        # v_p(D) <= 1, and combine refuses an index whose square does not
        # divide D: at such a prime there is nothing left to decide.
        # Elsewhere one proof per prime: where k = 0 the order is Z[theta]
        # at p and Dedekind decides; where k > 0 Cohen's test does
        for pb in per_prime:
            if pb.v_D <= 1:
                continue
            p = pb.p
            if pb.index_valuation == 0:
                name, passed = "dedekind_agreement", dedekind_maximal_at_p(f, p)
            else:
                name = "maximality"
                passed = order is not None and maximality_test(order, p)
            checks.append({"name": f"{name}_at_{p}", "passed": passed})

    all_passed = all(c["passed"] for c in checks)
    report["verification"] = {
        "mode": args.verify,
        "checks": checks,
        "all_passed": all_passed,
    }
    return report, 0 if all_passed else 1


# ---------------------------------------------------------------------------
# text rendering


def _render_text(report) -> str:
    lines = []
    inp = report["input"]
    lines.append(f"f = x^6 + a*x + b, a = {inp['a']}, b = {inp['b']}")

    norm = report["normalization"]
    if norm is not None:
        if norm["applied"]:
            steps = ", ".join(f"{p}^5 | a and {p}^6 | b" for p, _ in norm["applied"])
            lines.append(
                f"normalized to a = {norm['a']}, b = {norm['b']} ({steps})"
            )
        else:
            lines.append("already normalized")

    irr = report["irreducibility"]
    if irr is not None:
        line = f"irreducibility: {irr['status']} ({irr['method']})"
        if irr["witness"]:
            line += f", witness {irr['witness']}"
        lines.append(line)

    disc = report["discriminant"]
    if disc is not None:
        line = f"D = {disc['value']}"
        if disc["factors"]:
            factors = [(int(p), int(e)) for p, e in disc["factors"]]
            cof = int(disc.get("unfactored_cofactor", "1"))
            line += " = " + _factored_str(int(disc["value"]), factors, cof)
        lines.append(line)

    for entry in report["primes"] or ():
        lines.append(
            f"p = {entry['prime']}: case {entry['case']}, "
            f"v(D) = {entry['v_D']}, v(d_K) = {entry['v_dK']}, "
            f"k = ({', '.join(entry['k'])})"
        )
        for name, value in entry["params"].items():
            lines.append(f"    {name} = {value}")
        # --explain adds the polygon at t, and at a translated base where
        # the case's index claim rests on that one
        for poly in entry.get("explain", {}).values():
            base = poly["base"]
            label = "polygon" if base == "t" else f"polygon in {base}"
            verts = " ".join(f"({x},{y})" for x, y in poly["vertices"])
            lines.append(f"    {label} vertices: {verts}")
            for e in poly["edges"]:
                lines.append(
                    f"    edge ({e['from'][0]},{e['from'][1]}) -> "
                    f"({e['to'][0]},{e['to'][1]}), slope {e['slope']}"
                )
            lines.append(
                f"    lattice points under the hull: {poly['index_contribution']}"
            )

    basis = report["integral_basis"]
    if basis is not None:
        lines.append("integral basis:")
        for el in basis["elements"]:
            lines.append(f"    {el}")
    if report["index"] is not None:
        lines.append(f"index = {report['index']}")
    dk = report["field_discriminant"]
    if dk is not None:
        line = f"d_K = {dk['d_K']}"
        if dk["factors"]:
            factors = [(int(p), int(e)) for p, e in dk["factors"]]
            line += " = " + _factored_str(int(dk["d_K"]), factors)
        lines.append(line)

    ver = report["verification"]
    if ver is not None:
        if ver["mode"] == "none":
            lines.append("verification: skipped")
        else:
            n = len(ver["checks"])
            if ver["all_passed"]:
                noun = "check" if n == 1 else "checks"
                lines.append(f"verification ({ver['mode']}): {n} {noun} passed")
            else:
                failed = [c["name"] for c in ver["checks"] if not c["passed"]]
                lines.append(
                    f"verification ({ver['mode']}): FAILED: {', '.join(failed)}"
                )

    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry points


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        report, code = _execute(args)
        out = _render_json(report) + "\n" if args.json else _render_text(report)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # the outermost boundary: every outcome maps to a documented exit
        # code, so an unforeseen failure is reported on one line, not as
        # a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
