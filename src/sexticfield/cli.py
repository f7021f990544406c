"""Command-line front end for the whole pipeline.

Parses (a, b), normalizes, settles irreducibility, classifies every
prime dividing the discriminant, glues the local bases, and reports the
index and field discriminant with optional verification and JSON
output.  Exit codes: 0 success (warnings allowed), 1 internal or
verification failure (never a traceback), 2 the polynomial is provably
reducible, 64 usage.  A pair whose discriminant has more decimal digits
than the interpreter's integer-to-string limit allows
(sys.get_int_max_str_digits(), 0 meaning no limit) cannot be reported
and exits 64 before any work is done; the limit is left as it is.

Under --verify full, maximality and the Dedekind check at a prime with
v_p(D) <= 1 follow from the index relation D = [O_K : Z[theta]]^2 * d_K,
which puts p prime to the index of Z[theta]; Cohen's p-radical test and
the Dedekind factorization run only at the primes with v_p(D) >= 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .basis import assemble, combine
from .exact import INF, InternalError, floor_root, is_prime, vp
from .newton import build_polygon
from .poly import Poly, X, is_integral
from .sextic import (
    irreducibility_check,
    normalize,
    ore_translations,
    p_integral_basis,
    pure_sextic_discriminant,
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
    p.add_argument("--factor-budget", type=int, default=2_000_000,
                   help="iteration budget for factoring the discriminant")
    p.add_argument("--pure", action="store_true",
                   help="when a = 0, cross-check via the closed-form rule")
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
        "basis": {
            "rows": [[_s(c) for c in row] for row in pb.rows],
            "denominators": [_s(pb.p ** k) for k in pb.k],
            "elements": [
                _render_element(row + (1,), pb.p ** k)
                for row, k in zip(pb.rows, pb.k)
            ],
        },
    }
    if explain:
        lines = [f"v_{pb.p}(D) = {pb.v_D}", f"v_{pb.p}(d_K) = {pb.v_dK}",
                 "k = (" + ", ".join(_s(k) for k in pb.k) + ")"]
        lines += [f"{name} = {value}"
                  for name, value in _params_dict(pb.params).items()]
        entry["explain"] = {
            "parameters": lines,
            "polygon": _polygon_dict(f, pb.p),
        }
        translations = ore_translations(pb.params)
        if translations:
            # the index claim for this case rests on the polygon taken
            # at the translated base, not at t itself
            t0 = Fraction(translations[0])
            shown = f"{t0}" if t0.denominator == 1 else f"({t0})"
            entry["explain"]["translated_polygon"] = _polygon_dict(
                f, pb.p, X - t0, base=f"t - {shown}"
            )
    return entry


def _basis_dict(basis):
    return {
        "rows": [[_s(c) for c in row] for row in basis.rows],
        "denominators": [_s(t) for t in basis.denominators],
        "elements": [
            _render_element(row + (1,), t)
            for row, t in zip(basis.rows, basis.denominators)
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


def _execute(args):
    a, b = args.a, args.b
    report = _skeleton(a, b)
    warnings = report["warnings"]

    if args.factor_budget < 0:
        raise UsageError("--factor-budget must be non-negative")
    if args.prime is not None and not is_prime(args.prime):
        raise UsageError(f"--prime must be a prime number, got {args.prime}")
    # Python releases before 3.10.7 have no such limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(3125 * a ** 6 - 46656 * b ** 5) >= 10 ** limit:
        raise UsageError(
            f"the discriminant of (a, b) has more than {limit} digits, "
            f"the interpreter's limit for printing an integer"
        )

    # degenerate inputs never reach the tables
    if b == 0:
        report["irreducibility"] = {
            "status": "reducible",
            "method": "x divides x^6 + a*x",
            "witness": _render_element((0, 1), 1),
        }
        report["discriminant"] = {"value": _s(3125 * a ** 6), "factors": None}
        return report, 2
    try:
        field = normalize(a, b, factor_budget=args.factor_budget)
    except ValueError:
        # b nonzero, so a zero discriminant means (a, b) = (6s^5, 5s^6)
        s = _sixth_family_root(a)
        report["irreducibility"] = {
            "status": "reducible",
            "method": "zero discriminant: repeated root -s of the "
                      "(6s^5, 5s^6) family",
            "witness": _render_element((s, 1), 1),
        }
        report["discriminant"] = {"value": "0", "factors": None}
        return report, 2

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
    if irr.status == "reducible":
        report["discriminant"] = {"value": _s(field.D), "factors": None}
        return report, 2
    f = field.f
    checks = []

    if args.prime is not None:
        p = args.prime
        pb = p_integral_basis(p, field)
        basis = combine([pb], field.D)
        report["discriminant"] = {"value": _s(field.D), "factors": None}
        report["primes"] = [_prime_entry(pb, f, args.explain)]
        report["integral_basis"] = _basis_dict(basis)
        report["index"] = _s(basis.index)
        warnings.append(
            f"restricted to p = {p}: index is the local contribution and "
            f"the field discriminant is omitted"
        )
        d_K = None
        per_prime = (pb,)
    else:
        assembly = assemble(field, factor_budget=args.factor_budget)
        pf = assembly.discriminant_factors
        basis = assembly.basis
        d_K = basis.d_K
        warnings.extend(assembly.warnings)
        disc = {"value": _s(field.D), "factors": _factors_list(pf.factors)}
        if not pf.complete:
            disc["unfactored_cofactor"] = _s(abs(pf.cofactor))
        report["discriminant"] = disc
        report["primes"] = [
            _prime_entry(pb, f, args.explain) for pb in assembly.per_prime
        ]
        report["integral_basis"] = _basis_dict(basis)
        report["index"] = _s(basis.index)
        dk_entry = {"d_K": _s(d_K)}
        if pf.complete:
            dk_factors = []
            for p, e in pf.factors:
                rem = e - 2 * vp(basis.index, p)
                if rem:
                    dk_factors.append((p, rem))
            dk_entry["factors"] = _factors_list(dk_factors)
        else:
            dk_entry["factors"] = None
        report["field_discriminant"] = dk_entry
        per_prime = assembly.per_prime

    if args.pure:
        if field.a != 0:
            warnings.append("--pure ignored: a is nonzero")
        elif d_K is None:
            warnings.append("--pure ignored: field discriminant not computed")
        else:
            try:
                pure = pure_sextic_discriminant(
                    field.b, factor_budget=args.factor_budget
                )
            except ValueError as e:
                warnings.append(f"--pure ignored: {e}")
            else:
                checks.append({
                    "name": "pure_sextic_cross_check",
                    "passed": pure.d_K == d_K,
                })

    if args.verify != "none":
        ok = all(
            is_integral(*basis.element(i), f) for i in range(6)
        )
        checks.append({"name": "basis_rows_integral", "passed": ok})
        if d_K is not None:
            checks.append({
                "name": "discriminant_index_relation",
                "passed": d_K * basis.index ** 2 == field.D,
            })
        else:
            checks.append({
                "name": "index_square_divides_discriminant",
                "passed": field.D % basis.index ** 2 == 0,
            })
    if args.verify == "full":
        checks.append({
            "name": "transition_determinant",
            "passed": lattice_index(basis) == basis.index,
        })
        order = OrderPresentation.from_triangular(
            basis.rows, basis.denominators, f
        )
        for pb in per_prime:
            p = pb.p
            if vp(field.D, p) <= 1:
                # D = [O_K : Z[theta]]^2 * d_K, so p is prime to the index
                # of Z[theta]: every order containing Z[theta] is
                # p-maximal and Dedekind's criterion holds at p
                maximal = basis.index % p != 0
                dedekind = True
            else:
                maximal = maximality_test(order, p)
                dedekind = dedekind_maximal_at_p(f, p)
            checks.append({"name": f"maximality_at_{p}", "passed": maximal})
            checks.append({
                "name": f"dedekind_agreement_at_{p}",
                "passed": dedekind == (pb.index_valuation == 0),
            })

    all_passed = all(c["passed"] for c in checks)
    report["verification"] = {
        "mode": args.verify,
        "checks": checks,
        "all_passed": all_passed,
    }
    return report, 0 if all_passed else 1


def _sixth_family_root(a) -> int:
    # D = 0 with b != 0 forces a = 6s^5 != 0
    mag = floor_root(abs(a) // 6, 5)
    return mag if a > 0 else -mag


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
        if "explain" not in entry:
            for name, value in entry["params"].items():
                lines.append(f"    {name} = {value}")
        if "explain" in entry:
            exp = entry["explain"]
            for text in exp["parameters"]:
                lines.append(f"    | {text}")

            def _polygon_lines(poly, label):
                verts = " ".join(f"({x},{y})" for x, y in poly["vertices"])
                lines.append(f"    {label} vertices: {verts}")
                for e in poly["edges"]:
                    lines.append(
                        f"    edge ({e['from'][0]},{e['from'][1]}) -> "
                        f"({e['to'][0]},{e['to'][1]}), slope {e['slope']}"
                    )
                lines.append(
                    f"    lattice points under the hull: "
                    f"{poly['index_contribution']}"
                )

            _polygon_lines(exp["polygon"], "polygon")
            if "translated_polygon" in exp:
                tp = exp["translated_polygon"]
                _polygon_lines(tp, f"polygon in {tp['base']}")

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
                lines.append(f"verification ({ver['mode']}): {n} checks passed")
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
        out = (json.dumps(report, indent=2) + "\n" if args.json
               else _render_text(report))
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
