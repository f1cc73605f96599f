"""Command-line surface: identification, enumeration, counting, zeta
coefficients, verification, and table reproduction."""

from __future__ import annotations

import argparse
import json
import sys

from .eisenstein import ideal_count, ideal_count_oracle, series_coeff
from .enumeration import classified_polys_for_a, enumerate_field
from .fields import FieldClass, field_invariants, is_isomorphic
from .poly import (ParseError, TraceOnePoly, discriminant, is_cyclic,
                   is_irreducible, parse_poly)
from .verify import (norm_proportionality_check, reproduce_tables,
                     verify_theorem)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3


class InvalidInput(Exception):
    pass


def _cyclic_poly(text: str) -> TraceOnePoly:
    f = parse_poly(text)
    if not is_irreducible(f):
        raise InvalidInput(f"{f} is reducible")
    if not is_cyclic(f):
        raise InvalidInput(f"{f} is irreducible but not cyclic "
                           f"(discriminant {discriminant(f)} is not a square)")
    return f


def _field_of(text: str) -> FieldClass:
    return field_invariants(_cyclic_poly(text))


def cmd_identify(args) -> int:
    f = _cyclic_poly(args.poly)
    k = field_invariants(f)
    disc = discriminant(f)
    index_sq = disc // k.discriminant
    if args.format == "json":
        print(json.dumps({
            "polynomial": str(f), "a": f.a, "b": f.b,
            "irreducible": True, "cyclic": True,
            "discriminant": disc, "index_sq": index_sq,
            "conductor": k.conductor, "field_discriminant": k.discriminant,
            "tame": True, "subgroup": sorted(k.subgroup),
        }, indent=2))
        return EXIT_OK
    print(f"polynomial:          {f}")
    print("irreducible:         true")
    print("cyclic:              true")
    print(f"disc(f):             {disc}")
    print(f"index^2:             {index_sq}")
    print(f"conductor:           {k.conductor}")
    print(f"field discriminant:  {k.discriminant}")
    print("tame:                true")
    print(f"splitting subgroup:  {sorted(k.subgroup)} (mod {k.conductor})")
    return EXIT_OK


def _enumerate_csv_lines(k: FieldClass, rows) -> list[str]:
    lines = ["N,height_sq,a,b,polynomial"]
    for row in rows:
        if row.polys:
            for f in row.polys:
                lines.append(f"{row.n},{row.height_sq},{f.a},{f.b},{f}")
        else:
            lines.append(f"{row.n},,,,")
    return lines


def cmd_enumerate(args) -> int:
    k = _field_of(args.field)
    rows = enumerate_field(k, args.max_norm)
    if args.nonzero_only:
        rows = [r for r in rows if r.count]
    if args.format == "csv":
        print("\n".join(_enumerate_csv_lines(k, rows)))
    elif args.format == "json":
        print(json.dumps([{
            "N": r.n, "height_sq": r.height_sq, "a": r.a,
            "count": r.count, "predicted": r.predicted,
            "polys": [str(f) for f in r.polys],
        } for r in rows], indent=2))
    else:
        for r in rows:
            polys = ", ".join(str(f) for f in sorted(r.polys, key=lambda f: -f.b))
            print(f"{k.conductor} x {r.n}: {polys}".rstrip())
    return EXIT_OK


def cmd_count(args) -> int:
    if args.a > 0:
        raise InvalidInput(f"a must be <= 0, got {args.a}")
    k = _field_of(args.field)
    c = k.conductor
    h2 = 1 - 3 * args.a
    count = sum(1 for _f, kk in classified_polys_for_a(args.a) if kk == k)
    if h2 % c != 0:
        print(f"count = {count}  (predicted 0: {c} does not divide {h2})")
    else:
        print(f"count = {count}  (predicted d_{h2 // c} = {ideal_count(h2 // c)})")
    return EXIT_OK


def cmd_zeta_coeffs(args) -> int:
    d = ideal_count_oracle if args.oracle else ideal_count
    triples = [(n, d(n), series_coeff(n)) for n in range(1, args.max + 1)]
    if args.format == "csv":
        print("N,d_N,series_coeff")
        for n, dn, sn in triples:
            print(f"{n},{dn},{sn}")
    elif args.format == "json":
        print(json.dumps([{"N": n, "d_N": dn, "series_coeff": sn}
                          for n, dn, sn in triples], indent=2))
    else:
        for n, dn, _sn in triples:
            if n % 3 == 1 and dn > 0:
                print(f"d_{n} = {dn}")
    return EXIT_OK


def cmd_verify(args) -> int:
    k = _field_of(args.field)
    report = verify_theorem(k, args.max_norm)
    if args.check_norms:
        for row in enumerate_field(k, args.max_norm):
            for f in row.polys:
                for c in norm_proportionality_check(f).checks:
                    report.checks.append(c)
    print(json.dumps(report.to_json(), indent=2) if args.format == "json"
          else report.to_text())
    return EXIT_OK if report.overall else EXIT_FAIL


def cmd_paper_tables(args) -> int:
    report = reproduce_tables()
    print(json.dumps(report.to_json(), indent=2) if args.format == "json"
          else report.to_text())
    return EXIT_OK if report.overall else EXIT_FAIL


def cmd_isomorphic(args) -> int:
    same = is_isomorphic(_cyclic_poly(args.poly1), _cyclic_poly(args.poly2))
    print("true" if same else "false")
    return EXIT_OK if same else EXIT_FAIL


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubictrace",
        description="Cyclic trace-one cubics: enumeration by toric height, "
                    "field classification, and ideal-count verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")

    p = sub.add_parser("identify", help="classify the root field of a cubic")
    p.add_argument("--poly", required=True, metavar="POLY")
    add_format(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("enumerate", help="census of one field by height")
    p.add_argument("--field", required=True, metavar="POLY",
                   help="a defining polynomial of the field")
    p.add_argument("--max-norm", type=_positive, required=True)
    p.add_argument("--nonzero-only", action="store_true",
                   help="omit rows with no polynomials")
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="polynomials in a field at fixed a")
    p.add_argument("--field", required=True, metavar="POLY")
    p.add_argument("-a", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("zeta-coeffs", help="ideal counts of Q(sqrt(-3))")
    p.add_argument("--max", type=_positive, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use the divisor-sum algorithm")
    add_format(p)
    p.set_defaults(func=cmd_zeta_coeffs)

    p = sub.add_parser("verify", help="check counts against zeta coefficients")
    p.add_argument("--field", required=True, metavar="POLY")
    p.add_argument("--max-norm", type=_positive, required=True)
    p.add_argument("--check-norms", action="store_true",
                   help="also run the quotient-norm proportionality check")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper-tables", help="reproduce the published tables")
    add_format(p)
    p.set_defaults(func=cmd_paper_tables)

    p = sub.add_parser("isomorphic", help="whether two cubics cut out the same field")
    p.add_argument("poly1")
    p.add_argument("poly2")
    p.set_defaults(func=cmd_isomorphic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidInput, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
