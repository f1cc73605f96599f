"""Command-line surface: identification, enumeration, counting, zeta
coefficients, verification, and table reproduction."""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from itertools import compress, islice

from .eisenstein import ideal_counts_upto
from .enumeration import _field_bs, _rows, enumerate_field
from .fields import FieldClass, field_invariants
from .poly import TraceOnePoly, discriminant, is_irreducible, parse_poly
from .verify import (_corollary_check, _identity_report, _table_line,
                     norm_proportionality_check, reproduce_tables)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4  # an internal inconsistency or an exhausted limit
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout early


def _field_of(text: str) -> tuple[TraceOnePoly, FieldClass]:
    """The cubic text names and its field.  field_invariants tests cyclicity
    once; only a refusal tests irreducibility again, to word the error."""
    f = parse_poly(text)
    try:
        return f, field_invariants(f)
    except ValueError:  # f is not cyclic
        why = ("reducible" if not is_irreducible(f) else
               "irreducible but not cyclic "
               f"(discriminant {discriminant(f)} is not a square)")
        raise ValueError(f"{f} is {why}") from None


_LOW = tuple(map(str, range(1000)))  # str(x) for x < 1000
_PADDED = tuple("%03d" % r for r in range(1000))  # x % 1000 in three digits


def _write_kernel(mask: bytes, sep: str) -> None:
    """Write the x with mask[x] set, ascending with sep between them, to
    stdout one block of 1000 residues at a time, so memory stays bounded by
    a block, not by the output.  In block t >= 1, x is str(t) then x % 1000
    in three digits, so a block joins prebuilt strings, with sep + str(t)
    as the joiner, and no int is made for a residue, printed or not."""
    write, skip = sys.stdout.write, len(sep)  # no sep before the first x
    lead, digits = sep, _LOW
    for t in range(-(-len(mask) // 1000)):
        if block := lead.join(compress(digits, mask[1000 * t:1000 * t + 1000])):
            write(lead[skip:] + block)
            skip = 0
        lead, digits = f"{sep}{t + 1}", _PADDED


# identify's (head, separator, tail) around the residues of ker chi: json in
# json.dumps(indent=2)'s layout (str(f) needs no escape), text as list's repr
_IDENTIFY = {
    "json": ('{{\n  "polynomial": "{f}",\n  "a": {f.a},\n  "b": {f.b},\n'
             '  "irreducible": true,\n  "cyclic": true,\n'
             '  "discriminant": {disc},\n  "index_sq": {index_sq},\n'
             '  "conductor": {k.conductor},\n  "field_discriminant": '
             '{k.discriminant},\n  "tame": true,\n  "subgroup": [\n    ',
             ",\n    ", "\n  ]\n}}\n"),
    "text": ("polynomial:          {f}\n"
             "irreducible:         true\n"
             "cyclic:              true\n"
             "disc(f):             {disc}\n"
             "index^2:             {index_sq}\n"
             "conductor:           {k.conductor}\n"
             "field discriminant:  {k.discriminant}\n"
             "tame:                true\n"
             "splitting subgroup:  [", ", ", "] (mod {k.conductor})\n"),
}


def cmd_identify(args) -> int:
    f, k = _field_of(args.poly)
    mask = k._kernel_mask()  # ker chi; may refuse, so before any output
    disc = discriminant(f)
    fields = {"f": f, "k": k, "disc": disc, "index_sq": disc // k.discriminant}
    head, sep, tail = _IDENTIFY[args.format]
    sys.stdout.write(head.format_map(fields))
    _write_kernel(mask, sep)
    sys.stdout.write(tail.format_map(fields))
    return EXIT_OK


def _write_json(obj) -> None:
    """Write json.dumps(obj, indent=2) and a newline, joining the encoder's
    pieces (none is empty) 4096 at a time, so the text is never held whole."""
    pieces = json.JSONEncoder(indent=2).iterencode(obj)
    while block := "".join(islice(pieces, 4096)):
        sys.stdout.write(block)
    sys.stdout.write("\n")


def _enumerate_csv_lines(rows) -> list[str]:
    lines = ["N,height_sq,a,b,polynomial"]
    for row in rows:
        if row.polys:
            for f in row.polys:
                lines.append(f"{row.n},{row.height_sq},{f.a},{f.b},{f}")
        else:
            lines.append(f"{row.n},,,,")
    return lines


def cmd_enumerate(args) -> int:
    _f, k = _field_of(args.field)
    rows = enumerate_field(k, args.max_norm)
    if args.nonzero_only:
        rows = [r for r in rows if r.count]
    if args.format == "csv":
        print("\n".join(_enumerate_csv_lines(rows)))
    elif args.format == "json":
        _write_json([{
            "N": r.n, "height_sq": r.height_sq, "a": r.a,
            "count": r.count, "predicted": r.predicted,
            "polys": [str(f) for f in r.polys],
        } for r in rows])
    else:
        for r in rows:
            print(_table_line(k.conductor, r.n, r.polys[::-1]))  # b descending
    return EXIT_OK


def cmd_count(args) -> int:
    if args.a > 0:
        raise ValueError(f"a must be <= 0, got {args.a}")
    _f, k = _field_of(args.field)
    predicted, count, note = _corollary_check(k, args.a)
    if note:
        print(f"count = {count}  (predicted {predicted}: {note})")
    else:
        n = (1 - 3 * args.a) // k.conductor
        print(f"count = {count}  (predicted d_{n} = {predicted})")
    return EXIT_OK if count == predicted else EXIT_FAIL


# rows per write: a multiple of 3, so every block starts at N = 1 (mod 3)
_ZETA_BLOCK = 12288
# a csv row, or a json row in json.dumps(indent=2)'s layout after its ','
_ZETA_ROW = {"csv": "%d,%d,%d\n",
             "json": ',\n  {\n    "N": %d,\n    "d_N": %d,\n    '
                     '"series_coeff": %d\n  }'}


def cmd_zeta_coeffs(args) -> int:
    """One block of rows per write, formatted from one slice of the sieve's
    table; only the block is held."""
    table = ideal_counts_upto(args.max)  # sieve once, or refuse before output
    write, fmt = sys.stdout.write, args.format
    if fmt == "csv":
        write("N,d_N,series_coeff\n")
    for lo in range(1, args.max + 1, _ZETA_BLOCK):
        ns = range(lo, min(lo + _ZETA_BLOCK, args.max + 1))
        dn = table[lo:ns.stop]
        if fmt == "text":  # the nonzero d_N at N = 1 (mod 3)
            d1 = dn[::3]
            rows = compress(zip(ns[::3], d1), d1)
            write("".join(map("d_%d = %d\n".__mod__, rows)))
            continue
        sn = bytearray(dn)  # series_coeff(N): d_N, but 0 at N = 0 (mod 3)
        sn[2::3] = bytes(len(sn) // 3)
        block = "".join(map(_ZETA_ROW[fmt].__mod__, zip(ns, dn, sn)))
        write("[" + block[1:] if fmt == "json" and lo == 1 else block)
    if fmt == "json":
        write("\n]\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    _f, k = _field_of(args.field)
    bs_at = _field_bs(k, args.max_norm)  # one scan for counts and cubics
    report = _identity_report(k, args.max_norm, bs_at)
    if args.check_norms:
        for row in _rows(k, args.max_norm, bs_at):
            for f in row.polys:
                report.checks += norm_proportionality_check(f).checks
    del bs_at  # not held while the report prints
    return _print_report(report, args.format)


def cmd_paper_tables(args) -> int:
    return _print_report(reproduce_tables(), args.format)


def _print_report(report, fmt: str) -> int:
    if fmt == "json":
        _write_json(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK if report.overall else EXIT_FAIL


def cmd_isomorphic(args) -> int:
    same = _field_of(args.poly1)[1] == _field_of(args.poly2)[1]
    print("true" if same else "false")
    return EXIT_OK if same else EXIT_FAIL


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


_NEGATIVE_PAIR = re.compile(r"-\d+,")


class _Parser(argparse.ArgumentParser):
    """argparse takes a token that starts with '-' for an option unless it
    looks like a negative number.  A token that starts like an 'a,b' pair
    with a < 0 (say -2,1) is a polynomial, so it is read as a value, for
    --poly/--field and as a positional alike; parse_poly judges the rest."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_PAIR.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


@functools.cache  # one parser for every in-process main call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubictrace",
        description="Cyclic trace-one cubics: enumeration by toric height, "
                    "field classification, and ideal-count verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, *extra):
        p.add_argument("--format", choices=("text", *extra, "json"),
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
    add_format(p, "csv")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="polynomials in a field at fixed a")
    p.add_argument("--field", required=True, metavar="POLY")
    p.add_argument("-a", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("zeta-coeffs", help="ideal counts of Q(sqrt(-3))")
    p.add_argument("--max", type=_positive, required=True)
    add_format(p, "csv")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except ValueError as exc:  # ParseError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (RuntimeError, ArithmeticError) as exc:
        # InconsistencyError, which a failed rho factorization raises too,
        # is a RuntimeError; SizeLimitError, an exhausted limit, is an
        # ArithmeticError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail as well.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
