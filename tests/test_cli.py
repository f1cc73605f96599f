import csv
import hashlib
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import compress

import inputs
import pytest
from hypothesis import given, strategies as st

from cubictrace import arith, cli, eisenstein, enumeration, fields, verify
from cubictrace.arith import FACTOR_LIMIT
from cubictrace.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, EXIT_USAGE, main
from cubictrace.eisenstein import ORACLE_LIMIT, ideal_count, series_coeff
from cubictrace.enumeration import enumerate_field
from cubictrace.fields import SUBGROUP_MAX, FieldClass, field_invariants
from cubictrace.arith import InconsistencyError
from cubictrace.poly import is_irreducible, parse_poly
from conftest import child_env
from oracles import zeta_coeffs_rows

IDENTIFY_INPUT = inputs.identify_inputs(0)[0]  # (a, b, conductor)
K49_POLY = "t^3 - t^2 - 2t + 1"
K169_POLY = "t^3 - t^2 - 4t - 1"
# conductor 30013: identify writes its 10004 residues in 31 blocks
SLICED_POLY = "-10004,264559"
# conductor 2999911, character (1,): 999970 residues, just under SUBGROUP_MAX
EDGE_POLY = "-999970,-148217825"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# a child's stdout is block-buffered (PYTHONUNBUFFERED unset), as in a
# shell pipeline
SPAWN_ENV = dict(child_env(), PYTHONUNBUFFERED="")


def spawn(*argv):
    """The CLI in a fresh interpreter, so no in-process cache is shared."""
    return subprocess.Popen([sys.executable, "-m", "cubictrace.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=SPAWN_ENV)


CLI_MAIN = "from cubictrace.cli import main\ncode = main(sys.argv[1:])\n"


def peak_child(argv, stdout, body=CLI_MAIN) -> tuple[bytes, int]:
    """`body`, by default the CLI on argv, in a fresh interpreter: its
    stdout, and its peak RSS in kB as the child reads it.  That is VmHWM,
    the peak of the child's own image: getrusage's ru_maxrss also counts the
    pytest process it was forked from.  `body` sets `code`, the exit
    status."""
    script = ("import re, sys\n" + body +
              "sys.stdout.flush()\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1], file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=SPAWN_ENV, timeout=120)
    assert proc.returncode == 0
    return proc.stdout, int(proc.stderr)


class TestIdentify:
    def test_k49(self, capsys):
        code, out, _ = run(capsys, "identify", "--poly", K49_POLY)
        assert code == 0
        assert "conductor:           7" in out
        assert "field discriminant:  49" in out

    def test_index_divisor(self, capsys):
        code, out, _ = run(capsys, "identify", "--poly", "t^3 - t^2 - 37t + 29")
        assert code == 0
        assert "index^2:             4096" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "identify", "--poly", K49_POLY,
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["conductor"] == 7 and data["subgroup"] == [1, 6]

    @pytest.mark.parametrize("poly, conductor", [
        ("-2,1", 7), ("-30,-27", 91), ("-30,64", 91),
        ("{},{}".format(*IDENTIFY_INPUT[:2]), IDENTIFY_INPUT[2]),
        (SLICED_POLY, 30013),
    ])
    def test_json_layout_is_json_dumps(self, capsys, poly, conductor):
        # the subgroup is joined by hand; the bytes must be json.dumps's
        code, out, _ = run(capsys, "identify", "--poly", poly, "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["conductor"] == conductor
        assert data["subgroup"] == sorted(field_invariants(parse_poly(poly)).subgroup)
        assert out == json.dumps(data, indent=2) + "\n"

    def test_json_head_is_json_dumps_on_bench_cubics(self, capsys):
        # the head is one %-template: its layout must stay json.dumps's on
        # 1-, 2- and 3-prime conductors, all with a < 0
        cubics = [(a, b) for a, b, _c in inputs.identify_inputs(0)[:30]]
        assert all(a < 0 for a, _b in cubics)
        for a, b in [*cubics, (-2, 1)]:
            code, out, _ = run(capsys, "identify", f"--poly={a},{b}",
                               "--format", "json")
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n", (a, b)

    def test_text_subgroup_is_list_repr(self, capsys):
        code, out, _ = run(capsys, "identify", "--poly", SLICED_POLY)
        sub = field_invariants(parse_poly(SLICED_POLY)).subgroup
        assert code == 0 and len(sub) == 10004
        assert out.endswith(f"splitting subgroup:  {list(sub)} (mod 30013)\n")

    def test_golden_digest(self, capsys):
        # sha256 of exit code and stdout of identify, json and text, on 30
        # bench cubics with 1, 2 and 3 primes in their conductors (up to
        # 84787), pinned from the build that joined str(x) for each residue
        digest = hashlib.sha256()
        cubics = inputs.identify_inputs(0)[:30]
        assert max(c for _a, _b, c in cubics) == 84787
        for a, b, _c in cubics:
            for fmt in ("json", "text"):
                code, out, _ = run(capsys, "identify", f"--poly={a},{b}",
                                   "--format", fmt)
                digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "f0d467bcbf3841c315159a7708d2f1ae180c7d1a12ea457a0875d14ecaf9be6b")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_streams_the_kernel_in_bounded_memory(self, fmt):
        # c = 2999911, phi(c)/3 = 999970 residues, just under SUBGROUP_MAX:
        # the tuple of them peaked at 67 MB; the mask and a slice need < 48
        out, peak_kb = peak_child(["identify", "--poly", EDGE_POLY,
                                   "--format", fmt], subprocess.PIPE)
        sub = FieldClass(2999911, (1,)).subgroup
        assert len(sub) == 999970 <= SUBGROUP_MAX
        if fmt == "json":
            assert out.endswith(("[\n    " + ",\n    ".join(map(str, sub))
                                 + "\n  ]\n}\n").encode())
        else:
            assert out.endswith(("splitting subgroup:  ["
                                 + ", ".join(map(str, sub))
                                 + "] (mod 2999911)\n").encode())
        assert peak_kb < 48 * 1024

    def test_reducible_exits_3(self, capsys):
        code, _, err = run(capsys, "identify", "--poly", "t^3 - t^2")
        assert code == 3
        assert "reducible" in err

    @pytest.mark.parametrize("poly, why", [
        ("t^3 - t^2", "t^3 - t^2 + 0t + 0 is reducible"),
        ("-4,4", "t^3 - t^2 - 4t + 4 is reducible"),  # discriminant 144
        ("-3,5", "t^3 - t^2 - 3t + 5 is irreducible but not cyclic "
                 "(discriminant -268 is not a square)"),
    ], ids=["zero-disc", "square-disc", "not-cyclic"])
    def test_refusal_wording(self, capsys, poly, why):
        assert run(capsys, "identify", "--poly", poly) == (3, "", f"error: {why}\n")

    def test_one_irreducibility_test_per_cyclic_check(self, capsys, monkeypatch):
        # one is_cyclic per accepted cubic, in field_invariants
        calls = []

        def counted(f):
            calls.append(f)
            return is_irreducible(f)

        monkeypatch.setattr("cubictrace.poly.is_irreducible", counted)
        monkeypatch.setattr(cli, "is_irreducible", counted)
        assert run(capsys, "identify", "--poly", "-2,1")[0] == 0
        assert len(calls) == 1
        calls.clear()
        assert run(capsys, "isomorphic", "-2,1", "-37,29")[0] == 0
        assert len(calls) == 2

    def test_unparsable_exits_3(self, capsys):
        code, _, err = run(capsys, "identify", "--poly", "x^2 + 1")
        assert code == 3

    @pytest.mark.parametrize("text", ["t^3 - t^2 - 3 7t + 29", "1 2,3",
                                      "t^3 - t^2 - 2t + 1 0"])
    def test_space_inside_a_number_exits_3(self, capsys, text):
        code, out, err = run(capsys, "identify", "--poly", text)
        assert (code, out) == (3, "")
        assert err == ("error: expected 't^3 - t^2 [+/- at] [+/- b]' or 'a,b', "
                       f"got {text!r}\n")

    def test_negative_pair(self, capsys):
        code, out, _ = run(capsys, "identify", "--poly", "-2,1")
        assert code == 0
        assert out == run(capsys, "identify", "--poly", K49_POLY)[1]
        assert run(capsys, "identify", "--poly", "-2,x")[0] == 3

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_writes_the_kernel_a_block_at_a_time(self, monkeypatch, fmt):
        # c = 30013: 10004 residues in 31 blocks; each write holds at most
        # one block, so the output is never built as one string
        class Writes(list):  # a stdout that keeps each write
            write = list.append

            def flush(self):
                pass

        writes = Writes()
        monkeypatch.setattr(sys, "stdout", writes)
        assert main(["identify", "--poly", SLICED_POLY, "--format", fmt]) == 0
        out = "".join(writes)
        sub = field_invariants(parse_poly(SLICED_POLY)).subgroup
        sep = ",\n    " if fmt == "json" else ", "
        if fmt == "json":
            data = json.loads(out)
            assert data["subgroup"] == list(sub)
            assert out == json.dumps(data, indent=2) + "\n"
        else:
            assert out.endswith(f"splitting subgroup:  {list(sub)} (mod 30013)\n")
        assert max(map(len, writes)) <= 1000 * (len(sep) + 5)


def assert_renders(mask: bytes, sep: str) -> None:
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._write_kernel(mask, sep)
    assert buf.getvalue() == sep.join(map(str, compress(range(len(mask)), mask)))


def kernel_masks():
    """Masks at and around the block edges of _write_kernel."""
    for n in (1, 7, 999, 1000, 1001, 1999, 2000, 2001, 10001, 100001):
        yield pytest.param(bytes(n), id=f"zeros-{n}")
        yield pytest.param(b"\1" * n, id=f"ones-{n}")
        yield pytest.param(b"\1" + bytes(n - 1), id=f"first-{n}")
        yield pytest.param(bytes(n - 1) + b"\1", id=f"last-{n}")
        if n > 1000:  # block 0 empty, so 1 is not in the set
            yield pytest.param(bytes(1000) + b"\1" * (n - 1000),
                               id=f"no-block-0-{n}")
        if n > 2000:  # block 1 empty between two full ones
            yield pytest.param(b"\1" * 1000 + bytes(1000) + b"\1" * (n - 2000),
                               id=f"no-block-1-{n}")


SEPS = pytest.mark.parametrize("sep", [", ", ",\n    "], ids=["text", "json"])


class TestWriteKernel:
    @SEPS
    @pytest.mark.parametrize("mask", kernel_masks())
    def test_block_edges(self, mask, sep):
        assert_renders(mask, sep)

    @SEPS
    @given(st.lists(st.tuples(st.integers(0, 1500), st.booleans())))
    def test_drawn_mask(self, sep, runs):
        # runs of 0s and 1s, so that blocks are full, empty or cut
        assert_renders(b"".join(bytes([bit]) * n for n, bit in runs), sep)


class TestEnumerate:
    def test_paper_table_shape(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--field", K49_POLY,
                           "--max-norm", "43", "--nonzero-only")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        assert lines[0] == "7 x 1: t^3 - t^2 - 2t + 1"
        assert lines[2] == "7 x 7: t^3 - t^2 - 16t + 29, t^3 - t^2 - 16t - 13"

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--field", K169_POLY,
                           "--max-norm", "1")
        assert code == 0
        assert out.strip() == "13 x 1: t^3 - t^2 - 4t - 1"

    def test_zero_rows_shown_by_default(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--field", K49_POLY,
                           "--max-norm", "2")
        assert code == 0
        assert out.strip().splitlines()[1] == "7 x 2:"

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--field", K49_POLY,
                           "--max-norm", "43", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        k = field_invariants(parse_poly(K49_POLY))
        expected = enumerate_field(k, 43)
        by_n = {}
        for r in rows:
            n = int(r["N"])
            if r["polynomial"]:
                by_n.setdefault(n, []).append(r)
            else:
                by_n.setdefault(n, [])
        assert set(by_n) == {row.n for row in expected}
        for row in expected:
            got = by_n[row.n]
            assert len(got) == row.count
            for r, f in zip(got, row.polys):
                assert int(r["a"]) == f.a and int(r["b"]) == f.b
                assert int(r["height_sq"]) == 1 - 3 * f.a
                assert parse_poly(r["polynomial"]) == f

    def test_json_matches_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--field", K49_POLY,
                           "--max-norm", "7", "--format", "json")
        data = json.loads(out)
        k = field_invariants(parse_poly(K49_POLY))
        for item, row in zip(data, enumerate_field(k, 7)):
            assert item["N"] == row.n and item["count"] == row.count
            assert item["polys"] == [str(f) for f in row.polys]

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--field", K49_POLY])
        assert exc.value.code == 2


class TestWriteJson:
    def test_matches_json_dumps_across_blocks(self, monkeypatch):
        # 15181 of the encoder's pieces: three full blocks and a cut one
        obj = {"rows": [{"N": n, "ok": n % 2 == 0, "a": None if n % 3 else -n,
                         "polys": [str(n)] * (n % 3)} for n in range(700)],
               "empty": [], "none": {}}
        writes = []
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        cli._write_json(obj)
        assert "".join(writes) == json.dumps(obj, indent=2) + "\n"
        assert len(writes) == 5  # three full blocks, the rest, the newline

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_json_in_bounded_memory(self, command):
        # at --max-norm 100000 the json text built whole before printing
        # peaked at 187 MB (enumerate) and 154 MB (verify); written a block
        # at a time, the rows and their dicts take about 70 MB
        _, peak_kb = peak_child([command, "--field", K49_POLY, "--max-norm",
                                 "100000", "--format", "json"],
                                subprocess.DEVNULL)
        assert peak_kb < 100 * 1024


class TestCount:
    def test_row_7x13(self, capsys):
        code, out, _ = run(capsys, "count", "--field", K49_POLY, "-a", "-30")
        assert code == 0 and out.startswith("count = 2")

    def test_empty_height(self, capsys):
        code, out, _ = run(capsys, "count", "--field", K49_POLY, "-a", "-23")
        assert code == 0 and out.startswith("count = 0")

    def test_divisibility_reason(self, capsys):
        code, out, _ = run(capsys, "count", "--field", K49_POLY, "-a", "-1")
        assert code == 0
        assert "7 does not divide 4" in out

    def test_negative_pair_field(self, capsys):
        code, out, _ = run(capsys, "count", "--field", "-2,1", "-a", "-30")
        assert code == 0 and out.startswith("count = 2")

    def test_positive_a_invalid(self, capsys):
        code, _, err = run(capsys, "count", "--field", K49_POLY, "-a", "2")
        assert code == 3

    def test_exits_1_when_the_count_is_not_predicted(self, capsys,
                                                     monkeypatch):
        # one of the two cubics at a = -30 goes missing: the same line,
        # and a verification failure
        members = verify._members
        monkeypatch.setattr(verify, "_members", lambda k, a: members(k, a)[1:])
        code, out, _ = run(capsys, "count", "--field", K49_POLY, "-a", "-30")
        assert (code, out) == (1, "count = 1  (predicted d_13 = 2)\n")

    def test_walks_one_pattern_at_the_14_prime_height(self):
        # h = 1 - 3a is 7 times the 13 next split primes, the most below
        # FACTOR_LIMIT: one field's 8192 cubics, not the (4^14 - 2^14)/2 of
        # the census
        out, peak_kb = peak_child(["count", "--field=-2,1", "-a",
                                   "-92661511257552322346564"], subprocess.PIPE)
        assert out == (b"count = 8192  "
                       b"(predicted d_39712076253236709577099 = 8192)\n")
        assert peak_kb < 64 * 1024


class TestCensusPeak:
    def test_ten_split_primes(self):
        # 1 - 3a = 7*13*19*31*37*43*61*67*73*79: (4^10 - 2^10)/2 = 523776
        # cubics, held at once as (cubic, key) pairs.  The child's VmHWM read
        # 138.6 MB when cubics and keys were frozen dataclasses, 120.6 MB as
        # named tuples
        a = -669977474110520
        body = ("from cubictrace.enumeration import classified_polys_for_a\n"
                "pairs = classified_polys_for_a(int(sys.argv[1]))\n"
                "bs = [f.b for f, _k in pairs]\n"
                "print(len(pairs), len({k for _f, k in pairs}), "
                "bs == sorted(bs), pairs[0][0].a)\n"
                "code = 0\n")
        out, peak_kb = peak_child([str(a)], subprocess.PIPE, body)
        assert out.split() == [b"523776", b"29524", b"True", str(a).encode()]
        assert peak_kb < 130 * 1024


class TestZetaCoeffs:
    def test_figure_values(self, capsys):
        code, out, _ = run(capsys, "zeta-coeffs", "--max", "97")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 21
        assert lines[0] == "d_1 = 1" and lines[-1] == "d_97 = 2"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "zeta-coeffs", "--max", "10",
                           "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["d_N"] for r in rows] == \
            ["1", "0", "1", "1", "0", "0", "2", "0", "1", "0"]
        assert [r["series_coeff"] for r in rows] == \
            ["1", "0", "0", "1", "0", "0", "2", "0", "0", "0"]

    def test_never_factors(self, capsys, monkeypatch):
        # every d_N is read from the divisor-sum sieve, and series_coeff(n)
        # from the row's own d_n
        expected = [f"{n},{ideal_count(n)},{series_coeff(n)}" for n in range(1, 31)]

        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(eisenstein, "factorize", refuse)
        code, out, _ = run(capsys, "zeta-coeffs", "--max", "30", "--format", "csv")
        assert code == 0 and out.splitlines()[1:] == expected
        assert expected[:9] == [
            "1,1,1", "2,0,0", "3,1,0", "4,1,1", "5,0,0", "6,0,0", "7,2,2",
            "8,0,0", "9,1,0"]

    def test_golden_digest(self, capsys):
        # sha256 of exit code and stdout of zeta-coeffs --max 30000 in text,
        # csv and json, pinned from the build that wrote one row per call
        digest = hashlib.sha256()
        for fmt in ("text", "csv", "json"):
            code, out, _ = run(capsys, "zeta-coeffs", "--max", "30000",
                               "--format", fmt)
            digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "efe0ee5ebd039a5755a561c542bae1c97066332a44feaafd7e016af65f985808")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_blocks_match_one_row_per_n(self, capsys, fmt):
        # around each edge of the 12288-row blocks, and inside the first
        block = cli._ZETA_BLOCK
        for m in (1, 2, 3, 4, 97, block - 1, block, block + 1, block + 2,
                  2 * block + 1):
            code, out, _ = run(capsys, "zeta-coeffs", "--max", str(m),
                               "--format", fmt)
            assert (code, out) == (0, zeta_coeffs_rows(m, fmt)), m

    def test_oracle_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeta-coeffs", "--max", "10", "--oracle"])
        assert exc.value.code == EXIT_USAGE == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err

    @staticmethod
    def json_child(m: int, stdout) -> tuple[bytes, int]:
        """zeta-coeffs --max m --format json in a fresh interpreter."""
        return peak_child(["zeta-coeffs", "--max", str(m), "--format", "json"],
                          stdout)

    def test_oracle_at_the_top_of_its_range(self):
        # the sieve's table for N < 2^24 in a fresh interpreter: its values
        # against the closed form, and its peak: about 17 MB of import, the
        # 16 MB table and 16 MB for the k = 2 slice and its translation
        rng = random.Random(0)
        ns = [ORACLE_LIMIT - 1] + [rng.randrange(1 << 23, 1 << 24)
                                   for _ in range(2000)]
        body = ("from cubictrace.eisenstein import ideal_count_oracle\n"
                "print(*(ideal_count_oracle(int(n)) for n in sys.argv[1:]))\n"
                "code = 0\n")
        out, peak_kb = peak_child(list(map(str, ns)), subprocess.PIPE, body)
        assert list(map(int, out.split())) == list(map(ideal_count, ns))
        assert peak_kb < 56 * 1024

    def test_json_streams_in_bounded_memory(self):
        out, _ = self.json_child(300, subprocess.PIPE)
        assert json.loads(out) == [
            {"N": n, "d_N": ideal_count(n), "series_coeff": series_coeff(n)}
            for n in range(1, 301)]
        # no row is kept: 300000 rows are about 20 MB of JSON, which took
        # over 300 MB when the array was built before printing
        _, peak_kb = self.json_child(300000, subprocess.DEVNULL)
        assert peak_kb < 64 * 1024


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--field", K49_POLY,
                           "--max-norm", "43")
        assert code == 0
        assert "PASS (43/43 checks)" in out

    def test_check_norms_neither_walks_nor_factors(self, capsys, monkeypatch):
        # the counts and the rows both come from one scan over primary beta:
        # no census walk, and no c*N factored at any admissible N past
        # N = 1, whose c*N = 7 is the conductor that keys the field
        walks, factored, scans = [], [], []
        monkeypatch.setattr(enumeration, "classified_polys_for_a", walks.append)
        scan = cli._field_bs
        monkeypatch.setattr(cli, "_field_bs",
                            lambda k, n: scans.append(n) or scan(k, n))
        factorize = arith.factorize
        for module in (arith, eisenstein, enumeration, fields):
            monkeypatch.setattr(module, "factorize",
                                lambda n: factored.append(n) or factorize(n))
        code, out, _ = run(capsys, "verify", "--field", K49_POLY,
                           "--max-norm", "43", "--check-norms")
        assert code == 0 and "PASS (61/61 checks)" in out
        assert walks == [] and factored and scans == [43]
        assert not set(factored) & {7 * n for n in range(4, 44, 3)}

    def test_text_in_bounded_memory(self):
        # the identity counts the scan's b per N and builds no row or cubic:
        # at --max-norm 100000 the child's VmHWM read 62.5 MB with a row and
        # its cubics per N, and 45 MB without
        _, peak_kb = peak_child(["verify", "--field", K49_POLY, "--max-norm",
                                 "100000"], subprocess.DEVNULL)
        assert peak_kb < 56 * 1024

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--field", K169_POLY,
                           "--max-norm", "13", "--format", "json")
        assert code == 0
        assert json.loads(out)["overall"] is True


class TestPaperTables:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "paper-tables")
        assert code == 0
        assert "PASS (3/3 checks)" in out


K8281_POLY = "-30,-27"  # conductor 91 = 7 * 13
GOLDEN_ARGV = [
    *(["enumerate", "--field", poly, "--max-norm", n, *extra]
      for poly, n in ((K49_POLY, "50"), (K8281_POLY, "20"))
      for extra in ((), ("--nonzero-only",), ("--format", "csv"),
                    ("--format", "json"))),
    *(["count", "--field", poly, "-a", a]
      for poly in (K49_POLY, K8281_POLY) for a in ("-30", "-23", "-1")),
    *(["verify", "--field", K49_POLY, "--max-norm", "43", *extra]
      for extra in ((), ("--format", "json"), ("--check-norms",))),
    ["paper-tables"], ["paper-tables", "--format", "json"],
]


class TestGoldenOutput:
    def test_golden_digest(self, capsys):
        # sha256 of exit code and stdout of every census and verification
        # command, pinned from the build that filtered the census by field
        # in enumerate, count and verify_corollary alike
        digest = hashlib.sha256()
        for argv in GOLDEN_ARGV:
            code, out, _ = run(capsys, *argv)
            digest.update(f"{code}\n{out}".encode())
        assert len(GOLDEN_ARGV) == 19
        assert digest.hexdigest() == (
            "db05d04bb2dc366e46626c632e563bddf230683c3f45a1d6efe618fcce8f90d8")


class TestIsomorphic:
    def test_true(self, capsys):
        code, out, _ = run(capsys, "isomorphic", K49_POLY, "t^3-t^2-9t+1")
        assert code == 0 and out.strip() == "true"

    def test_false(self, capsys):
        code, out, _ = run(capsys, "isomorphic", K49_POLY, K169_POLY)
        assert code == 1 and out.strip() == "false"

    def test_invalid(self, capsys):
        code, _, err = run(capsys, "isomorphic", K49_POLY, "t^3 - t^2")
        assert code == 3

    def test_negative_pairs(self, capsys):
        code, out, _ = run(capsys, "isomorphic", "-2,1", "-4,-1")
        assert code == 1 and out.strip() == "false"
        code, out, _ = run(capsys, "isomorphic", "-2,1", "-37,29")
        assert code == 0 and out.strip() == "true"


class TestExitPaths:
    @pytest.mark.parametrize("argv", [
        ("identify", "--poly", "-2,1"),
        ("verify", "--field", "-2,1", "--max-norm", "7"),
        ("paper-tables",),
    ], ids=lambda argv: argv[0])
    def test_csv_only_where_a_schema_exists(self, capsys, argv):
        # only enumerate and zeta-coeffs have a CSV schema
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == EXIT_USAGE == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--field", "-2,1", "--max-norm", "0"),
        ("verify", "--field", "-2,1", "--max-norm", "0"),
        ("zeta-coeffs", "--max", "0"),
    ], ids=lambda argv: argv[0])
    def test_bound_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, lines_read", [
        # about 200 kB of CSV, more than the pipe holds: print fails
        (("zeta-coeffs", "--max", "20000", "--format", "csv"), 1),
        # a few lines, still buffered when main returns: the flush fails
        (("identify", "--poly", "-2,1"), 0),
    ])
    def test_closed_pipe_exits_141_without_traceback(self, argv, lines_read):
        proc = spawn(*argv)
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_internal_error_in_fresh_interpreter_exits_4(self):
        script = (
            "import sys\n"
            "from cubictrace import cli\n"
            "from cubictrace.arith import InconsistencyError\n"
            "def broken(f):\n"
            "    raise InconsistencyError('broken invariant')\n"
            "cli.field_invariants = broken\n"
            "sys.exit(cli.main(['isomorphic', '-2,1', '-4,-1']))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=SPAWN_ENV, timeout=60)
        assert proc.returncode == EXIT_INTERNAL == 4
        assert proc.stdout == b""
        assert proc.stderr == b"error: broken invariant\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_subgroup_past_its_bound_exits_4(self, fmt):
        # phi(75000001)/3 = 24626844 residues, which ran out of memory before
        # the bound, are refused before any output; the identify workload
        # lists up to 33333
        assert 33333 < SUBGROUP_MAX < 24626844 // 10
        proc = spawn("identify", "--poly", "-100000001,-383055560663",
                     "--format", fmt)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_INTERNAL == 4 and out == b""
        assert err.startswith(b"error: the splitting subgroup mod 75000001 "
                              b"(character (1, 2)) has 24626844 residues")
        assert err.count(b"\n") == 1

    # t^3 alpha for the alpha of -2,1 and t = 10^8 = 1 (mod 9): a cubic of
    # K_49 with gcd(q, s) = 7 t^3, past the limit
    PAST_LIMIT = "-23333333333333333,259259267037037037037037"
    # conductor 1255745438954661697032379 is below the limit, 4 times it not
    BIG_FIELD = "-418581812984887232344126,-92978126936719999982733389613258424"

    @pytest.mark.parametrize("argv, n", [
        (("identify", "--poly", PAST_LIMIT), 7 * 10**24),
        (("isomorphic", PAST_LIMIT, "-2,1"), 7 * 10**24),
        (("count", "--field", "-2,1", "-a", str(-10**25)), 3 * 10**25 + 1),
        # 7 | 1 - 3a: refused at 1 - 3a, before N = (1 - 3a)/7 is factored
        (("count", "--field", "-2,1", "-a", str(-10**26)), 3 * 10**26 + 1),
        (("enumerate", "--field", BIG_FIELD, "--max-norm", "4"),
         4 * 1255745438954661697032379),
        (("verify", "--field", BIG_FIELD, "--max-norm", "4"),
         4 * 1255745438954661697032379),
    ], ids=["identify", "isomorphic", "count", "count-c-divides", "enumerate",
            "verify"])
    def test_factorization_past_its_limit_exits_4(self, argv, n):
        assert n >= FACTOR_LIMIT
        proc = spawn(*argv)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_INTERNAL == 4 and out == b""
        assert err.startswith(f"error: cannot factor {n}: ".encode())
        assert err.count(b"\n") == 1

    @pytest.mark.parametrize("m", [ORACLE_LIMIT, 10**30])
    def test_oracle_past_its_limit_exits_4(self, m):
        # refused before the sieve or any N is computed
        proc = spawn("zeta-coeffs", "--max", str(m), "--format", "csv")
        out, err = proc.communicate(timeout=10)
        assert proc.returncode == EXIT_INTERNAL == 4 and out == b""
        assert err == (f"error: the divisor-sum oracle sieves only N < "
                       f"{ORACLE_LIMIT}, got {m}\n").encode()

    def test_large_semiprime_b_exits_3(self):
        # |b| is a 30-digit semiprime, which takes seconds to factor; the
        # irreducibility and square tests must not need its factors
        proc = spawn("identify", "--poly", "-5,100000000000034700000000001147")
        out, err = proc.communicate(timeout=5)
        assert proc.returncode == 3 and out == b""
        assert err.startswith(b"error: ") and b"not cyclic" in err
        assert err.count(b"\n") == 1

    @pytest.mark.parametrize("exc", [InconsistencyError, ArithmeticError])
    def test_internal_errors_exit_4(self, capsys, monkeypatch, exc):
        def broken(f):
            raise exc("broken invariant")

        monkeypatch.setattr(cli, "field_invariants", broken)
        code, out, err = run(capsys, "isomorphic", "-2,1", "-4,-1")
        assert (code, out, err) == (EXIT_INTERNAL, "", "error: broken invariant\n")


class TestParserReuse:
    SEQUENCE = [
        ("identify", "--poly", "{},{}".format(*IDENTIFY_INPUT[:2]),
         "--format", "json"),
        ("identify", "--poly", "-30,64"),
        ("enumerate", "--field", K49_POLY),  # usage error: no --max-norm
        ("identify", "--poly", "x^2 + 1"),  # invalid polynomial
        ("zeta-coeffs", "--max", "30", "--format", "csv"),
    ]

    def test_in_process_sequence_matches_fresh_interpreters(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        in_process = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
            out = capsys.readouterr()
            in_process.append((code, out.out, out.err))
        assert [code for code, _, _ in in_process] == [0, 0, EXIT_USAGE, 3, 0]
        for argv, got in zip(self.SEQUENCE, in_process):
            proc = spawn(*argv)
            out, err = proc.communicate(timeout=60)
            assert got == (proc.returncode, out.decode(), err.decode()), argv
