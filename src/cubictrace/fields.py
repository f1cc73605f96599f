"""Global invariants of a cyclic trace-one cubic, read off one element of
Z[w]: the conductor, the field discriminant, the cubic character that keys
the field, and the field-isomorphism test.

With h = 1 - 3a, q = 9a + 27b - 2 and s = sqrt(disc), alpha = (q + 3s
sqrt(-3))/2 has norm h^3 and K(w) = Q(w, alpha^(1/3)).  Let j = v_pi(alpha)
at the prime pi = 1 (mod 3) over each split p | h.  By Kummer p ramifies iff
3 does not divide j (3 never does: a root has trace 1, so K is tame by
Noether); c = 1, all j = 0 mod 3, exactly when f is reducible.  By cubic
reciprocity (Ireland & Rosen, ch. 9), chi = prod (./pi_i)_3^(j_i).  For a
single cubic, j comes from dividing alpha by pi at the primes of gcd(q, s)."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress

from .arith import InconsistencyError, SizeLimitError, factorize
from .eisenstein import _cornacchia, _valuation_at
from .poly import TraceOnePoly, discriminant, is_cyclic


def _primitive_root(p: int) -> int:
    """Least primitive root mod the prime p, found by factoring p - 1; only
    the subgroup rendering (_cube_labels) needs one."""
    qs = [q for q, _ in factorize(p - 1)]
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


# A residue's label is k where chi(x) = w^k, or _NON_UNIT when x is not a
# unit.  A label plus e <= 2 times another is at most 24 < 256, so byte
# strings of labels add as integers without a carry; a sum below _NON_UNIT
# comes from two units.
_NON_UNIT = 8
_LABEL_OF_SUM = bytes(s % 3 if s < _NON_UNIT else _NON_UNIT for s in range(256))
_IS_KERNEL = bytes([1]) + bytes(255)
# The most residues FieldClass.subgroup lists; at 10^6 identify prints
# about 13 MB of JSON
SUBGROUP_MAX = 10**6


def _cube_label(x: int, p: int) -> int:
    """k where (x/pi)_3 = w^k, for x prime to p: x^((p-1)/3) = w^k mod pi,
    for pi = x_pi + y_pi w = _cornacchia(p), so w = -x_pi / y_pi mod p."""
    r = pow(x, (p - 1) // 3, p)
    if r == 1:
        return 0
    x_pi, y_pi = _cornacchia(p)
    return 1 if r == -x_pi * pow(y_pi, -1, p) % p else 2


def _cube_labels(p: int) -> bytes:
    """Byte x holds _cube_label(x, p); byte 0 holds _NON_UNIT.

    For the least primitive root g, three facts:
    - -1 = g^((p-1)/2) lies in the cubes H = <g^3>, since 6 | p - 1; so
      the walk over g^(3i), i < (p-1)/6, reaches half of H, and x -> p - x
      (the bytes read backwards) the other half;
    - the units are the cosets H, gH and g^2 H, labelled 0, label_g and
      2 label_g mod 3, where label_g = _cube_label(g, p) is not 0;
    - x -> g x mod p, which takes H to gH, is g strided slices: for k < g,
      the x in [kp/g, (k+1)p/g) land at g x - kp with step g."""
    g = _primitive_root(p)
    label_g = _cube_label(g, p)
    half = bytearray(p)
    u, g3 = 1, pow(g, 3, p)
    for _ in range((p - 1) // 6):
        half[u] = 1
        u = u * g3 % p
    # read big-endian and shifted a byte, byte x holds half[p - x]
    cubes = int.from_bytes(half, "little") + (int.from_bytes(half, "big") << 8)
    del half  # each buffer is p bytes: drop it once used (4p at the peak)
    twice = (2 * cubes).to_bytes(p, "little")  # 2 on H, so in_gh has 2 on gH
    in_gh = bytearray(p)
    for k in range(g):
        lo, hi = -(-k * p // g), -(-(k + 1) * p // g)
        in_gh[g * lo - k * p::g] = twice[lo:hi]
    del twice
    # bytes 1 on H, 2 on gH, 0 on g^2 H and 3 at x = 0
    coset = cubes + int.from_bytes(in_gh, "little") + 3
    del cubes, in_gh
    return coset.to_bytes(p, "little").translate(
        bytes((3 - label_g, 0, label_g, _NON_UNIT)).ljust(256, b"\0"))


class FieldClass(namedtuple("FieldClass", "conductor character")):
    """Isomorphism class of a cyclic cubic field, as an immutable named tuple.

    Identified by the conductor c = p_1 ... p_k (p_1 < ... < p_k, each
    = 1 mod 3) and its cubic character chi = prod chi_{p_i}^{e_i}, stored as
    the exponents (e_1, ..., e_k) in {1, 2} normalized so e_1 = 1 (chi and
    its conjugate chi^2 cut out the same field).  chi_p(x) = (x/pi_p)_3 is
    the cubic residue symbol at the primary prime pi_p = _cornacchia(p) = 1
    (mod 3).  The field discriminant is c^2.  Building one checks the
    normalization, not the conductor (see check_key).
    """

    __slots__ = ()

    def __new__(cls, conductor: int, character: Iterable[int]):
        es = tuple(character)  # any iterable: the key hashes as a tuple
        if not es or es[0] != 1 or es.count(1) + es.count(2) != len(es):
            raise ValueError(f"character {es} is not normalized: entries in "
                             "{1, 2}, the first equal to 1")
        return tuple.__new__(cls, (conductor, es))

    @classmethod
    def _make(cls, iterable):  # _replace builds through it: check it too
        return cls(*iterable)

    @property
    def discriminant(self) -> int:
        return self.conductor**2

    @property
    def subgroup(self) -> tuple[int, ...]:
        """The index-3 splitting subgroup ker chi of (Z/c)*, ascending.  Not
        cached: it has phi(c)/3 elements, and the key (conductor, character)
        does not need it; past SUBGROUP_MAX of them it raises
        SizeLimitError."""
        return tuple(compress(range(self.conductor), self._kernel_mask()))

    def _kernel_mask(self) -> bytes:
        """Byte x is 1 when x is in ker chi and 0 otherwise, for x in [0, c).
        It makes subgroup's checks and refusal; identify renders ker chi
        from it one block of 1000 bytes at a time, without the tuple.

        Labels mod m and mod p, repeated p and m times, sit side by side
        over [0, m p): position x reads the labels of x mod m and x mod p,
        which is the CRT bijection, so adding the byte strings labels each
        x mod m p by chi_m(x) chi_p(x)^e.  The first prime needs no sum:
        the labels mod 1 are one 0 and e_1 = 1 by the normalization, so the
        sum is _cube_labels(p_1), whose bytes 0, 1, 2 and _NON_UNIT
        _LABEL_OF_SUM leaves as they are."""
        ps = check_key(self)
        size = math.prod(p - 1 for p in ps) // 3
        if size > SUBGROUP_MAX:
            raise SizeLimitError(f"the splitting subgroup mod {self.conductor} "
                                 f"(character {self.character}) has {size} "
                                 f"residues; at most {SUBGROUP_MAX} are listed")
        labels = _cube_labels(ps[0])
        for p, e in zip(ps[1:], self.character[1:]):
            m = len(labels)
            total = (int.from_bytes(labels * p, "little")
                     + e * int.from_bytes(_cube_labels(p) * m, "little"))
            labels = total.to_bytes(m * p, "little").translate(_LABEL_OF_SUM)
        return labels.translate(_IS_KERNEL)

    def __str__(self) -> str:
        return f"K_{self.discriminant}"


def check_key(k: FieldClass) -> tuple[int, ...]:
    """The primes of k's conductor, ascending.  Raises ValueError unless the
    conductor is a product of len(k.character) distinct primes = 1 (mod 3):
    keys from the census walk and field_invariants always are, but FieldClass
    does not factor c when it is built, so the entry points that take a key
    check it once."""
    ps = factorize(k.conductor)
    if (len(ps) != len(k.character)
            or any(e != 1 or p % 3 != 1 for p, e in ps)):
        raise ValueError(f"character {k.character} needs {len(k.character)} "
                         "distinct primes = 1 (mod 3) as conductor, not "
                         f"{k.conductor}")
    return tuple(p for p, _ in ps)


def field_invariants(f: TraceOnePoly) -> FieldClass:
    """Full isomorphism-class descriptor of the root field of f, from the
    valuations of alpha at the primes of gcd(q, s)."""
    if not is_cyclic(f):
        raise ValueError(f"{f} is not cyclic")
    q, s = 9 * f.a + 27 * f.b - 2, math.isqrt(discriminant(f))
    alpha = ((q + 3 * s) // 2, 3 * s)  # q = 2x - y, y = 3s
    # v_p(gcd(q, s)) = min(j, 3 v_p(h) - j): 3 divides both or neither
    ps = [p for p, e in factorize(math.gcd(q, s)) if p % 3 == 1 and e % 3]
    if not ps:
        raise InconsistencyError(f"{f} is cyclic but no prime ramifies")
    es = [_valuation_at(alpha, _cornacchia(p), p) % 3 for p in ps]
    # chi^2 cuts out the same field as chi, and chi^(e_1) has e_1 = 1
    return FieldClass(math.prod(ps), tuple(e * es[0] % 3 for e in es))


def conductor_of(f: TraceOnePoly) -> int:
    """Conductor: the product of the ramified primes."""
    return field_invariants(f).conductor


def is_isomorphic(f: TraceOnePoly, g: TraceOnePoly) -> bool:
    """Root fields isomorphic: same conductor and same cubic character."""
    return field_invariants(f) == field_invariants(g)
