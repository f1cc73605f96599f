"""Slow reference algorithms that the fast paths in `cubictrace` are checked
against."""

import functools
import itertools
import math

from cubictrace.arith import InconsistencyError, factorize, is_prime
from cubictrace.eisenstein import _conj, _cornacchia, _mul, ideal_count
from cubictrace.enumeration import classified_polys_for_a
from cubictrace.fields import FieldClass
from cubictrace.padic import SplittingType, _fp_roots, _pnorm, roots_mod_p
from cubictrace.poly import TraceOnePoly, discriminant, is_cyclic

# disc(b) can be a square only where it is a square mod 8 * 9 * 5 * 7, and
# that depends only on b mod the same number.
_SCAN_MODULUS = 2520
_SCAN_SQUARES = {r * r % _SCAN_MODULUS for r in range(_SCAN_MODULUS)}
_LIFT_SET_CAP = 2_000_000


def primes():
    """Ascending prime generator (unbounded, Miller-Rabin backed)."""
    yield 2
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2


def factorize_trial(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1 by trial division by 2 and every odd
    d up to the square root of the cofactor; no table and no primality test."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def least_prime_factors(n: int) -> list[int]:
    """lpf[m] = the least prime factor of m for 2 <= m < n (lpf[0] = lpf[1]
    = 0), by the ascending sieve: each prime p claims the multiples of p
    that no smaller prime has claimed."""
    lpf = [0] * n
    for p in range(2, n):
        if lpf[p]:
            continue
        lpf[p] = p
        for m in range(p * p, n, p):
            if not lpf[m]:
                lpf[m] = p
    return lpf


def divisor_sum_chi3(n: int) -> int:
    """d_n = sum of chi3(d) over the d <= n dividing n, each d tried by
    division: no factorization and no sieve."""
    return sum((0, 1, -1)[d % 3] for d in range(1, n + 1) if n % d == 0)


def ideal_count_factorize(n: int) -> int:
    """d_n by the closed form over factorize(n): p^k contributes k + 1 for
    p = 1 (mod 3), 1 for p = 3 and for p = 2 (mod 3) with k even, 0 for
    p = 2 (mod 3) with k odd.  The loop eisenstein.ideal_count runs at and
    above 2^20, here for every n >= 1."""
    if n < 1:
        raise ValueError(f"norm must be positive, got {n}")
    count = 1
    for p, k in factorize(n):
        if p % 3 == 1:
            count *= k + 1
        elif p != 3 and k % 2 == 1:
            return 0
    return count


def divisor_sums_per_k(size: int) -> bytearray:
    """d_N = sum_{d|N} chi3(d) at index N for 0 < N < size (0 at index 0),
    mod 256, by the Dirichlet-convolution sieve with one slice per k:
    chi3(k) is added at every multiple of k."""
    up = bytes((i + 1) & 255 for i in range(256))
    down = bytes((i - 1) & 255 for i in range(256))
    d = bytearray(size)
    for k in range(1, size):
        if k % 3:
            d[k::k] = d[k::k].translate(up if k % 3 == 1 else down)
    return d


def zeta_coeffs_rows(m: int, fmt: str) -> str:
    """What `zeta-coeffs --max m --format fmt` writes, one row per N with
    d_N from ideal_count: the per-row loop that the CLI's blocks replaced."""
    out = ["N,d_N,series_coeff\n"] if fmt == "csv" else []
    for n in range(1, m + 1):
        dn = ideal_count(n)
        sn = dn if n % 3 else 0
        if fmt == "csv":
            out.append(f"{n},{dn},{sn}\n")
        elif fmt == "json":
            out.append(f'{"," if n > 1 else "["}\n  {{\n    "N": {n},\n    '
                       f'"d_N": {dn},\n    "series_coeff": {sn}\n  }}')
        elif n % 3 == 1 and dn > 0:
            out.append(f"d_{n} = {dn}\n")
    if fmt == "json":
        out.append("\n]\n")
    return "".join(out)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending: for each p^e, e blocks,
    each p times the block before it."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        block = divs
        for _ in range(e):
            block = [d * p for d in block]
            divs += block
    divs.sort()
    return divs


def p1_part(n: int) -> int:
    """Largest divisor of n composed only of primes = 1 mod 3."""
    if n < 1:
        raise ValueError(f"p1_part requires n >= 1, got {n}")
    out = 1
    for p, k in factorize(n):
        if p % 3 == 1:
            out *= p**k
    return out


def mod2_part_is_square(n: int) -> bool:
    """Whether the part of n supported on primes = 2 mod 3 is a perfect square."""
    return all(k % 2 == 0 for p, k in factorize(n) if p % 3 == 2)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def subgroup_closure(c: int, generators) -> set[int]:
    """Smallest subgroup of (Z/c)* containing the given residues.

    Breadth-first closure under multiplication; every generator must be
    coprime to c.
    """
    gens = [g % c for g in generators]
    for g in gens:
        if math.gcd(g, c) != 1:
            raise ValueError(f"generator {g} is not coprime to modulus {c}")
    closure = {1 % c}
    frontier = [1 % c]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % c
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return closure


# ---------------------------------------------------------------------------
# Lifting in Z_p and in the unramified cubic extension W of Z_p

def valuation(n: int, p: int) -> int:
    """The exponent of p in n != 0, by repeated division."""
    if p < 2:
        raise ValueError(f"valuation at {p} is undefined")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _shift_scale(coeffs, r: int, p: int):
    """G(r + p*y) for a degree <= 3 integer polynomial G, coefficients in y."""
    c = list(coeffs) + [0] * (4 - len(coeffs))
    c0, c1, c2, c3 = c[:4]
    a0 = ((c3 * r + c2) * r + c1) * r + c0
    a1 = (3 * c3 * r + 2 * c2) * r + c1
    a2 = 3 * c3 * r + c2
    return [a0, a1 * p, a2 * p * p, c3 * p**3]


def _has_root(coeffs, p: int, depth: int, unramified: bool) -> bool:
    """Whether the integer polynomial (degree <= 3) has a root in Z_p or,
    if `unramified`, in W, the unramified cubic extension ring of Z_p.

    The residue field of W is F_{p^3}, which contains no quadratic
    subextension, so a residue root is either in F_p or generates the whole
    cubic residue field; the latter happens exactly when the reduction has an
    irreducible cubic factor (then Hensel factor lifting certifies a root).
    Simple F_p residue roots lift by Hensel; multiple ones recurse on the
    shifted, rescaled polynomial.  Cosets of roots are never enumerated.
    """
    if depth < 0:
        raise InconsistencyError("p-adic root search exceeded depth budget")
    cbar = _pnorm(coeffs, p)
    roots = _fp_roots(cbar, p)
    if unramified and len(cbar) - 1 == 3 and not roots:
        return True  # irreducible cubic reduction: roots generate W
    multiple = []
    for r in sorted(roots):
        shifted = _shift_scale(coeffs, r, p)  # [G(r), G'(r) p, ...]
        if shifted[1] % (p * p):
            return True  # simple residue root lifts into Z_p, hence into W
        multiple.append(shifted)
    for shifted in multiple:
        mu = min(valuation(c, p) for c in shifted if c)
        reduced = [c // p**mu for c in shifted]
        if _has_root(reduced, p, depth - mu, unramified):
            return True
    return False


def _lift(f: TraceOnePoly, p: int, unramified: bool) -> bool:
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("discriminant is zero: p-adic valuation is infinite")
    return _has_root([f.b, f.a, -1, 1], p, valuation(disc, p) + 4, unramified)


def lift_root_zp(f: TraceOnePoly, p: int) -> bool:
    """Whether f has a root in Z_p.

    Decided by recursive residue analysis (see _has_root) on the F_p roots:
    a multiple residue root r is followed into f(r + p*y), never by
    enumerating the p lifts of r, so large index primes cost no memory.
    """
    return _lift(f, p, unramified=False)


def lift_root_unramified(f: TraceOnePoly, p: int) -> bool:
    """Whether f has a root in the degree-3 unramified extension ring W of Z_p.

    Decided by recursive residue analysis (see _has_root): the
    root sets of f modulo p^k in W can contain entire cosets of size p^3 and
    larger, so they are handled symbolically instead of being enumerated.
    """
    return _lift(f, p, unramified=True)


def splitting_type_padic(f: TraceOnePoly, p: int) -> SplittingType:
    """Split / Inert / Ramified behavior of p in the root field of f.

    Robust to index divisors: when p | disc(f), the decision is made by root
    lifting in Z_p and in the unramified cubic extension, never from the
    factorization of f mod p alone.
    """
    if not is_cyclic(f):
        raise ValueError(f"{f} is not cyclic")
    disc = discriminant(f)
    if disc % p != 0:
        n = len(roots_mod_p(f, p))
        if n == 3:
            return SplittingType.SPLIT
        if n == 0:
            return SplittingType.INERT
        raise InconsistencyError(
            f"{n} roots mod {p} for square-discriminant cubic {f}")
    if lift_root_zp(f, p):
        return SplittingType.SPLIT
    if lift_root_unramified(f, p):
        return SplittingType.INERT
    return SplittingType.RAMIFIED


def split_prime_closure(f, c: int) -> set[int]:
    """The splitting subgroup of f mod its conductor c: the closure of the
    residues of split primes, taken in increasing order until it has index 3
    in (Z/c)*.  Inert residues must stay outside it."""
    target = euler_phi(c) // 3
    gens, inert = set(), set()
    for p in primes():
        if c % p == 0:
            continue
        kind = splitting_type_padic(f, p)
        assert kind is not SplittingType.RAMIFIED, (f, p)
        if kind is SplittingType.INERT:
            inert.add(p % c)
            continue
        gens.add(p % c)
        closure = subgroup_closure(c, gens)
        assert len(closure) <= target, (f, c)
        if len(closure) == target:
            assert not inert & closure, (f, c)
            return closure


def conductor_padic(f) -> int:
    """Conductor as the product of the primes of sqrt(disc f) that
    splitting_type_padic, by root lifting in Z_p and in the unramified cubic
    extension, finds ramified."""
    if not is_cyclic(f):
        raise ValueError(f"{f} is not cyclic")
    c = 1
    for p, _e in factorize(math.isqrt(discriminant(f))):
        if splitting_type_padic(f, p) is SplittingType.RAMIFIED:
            if p == 3 or p % 3 != 1:
                raise InconsistencyError(
                    f"ramified prime {p} of {f} is not 1 mod 3 (wild or misclassified)")
            c *= p
    return c


def omega_mod_pi(p: int) -> int:
    """w mod pi_p as a residue mod p, for pi_p = x + y w = _cornacchia(p):
    x + y w = 0 mod pi_p gives w = -x / y."""
    x, y = _cornacchia(p)
    return -x * pow(y, -1, p) % p


def _index(x: int, p: int, zeta: int) -> int:
    """k in {0, 1, 2} with (x/pi_p)_3 = w^k, read off x^((p-1)/3) = zeta^k
    mod p, where pi_p = _cornacchia(p) is the primary prime that normalizes
    `FieldClass` and zeta = omega_mod_pi(p)."""
    r = pow(x, (p - 1) // 3, p)
    return 0 if r == 1 else 1 if r == zeta else 2


def cubic_character(f, conductor: int | None = None,
                    max_prime: int = 10**6) -> tuple[int, ...]:
    """Exponents (1, e_2, ..., e_k) of the cubic character of the root field,
    in the normalization of `FieldClass`, by a search over primes.

    A prime q not dividing c splits exactly when sum e_i _index(q, p_i) = 0
    mod 3.  Primes are classified by splitting_type_padic in increasing
    order and each one filters the 2^(k-1) candidates; the search stops once
    a single candidate is left and at least one prime has split.  A ramified
    q, or a prime no candidate matches, is an inconsistency; running past
    max_prime is a RuntimeError.
    """
    c = conductor_padic(f) if conductor is None else conductor
    fac = list(factorize(c))
    if not fac or any(p % 3 != 1 or e != 1 for p, e in fac):
        raise InconsistencyError(
            f"{c} is not the conductor of a tame cyclic cubic field")
    ps = [p for p, _ in fac]
    zetas = [omega_mod_pi(p) for p in ps]
    candidates = [(1, *es) for es in itertools.product((1, 2), repeat=len(ps) - 1)]
    seen_split = False
    for q in primes():
        if seen_split and len(candidates) == 1:
            return candidates[0]
        if q > max_prime:
            raise RuntimeError(
                f"prime bound {max_prime} exhausted keying {f} (conductor {c}, "
                f"{len(candidates)} candidate characters left)")
        if c % q == 0:
            continue
        kind = splitting_type_padic(f, q)
        if kind is SplittingType.RAMIFIED:
            raise InconsistencyError(f"{q} ramified but coprime to conductor {c}")
        split = kind is SplittingType.SPLIT
        seen_split |= split
        ind = [_index(q, p, z) for p, z in zip(ps, zetas)]
        candidates = [es for es in candidates
                      if (sum(e * i for e, i in zip(es, ind)) % 3 == 0) == split]
        if not candidates:
            raise InconsistencyError(
                f"no cubic character mod {c} matches the {kind.value} prime {q} of {f}")


def field_class_oracle(f):
    """The FieldClass of f by p-adic lifting and the prime search, sharing
    nothing with the valuations of alpha."""
    c = conductor_padic(f)
    return FieldClass(c, cubic_character(f, c))


def _square_disc_bs(a: int) -> list[int]:
    """The b of enumeration.classified_polys_for_a(a), ascending: the fast
    path, which lists only the cyclic (irreducible) cubics."""
    return sorted(f.b for f, _k in classified_polys_for_a(a))


@functools.lru_cache(maxsize=None)
def factor_row_powers(p: int, e: int) -> tuple:
    """row[r] holds pi^j conj(pi)^(3e-j) for the j = r (mod 3) in 0 .. 3e,
    pi = _cornacchia(p), each the product of two powers: 6e + 1 products."""
    pi = _cornacchia(p)
    pows = [(1, 0)]
    for _ in range(3 * e):
        pows.append(_mul(pows[-1], pi))
    factors = tuple(_mul(pows[j], _conj(pows[3 * e - j]))
                    for j in range(3 * e + 1))
    return factors[0::3], factors[1::3], factors[2::3]


def square_disc_alphas_keyed(a: int, k: FieldClass | None = None):
    """(b, k) for each cyclic t^3 - t^2 + a t + b, by the recursive walk over
    the residue patterns j_i mod 3 at the split primes of h = 1 - 3a (see
    enumeration.classified_polys_for_a); given a key k, only k's pattern: e_p
    at each p | c and 0 at the other split primes, and no cubics when c is
    not the product of len(character) split primes of h."""
    if a > 0:
        raise ValueError(f"enumeration requires a <= 0, got a = {a}")
    h = 1 - 3 * a
    rational = -1
    rows = []
    for p, e in factorize(h):
        if p % 3 == 2:
            if e % 2:
                return
            rational *= (-p) ** (3 * e // 2)
        else:
            rows.append((p, factor_row_powers(p, e)))
    if k is not None:
        ps = [p for p, _ in rows if k.conductor % p == 0]
        if math.prod(ps) != k.conductor or len(ps) != len(k.character):
            return
        fixed = dict(zip(ps, k.character))
    last = len(rows) - 1
    four_h3 = 4 * h**3

    def walk(i: int, alphas: list, c: int, es: tuple):
        if i > last:
            key = FieldClass(c, es)
            for x, y in alphas:
                q = 2 * x - y
                b, off = divmod(q - 9 * a + 2, 27)
                if off or q * q >= four_h3:
                    raise InconsistencyError(f"alpha = {x} + {y}w fails at a = {a}")
                yield b, key
            return
        p, row = rows[i]  # r = 2 before any nonzero r: the conjugate of r = 1
        for r in ((fixed.get(p, 0),) if k is not None else (0, 1, 2) if es
                  else (0, 1) if i < last else (1,)):
            yield from walk(i + 1, [_mul(x, f) for x in alphas for f in row[r]],
                            c * p if r else c, (*es, r) if r else es)

    if rows:
        yield from walk(0, [(rational, 0)], 1, ())


def members_keyed(k: FieldClass, a: int) -> tuple[TraceOnePoly, ...]:
    """The cubics at a with root field k, ascending in b, by the keyed walk."""
    return tuple(TraceOnePoly(a, b)
                 for b in sorted(b for b, _k in square_disc_alphas_keyed(a, k)))


def b_range(a: int) -> range:
    """Exactly the integers b with disc(t^3 - t^2 + a t + b) > 0.

    The discriminant is quadratic in b with negative leading coefficient, so
    the solution set is an open interval; disc = 0 endpoints are excluded.
    """
    if a > 0:
        raise ValueError(f"enumeration requires a <= 0, got a = {a}")
    B = 4 - 18 * a
    C = a * a - 4 * a**3
    delta = B * B + 108 * C  # equals 16 (1-3a)^3 > 0
    s = math.isqrt(delta)
    lo = (B - s) // 54 - 1
    hi = (B + s) // 54 + 1
    while lo <= hi and -27 * lo * lo + B * lo + C <= 0:
        lo += 1
    while hi >= lo and -27 * hi * hi + B * hi + C <= 0:
        hi -= 1
    if lo > hi:
        return range(0, 0)
    return range(lo, hi + 1)


@functools.lru_cache(maxsize=None)
def square_disc_bs_scan(a: int) -> tuple[int, ...]:
    """b values in b_range(a) whose discriminant is a perfect square,
    reducible cubics included, ascending, by testing every b (residue classes
    mod _SCAN_MODULUS that cannot hold a square are skipped whole).  Cached:
    several tests scan the same range of a, and the scan is their cost."""
    rng = b_range(a)
    B = 4 - 18 * a
    C = a * a - 4 * a**3
    out = []
    for r in range(_SCAN_MODULUS):
        if ((-27 * r + B) * r + C) % _SCAN_MODULUS not in _SCAN_SQUARES:
            continue
        for b in range(rng.start + (r - rng.start) % _SCAN_MODULUS, rng.stop,
                       _SCAN_MODULUS):
            d = (-27 * b + B) * b + C
            if math.isqrt(d) ** 2 == d:
                out.append(b)
    return tuple(sorted(out))


def lift_root_zp_bfs(f, p: int) -> bool:
    """Whether f has a root in Z_p, by breadth-first lifting of the root set
    mod p^k for k = 1 .. 2d+1 with d = v_p(disc f): a survivor mod p^{2d+1}
    has derivative valuation <= d, so Hensel's lemma certifies a true root.
    Branches p ways on a multiple root, so keep p small."""
    d = valuation(discriminant(f), p)
    roots = sorted(roots_mod_p(f, p))
    for k in range(1, 2 * d + 1):
        if not roots:
            return False
        pk = p**k
        nxt = set()
        for r in roots:
            # Hensel early exit: v(f(r)) >= k > 2 v(f'(r)) certifies a root
            fpr = f.derivative(r)
            v = min(valuation(fpr, p), k) if fpr else k
            if 2 * v < k:
                return True
            u = (f(r) // pk) % p
            alpha = fpr % p
            if alpha:
                t = -u * pow(alpha, -1, p) % p
                nxt.add(r + t * pk)
            elif u == 0:
                nxt.update(r + t * pk for t in range(p))
        if len(nxt) > _LIFT_SET_CAP:
            raise InconsistencyError(f"root set mod {p}^{k + 1} exceeded cap")
        roots = sorted(nxt)
    return bool(roots)
