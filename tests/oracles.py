"""Slow reference algorithms that the fast paths in `cubictrace` are checked
against."""

import math

from cubictrace.arith import factorize, primes
from cubictrace.padic import SplittingType, splitting_type


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


def split_prime_closure(f, c: int) -> set[int]:
    """The splitting subgroup of f mod its conductor c: the closure of the
    residues of split primes, taken in increasing order until it has index 3
    in (Z/c)*.  Inert residues must stay outside it."""
    target = euler_phi(c) // 3
    gens, inert = set(), set()
    for p in primes():
        if c % p == 0:
            continue
        kind = splitting_type(f, p)
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
