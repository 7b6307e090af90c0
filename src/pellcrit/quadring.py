"""Data about Q(sqrt(D)) and the order Z[sqrt(D)].

Splitting of rational primes, sums of two squares, and the auxiliary
"twist point" (x0, y0, z0) solving x0^2 - D y0^2 = ell z0^2 whose element
x0 - y0 sqrt(D) generates the quadratic extension used by the
two-character solvability criteria.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .intcore import cornacchia, factor, isqrt, is_square
from .pellsolver import minimal_solutions

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

FAMILY_PQ = "pq"
FAMILY_2D = "2d"
FAMILY_OTHER = "other"


class QuadOrderInfo(namedtuple("QuadOrderInfo", "D discriminant family primes")):
    """Shape of the order Z[sqrt(D)] relevant to the criteria."""

    __slots__ = ()
    D: int
    discriminant: int
    family: str
    primes: tuple[int, ...]  # (p, q) for pq; prime divisors of d for 2d


def classify_order(D: int) -> QuadOrderInfo:
    if D <= 0 or is_square(D):
        raise ValueError(f"D must be a positive non-square, got {D}")
    fac = factor(D)
    ps = fac.primes()
    if (
        len(ps) == 2
        and fac.factors[0][1] == 1
        and fac.factors[1][1] == 1
        and ps[0] % 4 == 1
        and ps[1] % 4 == 1
    ):
        return QuadOrderInfo(D, 4 * D, FAMILY_PQ, ps)
    if D % 2 == 0:
        d = D // 2
        dfac = factor(d)
        if d % 2 == 1 and all(e == 1 for _, e in dfac.factors) and all(
            p % 8 == 1 for p in dfac.primes()
        ):
            return QuadOrderInfo(D, 4 * D, FAMILY_2D, dfac.primes())
    return QuadOrderInfo(D, 4 * D, FAMILY_OTHER, ())


def splitting_type(D: int, l: int) -> str:
    """Behavior of the prime l in the order Z[sqrt(D)]."""
    if l == 2:
        r = D % 8
        if r == 1:
            return SPLIT
        if r == 5:
            return INERT
        return RAMIFIED
    if D % l == 0:
        return RAMIFIED
    t = pow(D % l, (l - 1) // 2, l)
    return SPLIT if t == 1 else INERT


def two_squares_all(m: int) -> list[tuple[int, int]]:
    """All primitive m = r^2 + s^2 up to order and sign, as r >= s > 0 pairs.

    Empty when m has a prime factor = 3 mod 4 or is divisible by 4.  For
    m = 2 the pair is (1, 1).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    return sorted({(max(a, b), min(a, b)) for a, b in cornacchia(1, m)})


class TwistPoint(namedtuple("TwistPoint", "x0 y0 z0 ell D")):
    """Solution (x0, y0, z0) of x0^2 - D y0^2 = ell z0^2, x0 > 0, gcd(x0, y0) = 1.

    The element x0 - y0 sqrt(D) is totally positive and generates the
    quadratic extension whose Artin character supplements the class group.
    """

    __slots__ = ()

    def __new__(cls, x0: int, y0: int, z0: int, ell: int, D: int):
        if x0 * x0 - D * y0 * y0 != ell * z0 * z0:
            raise ValueError("not a twist point")
        if x0 <= 0 or math.gcd(x0, y0) != 1:
            raise ValueError("twist point must have x0 > 0, gcd(x0, y0) = 1")
        return super().__new__(cls, x0, y0, z0, ell, D)

    def element(self) -> tuple[int, int]:
        """Coordinates of x0 - y0 sqrt(D)."""
        return (self.x0, -self.y0)

    def norm(self) -> int:
        return self.ell * self.z0 * self.z0


def twist_point_candidates(D: int, ell: int):
    """Yield twist points in lexicographic (z0, y0, x0) order."""
    for z in range(1, isqrt(D) + 3):
        hits = []
        for x, y in minimal_solutions(D, ell * z * z):
            if x > 0 and math.gcd(x, y) == 1:
                hits.append((y, x))
        for y, x in sorted(hits):
            yield TwistPoint(x, y, z, ell, D)


def find_twist_point(D: int, ell: int) -> TwistPoint:
    """Lexicographically minimal twist point for (D, ell)."""
    for tp in twist_point_candidates(D, ell):
        return tp
    raise ValueError(f"no solution of x^2 - {D} y^2 = {ell} z^2 within bound")
