"""Independent check of a local-obstruction certificate.

``no_local_point(D, n, l)`` is True only when x^2 - D y^2 = n has no point
in Z_l x Z_l.  It is the check that ``pellsolver.solve`` runs on the prime
that the local test names before it returns an unsolvable verdict with no
search, so it shares no code with the deciders: it imports nothing from
pellcrit, and it proves l prime, takes valuations and decides the local
question with code of its own.

* Primality: the strong-pseudoprime test to the first k prime bases, with
  k graded by the size of l (Jaeschke 1993; OEIS A014233), so that an l
  below 2,047 costs one modular power.  Above 3.3 * 10^24 no set of prime
  bases is proven to suffice; there the first 50 primes serve as bases,
  which makes the check a probable-prime test for such l.
* An odd l, by Euler's criterion (a unit a is a square mod l iff
  a^((l-1)/2) = 1 mod l, and then a square in Z_l by Hensel), with
  n = l^e u, u a unit:
  - l prime to D: a point exists iff e is even or D is a square mod l, as
    the norms of the unramified extension have even valuation;
  - l exactly dividing D: write n = l^(2k) m, m a unit or l times a unit.
    A point forces l^k | x and l^k | y, and then m a square mod l, or,
    for l | m, -(m/l)(D/l) a square mod l;
  - l^2 dividing D: for e = 0, n must be a square mod l; for e = 1 there
    is no point, since l | x makes the left side divisible by l^2; for
    e >= 2, l | x and the equation descends to
    x'^2 - (D/l^2) y^2 = n/l^2.
* l = 2: write D = 2^a d, d odd.  The odd squares of Z_2 are exactly
  1 + 8 Z_2, so for y with v2(y) = t the values D y^2 fill the coset
  2^m d + 2^(m+3) Z_2, m = a + 2t, and x^2 = n + D y^2 has a solution iff
  the coset n + 2^m d + 2^(m+3) Z_2 holds a square, or, for y = 0, n is a
  square.  A coset c + 2^k Z_2 holds a square iff 2^k | c, or v = v2(c)
  is even and c / 2^v = 1 mod 2^min(3, k - v).  From m >= v2(n) + 3 on,
  every coset holds a square iff n is one, so the test that n is a square
  (v2(n) even, odd part 1 mod 8) and the layers m = a, a + 2, ... below
  v2(n) + 3 settle it.
"""

from __future__ import annotations

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
           73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
           157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229)
_SMALL = frozenset(_PRIMES)

# (psi_k, k): the first k prime bases decide primality below psi_k, the
# least strong pseudoprime to all of them
_GRADES = ((2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
           (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
           (3_825_123_056_546_413_051, 9), (318_665_857_834_031_151_167_461, 12),
           (3_317_044_064_679_887_385_961_981, 13))


def _val(n: int, p: int) -> int:
    # exponent of p in the nonzero integer n
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_prime(l: int) -> bool:
    if l <= _PRIMES[-1]:
        return l in _SMALL
    if l % 2 == 0:
        return False
    k = len(_PRIMES)
    for psi, grade in _GRADES:
        if l < psi:
            k = grade
            break
    d, r = l - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _PRIMES[:k]:
        x = pow(base, d, l)
        if x == 1 or x == l - 1:
            continue
        for _ in range(r - 1):
            x = x * x % l
            if x == l - 1:
                break
        else:
            return False
    return True


def _no_odd_point(D: int, n: int, l: int) -> bool:
    # Euler's criterion, pow(a, l >> 1, l) == 1, for each unit a tested
    e = _val(n, l)
    while D % l == 0:
        if D % (l * l):
            m = n // l ** (e - e % 2)
            return pow(-(m // l) * (D // l) if e % 2 else m, l >> 1, l) != 1
        if e < 2:
            # for e = 1, where there is no point, l | n makes the power 0
            return pow(n, l >> 1, l) != 1
        D, n, e = D // (l * l), n // (l * l), e - 2
    return e % 2 == 1 and pow(D, l >> 1, l) != 1


def _no_two_adic_point(D: int, n: int) -> bool:
    # y = 0 when n is a square, else the layers m = a, a + 2, ... below
    # v2(n) + 3, each coset c + 2^k Z_2, k = m + 3, tested as in the module
    # docstring
    a = (D & -D).bit_length() - 1
    d, s = D >> a, (n & -n).bit_length() - 1
    if s % 2 == 0 and (n >> s) % 8 == 1:
        return False
    for m in range(a, s + 3, 2):
        c, k = n + (d << m), m + 3
        if c % (1 << k) == 0:
            return False
        v = (c & -c).bit_length() - 1
        if v % 2 == 0 and (c >> v) % (1 << min(3, k - v)) == 1:
            return False
    return True


def no_local_point(D: int, n: int, l: int) -> bool:
    """True only when l is prime and x^2 - D y^2 = n has no Z_l-point.

    False whenever a Z_l-point exists, when l is not prime, and when D or n
    is 0 (no certificate is checked there).  The module docstring gives the
    tests and why they settle the question.
    """
    if D == 0 or n == 0 or not _is_prime(l):
        return False
    return _no_two_adic_point(D, n) if l == 2 else _no_odd_point(D, n, l)
