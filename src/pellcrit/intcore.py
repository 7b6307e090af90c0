"""Exact integer arithmetic: primality, factorization, modular square roots.

Everything here works on arbitrary-precision Python ints; nothing is
floating point.  Deterministic for the sizes this package cares about
(fundamental Pell solutions get huge, but the numbers we factor or test
for primality stay at desk scale).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

isqrt = math.isqrt


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0")
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(limit + 1) if flags[i]]


_SMALL_PRIMES = _sieve(2000)
_SMALL_SET = set(_SMALL_PRIMES)

# Graded strong-pseudoprime witnesses (Jaeschke 1993; OEIS A014233): psi_k,
# the least strong pseudoprime to the first k prime bases, is the bound below
# which those k bases decide primality.  A row is dropped when psi_k equals
# psi_(k-1): fewer bases cover the same bound (psi_7 = psi_8,
# psi_9 = psi_10 = psi_11).
_MR_WITNESSES = tuple(
    (psi, tuple(_SMALL_PRIMES[:k]))
    for psi, k in (
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (318_665_857_834_031_151_167_461, 12),
        (3_317_044_064_679_887_385_961_981, 13),
    )
)
# Beyond psi_13, a fixed wider base set keeps results reproducible.
_MR_EXTRA = tuple(p for p in _SMALL_PRIMES[:50])


def _strong_probable_prime(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test for n >= 1."""
    if n < 1:
        raise ValueError("is_prime requires n >= 1")
    if n < 4:
        return n != 1
    if n % 2 == 0:
        return False
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_SET
    for p in _SMALL_PRIMES[:40]:
        if n % p == 0:
            return False
    for psi, bases in _MR_WITNESSES:
        if n < psi:
            break
    else:
        bases = _MR_EXTRA
    return all(_strong_probable_prime(n, b) for b in bases)


class Factorization(namedtuple("Factorization", "sign factors")):
    """Signed prime-power decomposition sign * prod p_i^e_i, primes increasing."""

    __slots__ = ()

    def __new__(cls, sign: int, factors: tuple[tuple[int, int], ...]):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        primes = [p for p, _ in factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("primes must be strictly increasing")
        for p, e in factors:
            if e < 1 or not is_prime(p):
                raise ValueError(f"bad factor {p}^{e}")
        return super().__new__(cls, sign, factors)

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def _pollard_brent(n: int) -> int:
    # Brent's cycle variant; deterministic parameter sweep keeps runs repeatable.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor search failed for {n}")


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


# bounded: the key is n itself, so an unbounded memo would grow with every
# new n of a long scan
@lru_cache(maxsize=4096)
def factor(n: int) -> Factorization:
    """Full factorization of a nonzero integer (memoized; the result is frozen)."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if p * p > n > 1:
        out[n] = 1  # no prime below p divides n, so n is prime
    elif n > 1:
        _factor_into(n, out)
    # every prime was proven above; _make skips the constructor's re-check
    return Factorization._make((sign, tuple(sorted(out.items()))))


def sqrt_mod(a: int, p: int) -> int | None:
    """Square root of a mod an odd prime p, normalized to 0 <= r <= (p-1)/2.

    Returns None when a is a non-residue.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def sqrt_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    """All solutions of x^2 = a mod p^k, for p prime, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pk = p**k
    a %= pk
    if a == 0:
        step = p ** ((k + 1) // 2)
        return list(range(0, pk, step))
    v = valuation(a, p)
    aa = a // p**v
    if v % 2 == 1:
        return []
    if v == 0:
        r = lift_unit_sqrt(a, p, k)
        if r is None:
            return []
        if p == 2 and k > 2:
            return sorted({r, pk - r, (r + pk // 2) % pk, (pk // 2 - r) % pk})
        return sorted({r, pk - r})
    half = p ** (v // 2)
    sub = sqrt_mod_prime_power(aa, p, k - v)
    roots = set()
    period = p ** (k - v // 2)
    for r in sub:
        base = (half * r) % period
        for t in range(0, pk // period):
            roots.add((base + t * period) % pk)
    return sorted(roots)


def lift_unit_sqrt(a: int, p: int, k: int) -> int | None:
    """One square root of the unit a mod p^k, or None when a is no square.

    For odd p this is the Newton lift of sqrt_mod's normalized root mod p;
    for p = 2 it is the bit-by-bit lift from 1.  Callers rely on that exact
    root: the order of the two split places over p follows from it.
    """
    if p == 2:
        if a % (1 << min(k, 3)) != 1:
            return None
        r = 1
        for j in range(3, k):
            if (r * r - a) % (1 << (j + 1)):
                r += 1 << (j - 1)
        return r % (1 << k)
    r = sqrt_mod(a, p)
    if r is None:
        return None
    if r == 0:
        raise ValueError(f"{a} is not a unit mod {p}")
    pk, mod = p**k, p
    while mod < pk:
        # Newton step r <- r - (r^2 - a)/(2r), doubling the precision
        mod = min(mod * mod, pk)
        r = (r - (r * r - a) * pow(2 * r, -1, mod)) % mod
    return r


def two_adic_layer(D: int, n: int) -> int | None:
    """A t such that x^2 - D y^2 = n has a Z_2 solution with v2(y) = t.

    None when there is no Z_2 solution (D, n nonzero).  Closed form in
    O(v2(n) + v2(D)) steps.  Write D = 2^a d with d odd.  The odd squares of
    Z_2 are exactly 1 + 8 Z_2, so for v2(y) = t the values D y^2 fill exactly
    the coset 2^m d + 2^(m+3) Z_2 with m = a + 2t, and a solution with
    v2(y) = t exists iff n + 2^m d + 2^(m+3) Z_2 contains a square.  That
    coset's elements share one valuation v (unless it contains 0), and it
    holds a square iff v is even and its unit part is 1 mod 2^min(3, m+3-v).
    Once m >= v2(n) + 3 the coset test is the test that n is a square: when
    n is one, t is the first such layer; otherwise only m = a, a + 2, ...
    below v2(n) + 3 need checking, and t is the first that passes.
    """
    if D == 0 or n == 0:
        raise ValueError("D and n must be nonzero")
    a = valuation(D, 2)
    return _two_adic_layer(a, D >> a, n)


def _two_adic_layer(a: int, d: int, n: int) -> int | None:
    # two_adic_layer's closed form for D = 2^a d, d odd
    s = valuation(n, 2)
    if s % 2 == 0 and (n >> s) % 8 == 1:
        return max(0, (s + 4 - a) // 2)
    for m in range(a, s + 3, 2):
        c = n + (d << m)
        if c % (8 << m) == 0:
            return (m - a) // 2
        v = valuation(c, 2)
        if v % 2 == 0 and (c >> v) % (1 << min(3, m + 3 - v)) == 1:
            return (m - a) // 2
    return None


# bounded: one entry per 2-adic square-class key (v2(D), D's odd part mod 8,
# v2(n), n's odd part mod 8), which ranges only as widely as the valuations
@lru_cache(maxsize=4096)
def _two_adic_ok(a: int, d8: int, s: int, u8: int) -> bool:
    # Z_2-solvability of x^2 - D y^2 = n for D = 2^a d, n = 2^s u, given
    # d8 = d mod 8 and u8 = u mod 8: the representatives d8 and u8 2^s are
    # D and n times unit squares, and scaling D or n by a unit square w^2
    # maps Z_2-points to Z_2-points
    return _two_adic_layer(a, d8, u8 << s) is not None


def local_solvable(D: int, n: int, l: int) -> bool:
    """True iff x^2 - D y^2 = n has a solution in Z_l x Z_l."""
    if n == 0:
        raise ValueError("n must be nonzero")
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if l != 2:
        return _odd_solvable(D, n, l, valuation(n, l))
    if D == 0:
        raise ValueError("D and n must be nonzero")
    a, s = valuation(D, 2), valuation(n, 2)
    return _two_adic_ok(a, (D >> a) & 7, s, (n >> s) & 7)


def _odd_solvable(D: int, n: int, l: int, e: int) -> bool:
    # local_solvable at an odd prime l, given e = v_l(n)
    while D % l == 0:
        if e == 0 or D % (l * l):
            # n is a unit, or l exactly divides D: n = l^(2k) m, m a unit or l times a unit
            m = n // l ** (e - e % 2)
            return pow(-(m // l) * (D // l) if e % 2 else m, l >> 1, l) == 1
        if e == 1:
            return False
        # x must be divisible by l; descend to the reduced equation
        D, n, e = D // (l * l), n // (l * l), e - 2
    # Euler's criterion for the unit D, then the parity of v_l(n)
    return e % 2 == 0 or pow(D, l >> 1, l) == 1


# the local scan's per-D plan: D's odd primes, v2(D) and its odd part mod 8;
# bounded like factor's memo
@lru_cache(maxsize=4096)
def _d_parts(D: int) -> tuple[tuple[int, ...], int, int]:
    odd = tuple(p for p, _ in factor(D).factors if p != 2)
    a = valuation(D, 2)
    return odd, a, (D >> a) & 7


def local_obstruction_anywhere(D: int, n: int) -> int | None:
    """The first prime l with no Z_l-point of x^2 - D y^2 = n, or None.

    D's odd primes, then 2, then the odd primes of n prime to D, so each
    prime of 2Dn is tested once, by a per-D plan (D's odd primes, v2(D) and
    its odd part mod 8).  The unit cases are Euler's criterion: n a square
    mod an odd l | D prime to n, whatever the power of l in D, and D a
    square mod an odd prime of n prime to D with v_l(n) odd; only an l
    dividing D and n reaches ``_odd_solvable``'s descent.  At 2 the test is
    a lookup: a Z_2-point depends only on the square classes of D and n in
    Q_2*/Q_2*^2, which v2 and the odd part mod 8 fix, since the odd squares
    of Z_2 are 1 + 8 Z_2 and scaling D or n by a unit square w^2 maps
    Z_2-points to Z_2-points; ``_two_adic_ok`` keeps the closed form's
    verdict per (v2(D), d mod 8, v2(n), u mod 8).  |n| is factored only
    once D's primes and 2 pass, through ``factor``'s memo; no prime is
    proven again: the factorization proved them when built.
    """
    odd, a, d8 = _d_parts(D)
    for l in odd:
        r = n % l
        if (pow(r, l >> 1, l) != 1) if r else not _odd_solvable(D, n, l, valuation(n, l)):
            return l
    s = valuation(n, 2)
    if not _two_adic_ok(a, d8, s, (n >> s) & 7):
        return 2
    for l, e in factor(abs(n)).factors:
        if e & 1 and l != 2 and D % l and pow(D % l, l >> 1, l) != 1:
            return l
    return None


def sqrt_mod_factored(a: int, factors) -> list[int]:
    """All x in [0, m) with x^2 = a mod m, for m = prod p^e given as (p, e) pairs.

    The roots mod each p^e are combined through the CRT idempotents of m;
    the list is empty when some p^e admits no root, and [0] when m = 1.
    Both parts come from bounded memos that every modulus shares: the roots
    keyed by (a mod p^e, p, e), whatever m they serve, and the idempotents
    keyed by the factorization.
    """
    factors = tuple(factors)
    m, idems = _crt_idempotents(factors)
    roots = [0]
    for (p, e), (q, idem) in zip(factors, idems):
        rs = _prime_power_roots(a % q, p, e)
        if not rs:
            return []
        roots = [(r + s * idem) % m for r in roots for s in rs]
    return sorted(roots)


# bounded: the key ranges over the residues mod each prime power that the
# moduli of a run contain, so an unbounded memo grows with the moduli
@lru_cache(maxsize=4096)
def _prime_power_roots(a: int, p: int, e: int) -> tuple[int, ...]:
    return tuple(sqrt_mod_prime_power(a, p, e))


# bounded like ``factor``'s memo: one entry per factored modulus m
@lru_cache(maxsize=4096)
def _crt_idempotents(factors: tuple[tuple[int, int], ...]):
    # m, and per prime power q = p^e of m the pair (q, idempotent), the
    # idempotent 1 mod q and 0 mod every other prime power of m
    qs = [p**e for p, e in factors]
    m = math.prod(qs)
    return m, tuple((q, m // q * pow(m // q, -1, q)) for q in qs)


def cornacchia(d: int, m: int) -> list[tuple[int, int]]:
    """Every primitive a^2 + d b^2 = m with a, b >= 0, for d >= 1 and m >= 2.

    Cornacchia's descent: Euclid's algorithm on (m, t), for each square root
    t of -d mod m, stops at the first remainder a with a^2 < m, and a
    primitive solution is (a, b) when (m - a^2) / d is a square b^2.  Every
    primitive solution arises from some root, for d = 1 as one of (a, b) and
    (b, a); the list follows the order of the roots.
    """
    out: list[tuple[int, int]] = []
    for t in sqrt_mod_factored(-d, factor(m).factors):
        r0, r1 = m, t
        while r1 * r1 > m:
            r0, r1 = r1, r0 % r1
        rem = m - r1 * r1
        if rem % d == 0 and is_square(rem // d):
            rep = (r1, isqrt(rem // d))
            if math.gcd(*rep) == 1 and rep not in out:
                out.append(rep)
    return out


def two_squares_prime(p: int) -> tuple[int, int]:
    """Write a prime p = 1 mod 4 as a^2 + b^2 with a odd > 0, b even > 0."""
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a prime = 1 mod 4")
    for a, b in cornacchia(1, p):
        return (a, b) if a % 2 else (b, a)
    raise ArithmeticError(f"Euclid's descent failed to write {p} as a sum of two squares")
