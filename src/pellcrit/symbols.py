"""Residue and Hilbert symbols over Q and its completions.

Covers the Jacobi symbol, rational quartic residue symbols computed by the
Euler criterion, Burde's rational quartic reciprocity product, and the
quadratic Hilbert symbol (a, b)_l for l a prime or the real place.
"""

from __future__ import annotations

from .intcore import factor, is_prime, two_squares_prime, valuation

# Distinguished token for the archimedean place (never a pseudo-prime).
REAL = "real"


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd positive m; 0 when gcd(a, m) > 1."""
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"modulus must be odd positive, got {m}")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def quartic_residue(a: int, p: int) -> int:
    """Quartic residue symbol (a/p)_4 in {+1, -1} via a^((p-1)/4) mod p.

    Defined only for p prime = 1 mod 4 with (a/p) = +1.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a prime = 1 mod 4")
    # t^2 = a^((p-1)/2) is 1 iff (a/p) = 1; otherwise t is 0 (p | a) or a
    # square root of -1
    t = pow(a, (p - 1) // 4, p)
    if t == 1:
        return 1
    if t == p - 1:
        return -1
    raise ValueError(f"({a}/{p}) != 1, quartic symbol undefined")


def quartic_2_of_d(d: int) -> int:
    """(2/d)_4 = prod over p^e || d of (2/p)_4^e, all p = 1 mod 8, d > 0."""
    fac = factor(d)
    if fac.sign != 1:
        raise ValueError("d must be positive")
    out = 1
    for p, e in fac.factors:
        if p % 8 != 1:
            raise ValueError(f"prime {p} of d is not 1 mod 8")
        if e % 2 == 1:
            out *= quartic_residue(2, p)
    return out


def burde_product(p: int, q: int) -> int:
    """(p/q)_4 (q/p)_4 by Burde's rational formula.

    Uses p = a^2 + b^2, q = c^2 + d^2 with a, c odd positive and b, d even
    positive; the value is (-1)^((p-1)/4) * ((ad - bc)/p).
    """
    if p == q:
        raise ValueError("p and q must be distinct")
    for r in (p, q):
        if r % 4 != 1 or not is_prime(r):
            raise ValueError(f"{r} is not a prime = 1 mod 4")
    if jacobi(q, p) != 1:
        raise ValueError(f"({q}/{p}) != 1, Burde product undefined")
    a, b = two_squares_prime(p)
    c, d = two_squares_prime(q)
    sign = -1 if ((p - 1) // 4) % 2 else 1
    return sign * jacobi(a * d - b * c, p)


def hilbert_q(a: int, b: int, l) -> int:
    """Quadratic Hilbert symbol (a, b)_l over Q_l, or over R for l = REAL.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution in the completion.
    """
    if not isinstance(a, int) or not isinstance(b, int):
        raise TypeError(f"Hilbert symbol arguments must be integers, got {a!r}, {b!r}")
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    if l == REAL:
        return -1 if (a < 0 and b < 0) else 1
    if not isinstance(l, int) or not is_prime(l):
        raise ValueError(f"{l} is not a prime or the real place")
    alpha, beta = valuation(a, l), valuation(b, l)
    return hilbert_q_parts(l, alpha, a // l**alpha, beta, b // l**beta)


def hilbert_q_parts(l: int, alpha: int, u: int, beta: int, w: int) -> int:
    """(l^alpha u, l^beta w)_l over Q_l for units u, w and a prime l."""
    if l == 2:
        eps_u = ((u - 1) // 2) & 1
        eps_w = ((w - 1) // 2) & 1
        om_u = ((u * u - 1) // 8) & 1
        om_w = ((w * w - 1) // 8) & 1
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e & 1 else 1
    s = 1
    if (alpha & 1) and (beta & 1) and (l - 1) // 2 % 2 == 1:
        s = -s
    if beta & 1:
        s *= jacobi(u, l)
    if alpha & 1:
        s *= jacobi(w, l)
    return s
