"""Local computations at the completions of E = Q(sqrt(D)).

Z_l-points of x^2 - D y^2 = n (the solvability test is
intcore.local_solvable, re-exported here), square classes of 2-adic
numbers, quadratic Hilbert symbols over the completions E_v (including the
wild quadratic extensions of Q_2) and the norm-class character table of
the auxiliary quadratic extension.

Every symbol is computed on integers.  At a split place E_v is Q_l: an
element is reduced to its valuation and its unit part under the place's
root, and the Q_l formula hilbert_q_parts pairs two of them.  At a
nonsplit place, over 2 or an odd l, the symbol over E_v is a product of
two symbols over Q_l (the proof is in hilbert_ev).  2-adic points come
from the coset that the closed form of intcore.two_adic_layer names:
y = 2^t w with w^2 = 1 + 8r, then a square root for x.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .intcore import (
    lift_unit_sqrt,
    local_solvable,
    sqrt_mod,
    two_adic_layer,
    valuation,
)
from .symbols import hilbert_q, hilbert_q_parts, jacobi
from .quadring import (
    FAMILY_2D,
    SPLIT,
    TwistPoint,
    classify_order,
    splitting_type,
)


# ---------------------------------------------------------------------------
# places


class Place(namedtuple("Place", "l kind D root prec", defaults=(None, 0))):
    """A place of E = Q(sqrt(D)).

    Split places carry the chosen square root of D mod l^prec, so the two
    conjugate places are distinguishable.
    """

    __slots__ = ()
    l: int
    kind: str
    D: int
    root: int | None
    prec: int


# the precision, as a power of l, of a split place's square root of D
_PLACE_PREC = 24


def places_over(D: int, l: int) -> tuple[Place, ...]:
    """The places of E over the rational prime l.

    An odd l with l^2 | D raises ValueError: the symbols take sqrt(D) as a
    uniformizer at every odd l | D, which it is not when l^2 | D.
    """
    if l != 2 and D % (l * l) == 0:
        raise ValueError(f"no place over {l} for D = {D}: {l}^2 divides D")
    st = splitting_type(D, l)
    if st == SPLIT:
        r = lift_unit_sqrt(D, l, _PLACE_PREC)
        return (
            Place(l, SPLIT, D, root=r, prec=_PLACE_PREC),
            Place(l, SPLIT, D, root=l**_PLACE_PREC - r, prec=_PLACE_PREC),
        )
    return (Place(l, st, D, prec=_PLACE_PREC),)


# ---------------------------------------------------------------------------
# square classes over Q_2


def square_class_2(u: int) -> tuple[int, int]:
    """(valuation parity, unit representative) of a nonzero integer in Q_2*.

    The representative is one of 1, -1, 5, -5 (units mod squares); together
    with the parity bit this names the square class among {±1, ±2, ±5, ±10}.
    """
    if u == 0:
        raise ValueError("square class of 0 undefined")
    v = valuation(u, 2)
    rep = {1: 1, 3: -5, 5: 5, 7: -1}[(u >> v) % 8]
    return (v & 1, rep)


# ---------------------------------------------------------------------------
# local points


class LocalPoint(namedtuple("LocalPoint", "l precision x y")):
    """Residues (x, y) mod l^precision with x^2 - D y^2 = n, Hensel-liftable."""

    __slots__ = ()
    l: int
    precision: int
    x: int
    y: int


def find_local_point(D: int, n: int, l: int, prec: int = 24) -> LocalPoint | None:
    """A Z_l-point of x^2 - D y^2 = n at the given precision, or None."""
    if l == 2:
        return _point_at_2(D, n, prec)
    if not local_solvable(D, n, l):
        return None
    mod = l**prec
    dv = valuation(D, l)
    nv = valuation(n, l)
    if dv >= 2 and nv >= 2:
        # l divides x: descend to x'^2 - (D/l^2) y^2 = n/l^2, as local_solvable does
        pt = find_local_point(D // (l * l), n // (l * l), l, prec)
        return LocalPoint(l, prec, pt.x * l % mod, pt.y)
    if dv == 0:
        if jacobi(D, l) == 1:
            r = lift_unit_sqrt(D, l, prec)
            inv2 = pow(2, -1, mod)
            x = (1 + n) * inv2 % mod
            y = (1 - n) * inv2 * pow(r, -1, mod) % mod
            return LocalPoint(l, prec, x, y)
        # inert: nv even; solve the unit layer mod l then lift
        half = l ** (nv // 2)
        m = n // l**nv
        for xr in range(l):
            yr = sqrt_mod((xr * xr - m) * pow(D, -1, l), l)
            if yr is None or xr == yr == 0:
                continue
            # xr is the least root of its square, so the lifted root is the one
            # congruent to xr; with x = 0, y is the lifted root congruent to yr
            if xr:
                x, y = lift_unit_sqrt((m + D * yr * yr) % mod, l, prec), yr
            else:
                x, y = 0, lift_unit_sqrt(-m * pow(D, -1, mod) % mod, l, prec)
            return LocalPoint(l, prec, x * half % mod, y * half % mod)
        return None
    # ramified odd prime
    scale = l ** (nv // 2) if nv % 2 == 0 else l ** ((nv - 1) // 2)
    m = n // scale**2
    if nv % 2 == 0:
        x = lift_unit_sqrt(m % mod, l, prec)
        return LocalPoint(l, prec, x * scale % mod, 0)
    # y^2 = -(m/l) / (D/l), a unit
    c2 = (-(m // l)) * pow(D // l, -1, mod) % mod
    y = lift_unit_sqrt(c2, l, prec)
    return LocalPoint(l, prec, 0, y * scale % mod)


def _point_at_2(D: int, n: int, prec: int) -> LocalPoint | None:
    # The closed form names t = v2(y) of a solution, so D y^2 runs through
    # D 4^t (1 + 8 Z_2).  Along y = 2^t w with w^2 = 1 + 8r, each step of r
    # moves n + D y^2 by 2^(a+2t+3) d (D = 2^a d), and r mod 16 reaches the
    # at most four further bits that the coset test leaves open, so
    # n + D y^2 is a square of Z_2 for some r < 16.
    t = two_adic_layer(D, n)
    if t is None:
        return None
    mod = 1 << prec
    for r in range(16):
        c = n + (D << 2 * t) * (1 + 8 * r)
        if c == 0:
            x = 0
        else:
            v = valuation(c, 2)
            if v % 2 or (c >> v) % 8 != 1:
                continue
            x = lift_unit_sqrt((c >> v) % mod, 2, prec) << (v // 2)
        w = lift_unit_sqrt(1 + 8 * r, 2, prec)
        return LocalPoint(2, prec, x % mod, (w << t) % mod)
    raise ArithmeticError(f"no 2-adic point in the layer v2(y) = {t} for D={D}, n={n}")


# ---------------------------------------------------------------------------
# Hilbert symbols over E_v


# bounded: as few D in use as class groups
@lru_cache(maxsize=128)
def two_adic_context(D: int) -> tuple[Place, ...]:
    """places_over(D, 2), kept per D for the twist symbol's factor at 2 and
    character_table."""
    return places_over(D, 2)


def _val_unit(x: int, y: int, place: Place) -> tuple[int, int]:
    """(v, c) for x + y sqrt(D), integers, at a split place.

    v is the valuation, and c the unit part mod l^k, k >= 4, of the image
    of x + y sqrt(D) in Q_l under the place's root.
    """
    # while the root's precision does not fix the valuation and unit, lift
    # the same root further
    l, D = place.l, place.D
    prec, root = place.prec, place.root
    while True:
        t = (x + y * root) % l**prec
        v = valuation(t, l) if t else prec
        if v <= prec - 4:
            return v, t // l**v
        prec = 2 * v + 8
        root = lift_unit_sqrt(D, l, prec)
        if (root - place.root) % l**place.prec:
            root = l**prec - root


def hilbert_ev(alpha, beta, place: Place) -> int:
    """Quadratic Hilbert symbol (alpha, beta) over E_v.

    Elements are integers or integer pairs (x, y) meaning x + y sqrt(D).
    A split place embeds E in Q_l by its root.  At a nonsplit place E_v is
    a quadratic field, and the symbol is two Hilbert symbols over Q_l.  Let
    alpha = a + b sqrt(D), beta = c + d sqrt(D), and N the norm to Q_l.

    * For r in Q_l, (r, beta)_v = (r, N beta)_l: by the projection formula
      the corestriction to Q_l takes (r, beta) to (r, N beta), and
      inv_v = inv_l o cor.  So b = 0 gives (a, N beta)_l, and by symmetry
      d = 0 gives (N alpha, c)_l.
    * Otherwise alpha = s + t beta with t = b/d and s = (ad - bc)/d.  If
      s = 0, then (alpha, beta)_v = (t, beta)_v (beta, -1)_v
      = (-t, N beta)_l, and -t is -bd up to squares.
    * If s != 0, let w = -t beta / s, so that 1 - w = alpha / s.  The
      Steinberg relation (1 - w, w)_v = 1 and beta = -s w / t give
      (alpha / s, beta)_v = (alpha / s, -s/t)_v = (N alpha, -st)_l, since
      N(alpha / s) = N alpha / s^2.  Hence
      (alpha, beta)_v = (s, N beta)_l (N alpha, -st)_l, and up to squares
      s is (ad - bc) d and -st is -(ad - bc) b.

    Over 2 this needs v2(D) <= 1: at 4 | D the ramified place that
    places_over names is Q_2(sqrt(D/4)), which may split.
    """
    u = alpha if isinstance(alpha, tuple) else (alpha, 0)
    w = beta if isinstance(beta, tuple) else (beta, 0)
    if not all(isinstance(t, int) for t in u + w):
        raise TypeError(f"Hilbert symbol arguments must be integers, got {alpha!r}, {beta!r}")
    if u == (0, 0) or w == (0, 0):
        raise ValueError("Hilbert symbol arguments must be nonzero")
    l, D = place.l, place.D
    if place.kind == SPLIT:
        return hilbert_q_parts(l, *_val_unit(*u, place), *_val_unit(*w, place))
    if l == 2 and D % 4 == 0:
        raise ValueError("D must have 2-adic valuation 0 or 1")
    (a, b), (c, d) = u, w
    if d == 0:
        return hilbert_q(a * a - D * b * b, c, l)
    nbeta = c * c - D * d * d
    if b == 0:
        return hilbert_q(a, nbeta, l)
    m = a * d - b * c
    if m == 0:
        return hilbert_q(-b * d, nbeta, l)
    return hilbert_q(m * d, nbeta, l) * hilbert_q(a * a - D * b * b, -m * b, l)


# ---------------------------------------------------------------------------
# the norm-class character of the auxiliary extension


class CharacterTable(namedtuple("CharacterTable", "chi_1 chi_neg1 chi_2 chi_neg2")):
    """Values of the norm-class character at 1, -1, 2, -2 over the place at 2."""

    __slots__ = ()
    chi_1: int
    chi_neg1: int
    chi_2: int
    chi_neg2: int

    def value(self, norm_class: int) -> int:
        return {1: self.chi_1, -1: self.chi_neg1, 2: self.chi_2, -2: self.chi_neg2}[
            norm_class
        ]


def character_table(D: int, twist: TwistPoint) -> CharacterTable:
    """chi'(c) = ((xi_c, x0 - y0 sqrt(D)) / v) for norm classes c in {1,-1,2,-2}.

    Computed as Hilbert symbols over E_v at explicit local points of norm c,
    not through closed forms.
    """
    info = classify_order(D)
    if info.family != FAMILY_2D:
        raise ValueError(f"D={D} is not 2 times a squarefree product of 1 mod 8 primes")
    if twist.D != D:
        raise ValueError("twist point belongs to a different D")
    values = {}
    for c in (1, -1, 2, -2):
        pt = find_local_point(D, c, 2)
        if pt is None:
            raise ArithmeticError(f"no 2-adic point of norm {c} for D={D}")
        values[c] = hilbert_ev((pt.x, pt.y), twist.element(), two_adic_context(D)[0])
    tab = CharacterTable(values[1], values[-1], values[2], values[-2])
    if tab.chi_1 != 1 or tab.chi_neg2 != tab.chi_neg1 * tab.chi_2:
        raise ArithmeticError(f"character table inconsistent for D={D}: {tab}")
    return tab
