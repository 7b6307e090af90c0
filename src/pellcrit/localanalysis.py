"""Local computations at the completions of E = Q(sqrt(D)).

Z_l-points of x^2 - D y^2 = n (the solvability test is
intcore.local_solvable, re-exported here), square classes of 2-adic
numbers, quadratic Hilbert symbols over the completions E_v (including the
wild quadratic extensions of Q_2) and the norm-class character table of
the auxiliary quadratic extension.

Every symbol is computed on integers.  At a split or odd place an element
is reduced to its valuation and an integer that names the residue
character of its unit part, and the Q_l formula hilbert_q_parts pairs two
of them; at an inert odd place the sign drops, as -1 is a square in
F_{l^2}.

The 2-adic symbol engine works on the finite group E_v*/(E_v*)^2 of 16
square classes: a unit is a square iff it is one modulo pi^(2e+1), and
8 O_E lies in pi^(2e+1) O_E, so a unit's coordinates mod 8 fix its class;
elements have integer coordinates, so class computations need no rational
arithmetic.
The Hilbert pairing on that group is its definition: (a, b)_v = 1 iff b
is a norm from E_v(sqrt a).  For a not a square those norms form an
index-2 subgroup, spanned by the classes of x^2 - a y^2 over a small box
of O_E.  2-adic points come from the coset that the closed form of
intcore.two_adic_layer names: y = 2^t w with w^2 = 1 + 8r, then a square
root for x.
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
from .symbols import hilbert_q_parts, jacobi
from .quadring import (
    FAMILY_2D,
    INERT,
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
# the 2-adic quadratic field engine

_COORD_BITS = 3
_COORD_MOD = 1 << _COORD_BITS
# elements x, y of O_E whose values x^2 - a y^2 span the norm groups; 0 comes
# late because y = 0 gives only squares, and the span mostly fills early
_NORM_BOX = tuple((i, j) for i in (1, 0, -1, 2, -2) for j in (1, 0, -1, 2, -2))


class TwoAdicQuad:
    """E_v = Q_2(sqrt(D)) for nonsplit D: exact square-class arithmetic
    and the quadratic Hilbert pairing on E_v*/(E_v*)^2."""

    def __init__(self, D: int):
        v2 = valuation(D, 2)
        if v2 >= 2:
            raise ValueError("D must have 2-adic valuation 0 or 1")
        if v2 == 0 and D % 8 == 1:
            raise ValueError("Q_2(sqrt(D)) is split, not a field")
        self.D = D
        if v2 == 1:
            self.kind = "ram2"
            self.pi = (0, 1)
        elif D % 4 == 3:
            self.kind = "ram3"
            self.pi = (1, 1)
        else:
            self.kind = "inert"
            self.pi = (2, 0)
            self.c = (D - 1) // 4
        self._build_classes()
        self._build_pairing()

    # -- basis arithmetic (inert uses the (1, phi) basis, phi = (1+sqrt D)/2)

    def from_sqrt_basis(self, x, y):
        if self.kind == "inert":
            return (x - y, 2 * y)
        return (x, y)

    def mul(self, u, v):
        a1, b1 = u
        a2, b2 = v
        if self.kind == "inert":
            return (a1 * a2 + self.c * b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)
        return (a1 * a2 + self.D * b1 * b2, a1 * b2 + a2 * b1)

    def norm(self, u):
        a, b = u
        if self.kind == "inert":
            return a * a + a * b - self.c * b * b
        return a * a - self.D * b * b

    def _mulmod(self, u, v) -> tuple[int, int]:
        w = self.mul(u, v)
        return (w[0] % _COORD_MOD, w[1] % _COORD_MOD)

    def class_of(self, u: tuple[int, int]) -> tuple[int, tuple[int, int]]:
        """Square class as (valuation parity, canonical unit residue).

        u holds integer coordinates; a rational element takes the same class
        once scaled by the square of its common denominator.
        """
        a, b = u
        nrm = self.norm((a, b))
        if nrm == 0:
            raise ValueError("square class of 0 undefined")
        v = valuation(nrm, 2)
        # divide by pi v times, up to square factors: by 2 (inert, where
        # v(norm) = 2v), by sqrt(D) times d^2 (D = 2d), or by 1 + sqrt(D)
        # times m^2 (m = (1 - D)/2)
        D = self.D
        if self.kind == "inert":
            if v % 2:
                raise ArithmeticError(f"odd norm valuation in the inert field, D={D}")
            v //= 2
            a, b = a >> v, b >> v
        elif self.kind == "ram2":
            d = D >> 1
            for _ in range(v):
                a, b = b * d * d, (a >> 1) * d
        else:
            m = (1 - D) >> 1
            for _ in range(v):
                a, b = ((a - b * D) >> 1) * m, ((b - a) >> 1) * m
        return (v & 1, self._canon[(a % _COORD_MOD, b % _COORD_MOD)])

    # -- the group of square classes and the pairing on it

    def _build_classes(self):
        units = [
            (a, b)
            for a in range(_COORD_MOD)
            for b in range(_COORD_MOD)
            if self.norm((a, b)) % 2 == 1
        ]
        squares = {self._mulmod(u, u) for u in units}
        # each unit residue mod 8 to the least residue of its square class
        self._canon = {u: min(self._mulmod(u, s) for s in squares) for u in units}
        unit_classes = sorted(set(self._canon.values()))
        if len(unit_classes) != 8:
            raise ArithmeticError(f"{len(unit_classes)} unit square classes for D={self.D}, not 8")
        self._trivial = (0, self._canon[(1, 0)])
        self.classes = [(p, c) for p in (0, 1) for c in unit_classes]
        # exact integer representatives
        self._rep = {}
        for p, c in self.classes:
            rep = (c[0], c[1])
            if p:
                rep = self.mul(self.pi, rep)
            self._rep[(p, c)] = rep
        # GF(2) coordinates via greedy basis
        vec = {self._trivial: 0}
        basis = []
        for cls in self.classes:
            if cls not in vec:
                basis.append(cls)
                bit = 1 << (len(basis) - 1)
                for known, kv in list(vec.items()):
                    prod = self.class_of(self.mul(self._rep[known], self._rep[cls]))
                    vec[prod] = kv | bit
        if len(basis) != 4 or len(vec) != 16:
            raise ArithmeticError(f"square classes for D={self.D} span {len(vec)} elements, not 16")
        self._vec = vec

    def _norm_span(self, a) -> set[int]:
        # (a, b) = 1 iff b is a norm from E(sqrt a).  Those norms are all of
        # E* when a is a square and an index-2 subgroup otherwise, and the
        # values x^2 - a y^2 over a box of O_E span them.
        target = 16 if self._vec[self.class_of(a)] == 0 else 8
        squares = [self.mul(x, x) for x in _NORM_BOX]
        span = {0}
        for ysq in squares:
            ay2 = self.mul(a, ysq)
            for xsq in squares:
                nrm = (xsq[0] - ay2[0], xsq[1] - ay2[1])
                if nrm == (0, 0):
                    continue
                bit = self._vec[self.class_of(nrm)]
                if bit not in span:
                    span |= {s ^ bit for s in span}
                    if len(span) == target:
                        return span
        raise ArithmeticError(
            f"norms from E(sqrt a) span {len(span)} square classes, not {target},"
            f" for D={self.D}, a={a}"
        )

    def _build_pairing(self):
        self._table = {}
        for ca in self.classes:
            span = self._norm_span(self._rep[ca])
            for cb in self.classes:
                self._table[(ca, cb)] = 1 if self._vec[cb] in span else -1
        if any(self._table[(ca, cb)] != self._table[(cb, ca)] for ca, cb in self._table):
            raise ArithmeticError(f"Hilbert pairing for D={self.D} is not symmetric")

    def pair(self, u, v) -> int:
        """Quadratic Hilbert symbol (u, v) over this field."""
        return self._table[(self.class_of(u), self.class_of(v))]


# bounded: about 37 KB an engine near D = 10^6, and as few D in use as class groups
@lru_cache(maxsize=128)
def two_adic_context(D: int) -> TwoAdicQuad:
    return TwoAdicQuad(D)


# ---------------------------------------------------------------------------
# Hilbert symbols over E_v


def _val_unit(x: int, y: int, place: Place) -> tuple[int, int]:
    """(v, c) for x + y sqrt(D), integers, at a split or odd place.

    v is the valuation.  At odd l, jacobi(c, l) is the quadratic residue
    character of the unit part; at a split place over 2, c is the unit
    part itself mod 2^k, k >= 4.
    """
    l, D = place.l, place.D
    if place.kind == SPLIT:
        # embed by the place's root; while the root's precision does not
        # fix the valuation and unit, lift the same root further
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
    nrm = x * x - D * y * y
    v = valuation(nrm, l)
    if place.kind == INERT:
        # v(norm) = 2v, and a unit of F_{l^2} is a square iff its norm is
        return v // 2, nrm // l**v
    # ramified, pi = sqrt(D): the residue of x / D^k (v = 2k) or y / D^k
    # (v = 2k + 1), whose character is that of (x or y) / l^k times (D/l)^k
    k = v // 2
    return v, (y if v & 1 else x) // l**k * pow(D // l, k, l)


def hilbert_ev(alpha, beta, place: Place) -> int:
    """Quadratic Hilbert symbol (alpha, beta) over E_v.

    Elements are integers or integer pairs (x, y) meaning x + y sqrt(D).
    """
    a = alpha if isinstance(alpha, tuple) else (alpha, 0)
    b = beta if isinstance(beta, tuple) else (beta, 0)
    if not all(isinstance(t, int) for t in a + b):
        raise TypeError(f"Hilbert symbol arguments must be integers, got {alpha!r}, {beta!r}")
    if a == (0, 0) or b == (0, 0):
        raise ValueError("Hilbert symbol arguments must be nonzero")
    l = place.l
    if l == 2 and place.kind != SPLIT:
        ctx = two_adic_context(place.D)
        return ctx.pair(ctx.from_sqrt_basis(*a), ctx.from_sqrt_basis(*b))
    v1, c1 = _val_unit(*a, place)
    v2, c2 = _val_unit(*b, place)
    if place.kind == INERT:
        # the tame symbol with no sign: -1 is a square in F_{l^2}
        return jacobi(c1, l) ** (v2 & 1) * jacobi(c2, l) ** (v1 & 1)
    return hilbert_q_parts(l, v1, c1, v2, c2)


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

    Computed through the 2-adic Hilbert engine on explicit local points of
    norm c, not through closed forms.
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
        values[c] = hilbert_ev((pt.x, pt.y), twist.element(), places_over(D, 2)[0])
    tab = CharacterTable(values[1], values[-1], values[2], values[-2])
    if tab.chi_1 != 1 or tab.chi_neg2 != tab.chi_neg1 * tab.chi_2:
        raise ArithmeticError(f"character table inconsistent for D={D}: {tab}")
    return tab
