"""References for the Hilbert symbols over E_v that pellcrit computes.

``TwoAdicQuad`` is the 2-adic symbol engine that once computed the
symbol at the place over 2 from its definition, on the finite group
E_v*/(E_v*)^2 of 16 square classes: a unit is a square iff it is one
modulo pi^(2e+1), and 8 O_E lies in pi^(2e+1) O_E, so a unit's
coordinates mod 8 fix its class; elements have integer coordinates, so
class computations need no rational arithmetic.  The Hilbert pairing on
that group is its definition: (a, b)_v = 1 iff b is a norm from
E_v(sqrt a).  For a not a square those norms form an index-2 subgroup,
spanned by the classes of x^2 - a y^2 over a small box of O_E.

``tame_residue`` and ``tame_hilbert_ev`` are the tame symbol at an inert
or ramified odd place, from the valuation and the residue character of
each element's unit part.
"""

from pellcrit.intcore import valuation
from pellcrit.quadring import INERT
from pellcrit.symbols import hilbert_q_parts, jacobi

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


# ---------------------------------------------------------------------------
# the tame symbol at odd nonsplit places


def tame_residue(x, y, place):
    """(v, c) for x + y sqrt(D), integers, at an inert or ramified odd place.

    v is the valuation, and jacobi(c, l) the quadratic residue character of
    the unit part.
    """
    l, D = place.l, place.D
    nrm = x * x - D * y * y
    v = valuation(nrm, l)
    if place.kind == INERT:
        # v(norm) = 2v, and a unit of F_{l^2} is a square iff its norm is
        return v // 2, nrm // l**v
    # ramified, pi = sqrt(D): the residue of x / D^k (v = 2k) or y / D^k
    # (v = 2k + 1), whose character is that of (x or y) / l^k times (D/l)^k
    k = v // 2
    return v, (y if v & 1 else x) // l**k * pow(D // l, k, l)


def tame_hilbert_ev(alpha, beta, place):
    """(alpha, beta)_v at an inert or ramified odd place, elements as in
    ``hilbert_ev``."""
    a = alpha if isinstance(alpha, tuple) else (alpha, 0)
    b = beta if isinstance(beta, tuple) else (beta, 0)
    l = place.l
    v1, c1 = tame_residue(*a, place)
    v2, c2 = tame_residue(*b, place)
    if place.kind == INERT:
        # the tame symbol with no sign: -1 is a square in F_{l^2}
        return jacobi(c1, l) ** (v2 & 1) * jacobi(c2, l) ** (v1 & 1)
    return hilbert_q_parts(l, v1, c1, v2, c2)
