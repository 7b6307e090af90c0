"""Class-group and Artin-condition machinery.

The ring class field of Z[sqrt(D)] has Galois group the wide form class
group of discriminant 4D; an integral point of x^2 - D y^2 = n maps to an
ideal of norm |n| whose class must be principal.  When D = 5 mod 8 and
4 | n the ideal is taken in the maximal order, at discriminant D: 2 is
inert there, and n is a norm from Z[sqrt(D)] iff its odd part is a norm
from Z[(1 + sqrt(D))/2].  Forms compose by the general Gauss-Shanks rule
at either discriminant.  The auxiliary quadratic
extension built from a twist point contributes a second condition, a
product of local Hilbert symbols.  Solvability for the supported families
is equivalent to some single adelic choice passing both conditions at once.

The joint decision reads one bounded record per prime power of n: its
classes, and its twist signs from the first principal choice on.  One walk
over the split exponents, on an explicit stack, serves the decision and the
class images; the decision stops at the first choice with a principal class
and a trivial twist symbol.  The symbol's head, its factors at 2 and at the
odd twist prime, is computed once, at the first principal choice.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .intcore import (
    Factorization, factor, isqrt, is_square, local_obstruction_anywhere, sqrt_mod, valuation
)
from .symbols import jacobi, quartic_residue, burde_product
from .verdict import Verdict
from .quadring import (
    FAMILY_2D,
    FAMILY_PQ,
    INERT,
    RAMIFIED,
    SPLIT,
    TwistPoint,
    classify_order,
    find_twist_point,
    splitting_type,
    two_squares_all,
)
from .localanalysis import (
    Place,
    find_local_point,
    hilbert_ev,
    places_over,
    twist_residue_square,
)
from . import pellsolver


# ---------------------------------------------------------------------------
# indefinite binary quadratic forms


class Form(namedtuple("Form", "a b c")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        self = super().__new__(cls, a, b, c)
        if math.gcd(math.gcd(a, b), c) != 1:
            raise ValueError(f"form {self} is imprimitive")
        return self

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def neg(self) -> "Form":
        return Form(-self.a, self.b, -self.c)


def _is_reduced(f: Form, s: int, disc: int) -> bool:
    # 0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b
    if f.b <= 0 or f.b > s:
        return False
    t = 2 * abs(f.a)
    if (t - f.b) ** 2 >= disc and t > f.b:
        return False
    return (t + f.b) ** 2 > disc


def _rho(f: Form, s: int, disc: int) -> Form:
    # reduction step: (a, b, c) -> (c, r, (r^2 - disc)/(4c)), r = -b mod 2|c|
    c2 = 2 * abs(f.c)
    r0 = (-f.b) % c2
    if f.c * f.c > disc:
        r = r0 if r0 <= abs(f.c) else r0 - c2
    else:
        r = r0 + c2 * ((s - r0) // c2)
    return Form(f.c, r, (r * r - disc) // (4 * f.c))


def reduce_form(f: Form) -> Form:
    disc = f.disc
    if disc <= 0 or is_square(disc):
        raise ValueError("discriminant must be positive and non-square")
    return _reduce(f, isqrt(disc), disc)


def _reduce(f: Form, s: int, disc: int) -> Form:
    for _ in range(10000):
        if _is_reduced(f, s, disc):
            return f
        f = _rho(f, s, disc)
    raise ArithmeticError(f"reduction failed for {f}")


class ClassGroup:
    """Principality in the wide form class group of discriminant disc.

    disc is any positive non-square integer = 0 or 1 mod 4: 4D for the
    order Z[sqrt(D)], D itself for the maximal order when D = 1 mod 4.
    A form is principal in the wide sense when its reduction lies on the
    cycle of the principal form or on the cycle of its negation, since
    (a, b, c) ~ (-a, b, -c) merges exactly those two cycles.  Only that set
    of reduced forms is built, one cycle walk of about the continued
    fraction period: _rho and _is_reduced commute with that map, so the
    negated cycle is the image of the principal one.  The rest of the group
    is never enumerated.
    Composition is Gauss-Shanks (Cohen, GTM 138, Alg. 5.4.7).
    """

    def __init__(self, disc: int):
        if disc <= 0 or disc % 4 > 1 or is_square(disc):
            raise ValueError("discriminant must be positive, non-square and 0 or 1 mod 4")
        self.disc = disc
        self._s = s = isqrt(disc)
        b = s - (s - disc) % 2  # the largest b <= sqrt(disc) with b = disc mod 2
        self.principal = Form(1, b, (b * b - disc) // 4)
        cycle = [_reduce(self.principal, s, disc)]
        while (f := _rho(cycle[-1], s, disc)) != cycle[0]:
            cycle.append(f)
        self._principal_forms = frozenset(cycle + [f.neg() for f in cycle])

    def is_principal(self, f: Form) -> bool:
        if f.disc != self.disc:
            raise ValueError(f"form {f} does not have discriminant {self.disc}")
        return reduce_form(f) in self._principal_forms

    def compose(self, f1: Form, f2: Form) -> Form:
        if f1.disc != self.disc or f2.disc != self.disc:
            raise ValueError(f"forms {f1}, {f2} do not both have discriminant {self.disc}")
        if f1 is self.principal:
            # Gauss-Shanks with a1 = 1 gives f2 back before it reduces; power
            # starts from this form, and these pairs stay out of the memo
            return _reduce(f2, self._s, self.disc)
        return _compose(f1, f2)

    def power(self, f: Form, k: int) -> Form:
        if k < 0:
            f, k = Form(f.a, -f.b, f.c), -k
        out = self.principal
        while k:
            if k & 1:
                out = self.compose(out, f)
            k >>= 1
            if k:
                f = self.compose(f, f)
        return out


# bounded: keyed by pairs of forms, which grow with the primes of n
@lru_cache(maxsize=4096)
def _compose(f1: Form, f2: Form) -> Form:
    # the reduced Gauss-Shanks composition of two forms of one discriminant
    disc = f1.disc
    a1, a2, b2, c2 = f1.a, f2.a, f2.b, f2.c
    s = (f1.b + b2) // 2
    # y1 a2 = d mod a1 with d = gcd(a1, a2), then x2 s - y2 d = d1 = gcd(s, d)
    d = math.gcd(a1, a2)
    y1 = pow(a2 // d, -1, abs(a1) // d)
    d1 = math.gcd(s, d)
    x2 = pow(s // d1, -1, d // d1)
    y2 = (x2 * s - d1) // d
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * (b2 - s) - x2 * c2) % v1
    a3, b3 = v1 * v2, b2 + 2 * v2 * r
    return reduce_form(Form(a3, b3, (b3 * b3 - disc) // (4 * a3)))


@lru_cache(maxsize=None)
def class_group(disc: int) -> ClassGroup:
    """Principality test of the wide class group of discriminant disc (cached)."""
    return ClassGroup(disc)


def prime_form(D: int, l: int, disc: int | None = None) -> Form:
    """A form of discriminant disc for the prime ideal of norm l.

    disc is 4D, for Z[sqrt(D)], by default, or D = 1 mod 4, for the maximal
    order (odd l only).  At a split l the ideal is the one where sqrt(D) is
    sqrt_mod(D, l), the place places_over(D, l)[0], at either discriminant.
    """
    if disc is None:
        disc = 4 * D
    st = splitting_type(D, l)
    if st == INERT:
        raise ValueError(f"{l} is inert; no ideal of norm {l}")
    if disc != 4 * D and (disc != D or D % 4 != 1 or l == 2):
        raise ValueError(f"no prime form over {l} of discriminant {disc} for D={D}")
    if l == 2:
        if D % 2 == 0:
            return Form(2, 0, -(D // 2))
        return Form(2, 2, (1 - D) // 2)
    beta = 0 if st == RAMIFIED else sqrt_mod(D, l)
    if beta is None:
        raise ArithmeticError(f"no square root of {D} mod the split prime {l}")
    # b = beta mod l, and b = disc mod 2: 2 beta at 4D, an odd lift at D
    b = 2 * beta if disc == 4 * D else beta + l * (1 - beta % 2)
    return Form(l, b, (b * b - disc) // (4 * l))


# ---------------------------------------------------------------------------
# adelic choices and their ideal classes


class AdelicChoice(namedtuple("AdelicChoice", "split forced")):
    """Exponent data of one ideal of norm |n|.

    ``split`` holds (l, e, j): j of the e prime factors over l lie on the
    chosen-root side.  ``forced`` holds (l, kind, e) at ramified and inert
    primes, where nothing is free.
    """

    __slots__ = ()
    split: tuple[tuple[int, int, int], ...]
    forced: tuple[tuple[int, str, int], ...]

    def j_at(self, l: int) -> int:
        for ll, _, j in self.split:
            if ll == l:
                return j
        return 0


class ClassImages(namedtuple("ClassImages", "entries obstruction disc")):
    """The choices and their reduced forms, all of discriminant disc."""

    __slots__ = ()
    entries: tuple[tuple[AdelicChoice, Form], ...]
    obstruction: int | None
    disc: int


_MAX_SPLIT_PRIMES = 12


# What l^e || n brings to a decision: classes, the reduced forms of l^(2j - e),
# j = 0..e, when l splits (j factors on the chosen-root side), of l^e when l
# ramifies, else None; signs, the twist half, the symbol's factor over l at j
# even and at j odd (j = 0 at a forced prime), empty until a principal choice
_PrimeRecord = namedtuple("_PrimeRecord", "l e kind classes signs")


# bounded: keyed by the primes of n; twist is None where no symbol is asked for
@lru_cache(maxsize=4096)
def _prime_record(D: int, disc: int, twist: TwistPoint | None, l: int, e: int) -> _PrimeRecord:
    kind = splitting_type(D, l)
    if kind == INERT or (kind == SPLIT and l == 2):
        return _PrimeRecord(l, e, kind, None, [])
    group, f = class_group(disc), prime_form(D, l, disc)
    if kind == RAMIFIED:
        return _PrimeRecord(l, e, kind, group.power(f, e), [])
    return _PrimeRecord(l, e, kind, tuple(group.power(f, 2 * j - e) for j in range(e + 1)), [])


def _twist_half(rec: _PrimeRecord, D: int, twist: TwistPoint) -> list[int]:
    # fills rec.signs.  Away from 2 and the twist prime a place counts when n's
    # share of it is odd; z0 adds none, as an inert l | z0 would divide x0, y0
    l, e, kind = rec.l, rec.e, rec.kind
    if l in (2, twist.ell) or (kind != SPLIT and (e // 2 if kind == INERT else e) % 2 == 0):
        rec.signs[:] = (1, 1)
        return rec.signs
    r = _residue_signs(D, twist, l)
    # j factors of a split l lie over its first place, e - j over its second
    rec.signs[:] = (r[0], r[0]) if kind != SPLIT else (r[1], r[0]) if e % 2 else (1, r[0] * r[1])
    return rec.signs


# bounded: keyed by the primes of n, like _prime_record, whose records at
# every exponent of l share one entry
@lru_cache(maxsize=4096)
def _residue_signs(D: int, twist: TwistPoint, l: int) -> tuple[int, ...]:
    # the twist residue character at each place over l, as +1 or -1
    return tuple(1 if twist_residue_square(D, twist, pl) else -1 for pl in places_over(D, l))


def _ideals(D: int, n: int, fac: Factorization, twist: TwistPoint | None) -> tuple:
    """(group, obstruction, base, records, split): the class group, the prime
    with no integral local point or None, the ramified part's class, and the
    records of the primes of n and of its split primes."""
    disc = D if D % 8 == 5 and n % 4 == 0 else 4 * D
    group = class_group(disc)
    base = principal = group.principal
    records, split = [], []
    for l, e in fac.factors:
        rec = _prime_record(D, disc, twist, l, e)
        records.append(rec)
        if rec.kind == RAMIFIED:
            base = rec.classes if base is principal else _compose(base, rec.classes)
        elif rec.kind == INERT:
            if e % 2:
                return group, l, base, records, split
        elif l != 2:
            split.append(rec)
        elif e == 1:  # the order is not maximal at 2 when D is odd
            return group, 2, base, records, split
        else:
            raise NotImplementedError("split conductor prime 2 with 4 | n is outside the model")
    if len(split) > _MAX_SPLIT_PRIMES:
        raise ValueError(f"more than {_MAX_SPLIT_PRIMES} split primes in n")
    return group, None, base, records, split


def _walk(principal: Form, base: Form, split: list, leaf) -> bool:
    """Depth first over the split exponents, on one explicit stack: js[i],
    the exponent at split[i], and accs[i], the class of base and the first i
    contributions.  leaf(js, form) is called at each leaf until it returns
    true.  A principal accumulator takes each contribution as it is, as
    ``ClassGroup.compose`` does; the class images keep the exact forms."""
    k = len(split)
    js, accs, i = [0] * k, [base] * (k + 1), 0
    while True:
        while i < k:
            acc, contrib = accs[i], split[i].classes[js[i]]
            i += 1
            accs[i] = contrib if acc is principal else _compose(acc, contrib)
        if leaf(js, accs[k]):
            return True
        i = k - 1  # back up to the deepest split prime with an exponent left
        while i >= 0 and js[i] == split[i].e:
            js[i] = 0
            i -= 1
        if i < 0:
            return False
        js[i] += 1


def class_images_of_norm(D: int, n: int, *, fac: Factorization | None = None) -> ClassImages:
    """All ideals of Z[sqrt(D)] of norm |n| with their form classes.

    When D = 5 mod 8 and 4 | n, a solution may be 2 alpha with alpha in the
    maximal order Z[(1 + sqrt(D))/2] only.  There 2 is inert, so n is a norm
    from Z[sqrt(D)] iff its odd part is a norm from the maximal order, and
    the ideals and classes are taken there, at discriminant D instead of 4D.
    When some completion admits no integral point for valuation reasons,
    returns no entries and that prime as ``obstruction``.  ``fac``, when
    given, is the factorization of |n|.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    fac = factor(abs(n)) if fac is None else fac
    group, obstruction, base, records, split = _ideals(D, n, fac, None)
    if obstruction is not None:
        return ClassImages((), obstruction, group.disc)
    forced = tuple((r.l, r.kind, r.e // 2 if r.kind == INERT else r.e)
                   for r in records if r.kind != SPLIT)
    entries: list = []
    _walk(group.principal, base, split, lambda js, form: entries.append(
        (AdelicChoice(tuple((r.l, r.e, j) for r, j in zip(split, js)), forced), form)
    ))
    return ClassImages(tuple(entries), None, group.disc)


# ---------------------------------------------------------------------------
# the twist-extension symbol product


def twist_symbol(
    D: int, twist: TwistPoint, choice: AdelicChoice, n: int, *, fac: Factorization | None = None
) -> int:
    """Artin image in the twist extension of the adelic point named by choice.

    Product of Hilbert symbols (f-value, x0 - y0 sqrt(D)) over the ramified
    places (those over 2 and the twist prime), times residue-character
    contributions at odd-valuation places elsewhere; real places give +1
    because the twist element is totally positive.  ``fac``, when given,
    is the factorization of |n|.
    """
    disc = D if D % 8 == 5 and n % 4 == 0 else 4 * D
    sym = _head(D, twist, n)
    for l, e in (factor(abs(n)) if fac is None else fac).factors:
        rec = _prime_record(D, disc, twist, l, e)
        sym *= (rec.signs or _twist_half(rec, D, twist))[choice.j_at(l) % 2]
    return sym


def _head(D: int, twist: TwistPoint, n: int) -> int:
    # the factors at the places over 2 and the odd twist prime, shared by
    # every choice at (D, n)
    v = valuation(n, 2)
    sym = _two_adic_factor(D, twist, ((n >> v) % 16) << (v % 4))
    ell = twist.ell
    if ell != 2:
        pt = find_local_point(D, n, ell, prec=valuation(n, ell) + 10)
        if pt is None:
            raise ValueError(f"no {ell}-adic point for D={D}, n={n}")
        sym *= hilbert_ev((pt.x, pt.y), twist.element(), places_over(D, ell)[0])
    return sym


@lru_cache(maxsize=None)
def _two_adic_factor(D: int, twist: TwistPoint, r: int) -> int:
    """The symbol at the place over 2 that carries n, for every n keyed r.

    On norm-one elements beta / conj(beta) the symbol against theta is
    (N beta, N theta) at 2, which is 1 in both families, so it depends on n
    only modulo N(E_v*)^2.  That group holds 16 and 1 + 16 Z_2, and the key
    r = ((n >> v) % 16) << (v % 4), v = v2(n), names n's class.  The Q_2
    square class is coarser and wrong: at D = 34, n = 1 and n = 9 differ.
    """
    place2 = _d_context(D).place2
    theta = twist.element()
    if place2.kind == SPLIT:
        # 2 is never a split prime of a choice (_ideals stops first), so
        # the whole of n sits at the second place over 2
        return hilbert_ev(r, theta, place2)
    pt = find_local_point(D, r, 2, prec=valuation(r, 2) + 18)
    if pt is None:
        raise ValueError(f"no 2-adic point for D={D}, n={r} modulo squares of norms")
    return hilbert_ev((pt.x, pt.y), theta, place2)


# ---------------------------------------------------------------------------
# the joint decision


def cor14_applicable(p: int, q: int) -> bool:
    """Both primes 1 mod 4, (q/p) = 1, and the quartic product is -1."""
    if p % 4 != 1 or q % 4 != 1:
        return False
    if jacobi(q, p) != 1:
        return False
    return burde_product(p, q) == -1


def thm24_applicable(d: int) -> bool:
    """Squarefree product of 1 mod 8 primes with 2d = r^2 + s^2, r, s = ±3 mod 8."""
    info = classify_order(2 * d)
    if info.family != FAMILY_2D:
        return False
    return any(
        r % 8 in (3, 5) and s % 8 in (3, 5) for r, s in two_squares_all(2 * d)
    )


@lru_cache(maxsize=None)
def canonical_twist(D: int) -> TwistPoint:
    info = classify_order(D)
    if info.family == FAMILY_PQ:
        p, q = info.primes
        # the twist prime is the one whose quartic symbol base gives +1
        ell = p if quartic_residue(q, p) == 1 else q
        return find_twist_point(D, ell)
    if info.family == FAMILY_2D:
        return find_twist_point(D, 2)
    raise ValueError(f"D={D} is outside both families")


class _DContext(namedtuple("_DContext", "applicable place2")):
    """What every decision at one D reuses.

    The twist point, class group and 2-adic engine stay in their own
    caches.  The place over the twist prime is not kept: that prime is
    ramified, and its place costs no square-root lift.
    """

    __slots__ = ()
    applicable: bool
    place2: Place  # the place over 2 that carries n: the only one, or the second


@lru_cache(maxsize=None)
def _d_context(D: int) -> _DContext:
    info = classify_order(D)
    applicable = (info.family == FAMILY_PQ and cor14_applicable(*info.primes)) or (
        info.family == FAMILY_2D and thm24_applicable(D // 2)
    )
    return _DContext(applicable, places_over(D, 2)[-1])


def _some_choice_passes(D: int, n: int, twist: TwistPoint, fac: Factorization) -> bool:
    # walk to the first choice with a principal class and a trivial twist
    # symbol; the head and twist halves wait for the first principal choice
    group, obstruction, base, records, split = _ideals(D, n, fac, twist)
    if obstruction is not None:
        return False
    principal_forms, head = group._principal_forms, None

    def passes(js: list, form: Form) -> bool:
        nonlocal head
        if form not in principal_forms:
            return False
        if head is None:
            head = _head(D, twist, n)
            for rec in records:
                signs = rec.signs or _twist_half(rec, D, twist)
                head *= 1 if rec.kind == SPLIT else signs[0]
        sym = head
        for rec, j in zip(split, js):
            sym *= rec.signs[j % 2]
        return sym == 1

    return _walk(group.principal, base, split, passes)


def artin_condition(D: int, n: int, twist: TwistPoint | None = None) -> bool:
    """Whether some adelic point has principal class and trivial twist symbol."""
    fac = factor(abs(n))
    if local_obstruction_anywhere(D, n, fac=fac) is not None:
        return False
    return _some_choice_passes(D, n, canonical_twist(D) if twist is None else twist, fac)


def joint_artin_decide(D: int, n: int) -> Verdict:
    """Decide x^2 - D y^2 = n by the two-character criterion when it applies.

    Falls back to the Pell oracle, flagged as such, outside the families'
    hypotheses; raises if the criterion ever contradicts the oracle.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    if _d_context(D).applicable:
        fac = factor(abs(n))
        l = local_obstruction_anywhere(D, n, fac=fac)
        if l is not None:
            return pellsolver._unsolvable("artin", f"local-obstruction:{l}")
        try:
            holds = _some_choice_passes(D, n, canonical_twist(D), fac)
        except NotImplementedError:
            pass  # conductor prime split in the order and 4 | n: outside the model
        else:
            return pellsolver.confirm(D, n, holds, "artin", "artin-condition-fails")
    return pellsolver.solve(D, n)
