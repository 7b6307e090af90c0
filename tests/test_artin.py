import itertools
import json
import math
import os
import random
import subprocess
import sys
from operator import attrgetter

import pytest

from pellcrit import artin, cli, intcore, localanalysis, pellsolver, quadring
from pellcrit.intcore import factor, is_prime, is_square, valuation
from pellcrit.localanalysis import find_local_point, hilbert_ev, places_over, square_class_2
from pellcrit.quadring import INERT, SPLIT, splitting_type
from pellcrit.symbols import jacobi, quartic_residue


def _ref_is_reduced(f, disc):
    # the definition, 0 < b < sqrt(disc) and |sqrt(disc) - 2|a|| < b, in integers
    a, b, _ = f
    t = 2 * abs(a)
    return 0 < b and b * b < disc and (t + b) ** 2 > disc and (t <= b or (t - b) ** 2 < disc)


def _ref_rho(f, disc):
    # one reduction step (Cohen, GTM 138, section 5.6), written apart from artin._rho:
    # (a, b, c) -> (c, r, (r^2 - disc)/(4c)) with r = -b mod 2|c|, and
    # -|c| < r <= |c| when |c| > sqrt(disc), else sqrt(disc) - 2|c| < r < sqrt(disc)
    _, b, c = f
    m, s = 2 * abs(c), math.isqrt(disc)
    if c * c > disc:
        r = (-b) % m
        r = r - m if r > abs(c) else r
    else:
        r = s - (s + b) % m
    return c, r, (r * r - disc) // (4 * c)


def _ref_reduce(f, disc):
    f = tuple(f)
    while not _ref_is_reduced(f, disc):
        f = _ref_rho(f, disc)
    return f


class _ReferenceClasses:
    """Brute-force wide class group of discriminant disc, a test reference.

    disc is 4D, or D = 1 mod 4.  Enumerates every reduced form (every
    b <= sqrt(disc) of disc's parity, so odd b at D = 1 mod 4, and every
    divisor a of (disc - b^2)/4), then merges forms along reduction steps
    and under (a, b, c) ~ (-a, b, -c) with a union-find.  Reduction is the
    test's own, so the reference shares no step with ``artin``.
    """

    def __init__(self, disc):
        s = math.isqrt(disc)
        forms = []
        for b in range(2 - disc % 2, s + 1, 2):
            M = (disc - b * b) // 4
            divisors = {u for t in range(1, math.isqrt(M) + 1) if M % t == 0 for u in (t, M // t)}
            for u in sorted(divisors):
                for a in (u, -u):
                    c = -M // a
                    if math.gcd(math.gcd(a, b), c) == 1 and _ref_is_reduced((a, b, c), disc):
                        forms.append(artin.Form(a, b, c))
        parent = {f: f for f in forms}

        def find(f):
            while parent[f] != f:
                parent[f] = parent[parent[f]]
                f = parent[f]
            return f

        for f in forms:
            a, b, c = f
            for g in (_ref_rho(f, disc), (-a, b, -c)):
                parent[find(f)] = find(g)
        roots = sorted({find(f) for f in forms})
        self.disc = disc
        self.forms = forms
        self._find = find
        self._index = {r: k for k, r in enumerate(roots)}
        self.order = len(roots)
        self.principal_id = self.class_id(artin.class_group(disc).principal)

    def class_id(self, f):
        return self._index[self._find(_ref_reduce(f, self.disc))]

    def reps(self):
        out = {}
        for f in self.forms:
            out.setdefault(self.class_id(f), f)
        return list(out.values())


def _reference_principal_forms(disc):
    """The principal set as two cycle walks: the principal form's and its negation's."""
    s = math.isqrt(disc)
    b = s - (s - disc) % 2

    def cycle(f):
        f = _ref_reduce(f, disc)
        out = [f]
        g = _ref_rho(f, disc)
        while g != f:
            out.append(g)
            g = _ref_rho(g, disc)
        return out

    c = (b * b - disc) // 4
    return frozenset(cycle((1, b, c)) + cycle((-1, b, -c)))


def test_one_cycle_walk_gives_both_cycles():
    # the negated cycle is the image of the principal one under
    # (a, b, c) -> (-a, b, -c), at disc 4D and, for D = 1 mod 4, at D
    count = 0
    for D in range(2, 3000):
        if is_square(D):
            continue
        for disc in (4 * D, D) if D % 4 == 1 else (4 * D,):
            assert artin.ClassGroup(disc).principal_forms == _reference_principal_forms(disc), disc
            count += 1
    assert count == 3668


def test_reduction_steps_plain_triples():
    # _rho takes and returns plain tuples and the cycle set holds plain
    # tuples; a Form is made only where a caller receives one
    g = artin.ClassGroup(4 * 1394)
    assert {type(f) for f in g.principal_forms} == {tuple}
    f = artin.prime_form(1394, 17)
    assert type(f) is artin.Form and not artin._is_reduced(f, g._s, g.disc)
    assert type(artin._rho(f, g._s, g.disc)) is tuple
    assert not hasattr(artin.Form, "neg")
    for got in (artin.reduce_form(f), g.compose(g.principal, f), g.compose(f, f), g.power(f, 3)):
        assert type(got) is artin.Form and artin._is_reduced(got, g._s, g.disc), got


def test_class_group_orders():
    assert _ReferenceClasses(884).order == 2  # D = 221
    assert _ReferenceClasses(136).order == 2  # D = 34
    assert _ReferenceClasses(40).order == 2  # D = 10
    with pytest.raises(ValueError):
        artin.class_group(100)  # square
    with pytest.raises(ValueError):
        artin.class_group(-884)
    with pytest.raises(ValueError):
        artin.class_group(886)  # 2 mod 4
    # the principal form is (1, b, (b^2 - disc)/4), b the largest b <= sqrt(disc)
    # of disc's parity
    assert artin.class_group(884).principal == artin.Form(1, 28, -25)
    assert artin.class_group(221).principal == artin.Form(1, 13, -13)


def test_group_laws():
    for disc in (136, 340, 584, 884, 1160):
        g = artin.class_group(disc)
        ref = _ReferenceClasses(disc)
        reps = ref.reps()
        assert len(reps) == ref.order
        for f in reps:
            assert ref.class_id(g.compose(g.principal, f)) == ref.class_id(f)
        for f1, f2, f3 in itertools.product(reps, repeat=3):
            lhs = g.compose(g.compose(f1, f2), f3)
            rhs = g.compose(f1, g.compose(f2, f3))
            assert ref.class_id(lhs) == ref.class_id(rhs)
        # every element's order divides the group order
        for f in reps:
            assert g.is_principal(g.power(f, ref.order))


def test_is_principal_matches_reference():
    # every reduced form of every non-square D <= 1000
    checked = 0
    for D in range(2, 1001):
        if math.isqrt(D) ** 2 == D:
            continue
        g = artin.class_group(4 * D)
        ref = _ReferenceClasses(4 * D)
        for f in ref.forms:
            assert g.is_principal(f) == (ref.class_id(f) == ref.principal_id), (D, f)
        checked += len(ref.forms)
    assert checked == 39688
    # every reduced form of every non-square discriminant 1 mod 4 below 2000
    checked = 0
    for disc in range(5, 2001, 4):
        if math.isqrt(disc) ** 2 == disc:
            continue
        g = artin.class_group(disc)
        ref = _ReferenceClasses(disc)
        for f in ref.forms:
            assert g.is_principal(f) == (ref.class_id(f) == ref.principal_id), (disc, f)
        checked += len(ref.forms)
    assert checked == 17728


def test_power_equals_repeated_compose():
    for disc in (136, 584, 1160, 4 * 2379, 4 * 7453, 221, 1105, 1405, 1717, 7453):
        g = artin.class_group(disc)
        ref = _ReferenceClasses(disc)
        for f in ref.reps():
            acc = g.principal
            for k in range(12):
                assert ref.class_id(g.power(f, k)) == ref.class_id(acc), (disc, f, k)
                inv = g.power(f, -k)
                assert g.is_principal(g.compose(inv, acc)), (disc, f, k)
                acc = g.compose(acc, f)


def _ideal_product(f1, f2, disc):
    # a form for the product of the ideals [|a|, (-b + sqrt(disc))/2] of f1
    # and f2, which lies in the wide class of their composition.  Elements
    # (x + y sqrt(disc))/2 are integer pairs (x, y); the product lattice is
    # brought to the basis (X, 0), (z, g), which is g times the ideal
    # [X/(2g), (z/g + sqrt(disc))/2]
    gens = [((x1 * x2 + y1 * y2 * disc) // 2, (x1 * y2 + x2 * y1) // 2)
            for x1, y1 in ((2 * abs(f1.a), 0), (-f1.b, 1))
            for x2, y2 in ((2 * abs(f2.a), 0), (-f2.b, 1))]
    X, (z, g) = 0, (0, 0)
    for x, y in gens:
        while y:
            q = g // y
            (z, g), (x, y) = (x, y), (z - q * x, g - q * y)
        X = math.gcd(X, x)
    a, b = X // (2 * abs(g)), -z // g
    return artin.Form(a, b, (b * b - disc) // (4 * a))


def test_compose_with_common_factor_matches_ideal_product():
    # every pair of reduced forms whose leading coefficients share a factor,
    # at 4D and at D, against the product of their ideals
    pairs = 0
    for D in (205, 221, 1105, 1405, 1717, 7453):
        for disc in (4 * D, D):
            g = artin.class_group(disc)
            ref = _ReferenceClasses(disc)
            for f1, f2 in itertools.product(ref.forms, repeat=2):
                if math.gcd(f1.a, f2.a) == 1:
                    continue
                got = g.compose(f1, f2)
                assert got.disc == disc and artin.reduce_form(got) == got, (f1, f2)
                assert ref.class_id(got) == ref.class_id(_ideal_product(f1, f2, disc)), (f1, f2)
                pairs += 1
    assert pairs == 27440


def test_compose_rejects_other_discriminant():
    g = artin.class_group(136)
    other = artin.class_group(584).principal
    with pytest.raises(ValueError):
        g.compose(g.principal, other)
    with pytest.raises(ValueError):
        g.is_principal(other)


def test_compose_raises_under_optimize():
    code = (
        "from pellcrit import artin\n"
        "try:\n"
        "    artin.class_group(136).compose(artin.class_group(136).principal,"
        " artin.class_group(584).principal)\n"
        "except ValueError:\n"
        "    print('raised', __debug__)\n"
    )
    src = os.path.dirname(os.path.dirname(artin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "raised False"


def test_prime_form_discriminants():
    for D, l in [(221, 13), (221, 17), (34, 2), (34, 3), (146, 5), (221, 5)]:
        if quadring.splitting_type(D, l) == "inert":
            continue
        f = artin.prime_form(D, l)
        assert f.disc == 4 * D and abs(f.a) == l
    # at discriminant D the split prime form names the same place,
    # sqrt(D) = places_over(D, l)[0].root mod l, as at 4D
    for D, l in [(221, 13), (221, 17), (221, 7), (221, 11), (1405, 281), (1405, 3), (1717, 17)]:
        f4, f1 = artin.prime_form(D, l), artin.prime_form(D, l, D)
        assert f1.disc == D and f1.a == l and f1.b % 2 == 1
        if quadring.splitting_type(D, l) == "split":
            root = places_over(D, l)[0].root
            assert (f4.b // 2 - root) % l == 0 and (f1.b - root) % l == 0, (D, l)
    with pytest.raises(ValueError):
        artin.prime_form(34, 3, 34)  # 34 is not 1 mod 4


def test_class_images_examples():
    g = artin.class_group(884)
    ci = artin.class_images_of_norm(221, 17)
    assert ci.obstruction is None and len(ci.entries) == 1
    assert g.is_principal(ci.entries[0][1])
    ci = artin.class_images_of_norm(221, 5)
    assert len(ci.entries) == 2
    assert all(not g.is_principal(f) for _, f in ci.entries)
    assert ci.disc == 884
    # 221 = 5 mod 8 and 4 | n: the classes are taken in the maximal order
    ci = artin.class_images_of_norm(221, 4)
    assert ci.disc == 221 and len(ci.entries) == 1
    assert artin.class_group(ci.disc).is_principal(ci.entries[0][1])
    ci = artin.class_images_of_norm(221, 3)  # 3 inert, odd exponent
    assert ci.obstruction == 3 and not ci.entries


def test_class_images_match_direct_powers():
    # each choice's class, recomputed from fresh prime forms: ramified primes
    # give l^e, a split prime with j of e factors on the root side l^(2j - e)
    cases = [(1394, -370 * 185**2), (1394, 2 * 5**2 * 37),
             (221, 13 * 7**3 * 43**2 * 19**2), (34, 3**4 * 5 * 13**2)]
    for D, n in cases:
        g = artin.class_group(4 * D)
        entries = artin.class_images_of_norm(D, n).entries
        assert len(entries) > 4
        for choice, form in entries:
            want = g.principal
            for l, kind, e in choice.forced:
                if kind == "ramified":
                    want = g.compose(want, g.power(artin.prime_form(D, l), e))
            for l, e, j in choice.split:
                want = g.compose(want, g.power(artin.prime_form(D, l), 2 * j - e))
            assert form == artin.reduce_form(want), (D, n, choice)


def test_ideal_norm_classes_match_representation():
    # a split prime's class is principal exactly when the prime itself is
    # representable as |x^2 - D y^2|
    for D in (34, 146, 221):
        g = artin.class_group(4 * D)
        for l in (3, 5, 7, 11, 13, 19, 29, 31, 41, 43):
            if quadring.splitting_type(D, l) != "split":
                continue
            f = artin.prime_form(D, l)
            representable = (
                pellsolver.solve(D, l).solvable or pellsolver.solve(D, -l).solvable
            )
            assert g.is_principal(f) == representable, (D, l)


def test_twist_symbol_examples():
    tw34 = quadring.find_twist_point(34, 2)
    trivial = artin.AdelicChoice((), ((2, "ramified", 0),))
    assert artin.twist_symbol(34, tw34, trivial, -1) == -1
    assert artin.twist_symbol(34, tw34, trivial, 1) == 1
    tw146 = quadring.find_twist_point(146, 2)
    assert artin.twist_symbol(146, tw146, trivial, -2) == 1
    assert artin.twist_symbol(146, tw146, trivial, 2) == -1


def test_twist_symbol_matches_character_table():
    # when n has no odd prime factors the symbol product reduces to the
    # place over 2, which the character table encodes by norm class
    from pellcrit.localanalysis import character_table, square_class_2

    def norm_class_2(u):
        # class of u among the local norms 1, -1, 2, -2 at a field ramified
        # at 2; None when u is not a norm (unit part +-5 mod squares)
        par, rep = square_class_2(u)
        if rep in (5, -5):
            return None
        return rep * (2 if par else 1)

    for D in (34, 146, 466, 1394):
        tw = quadring.find_twist_point(D, 2)
        tab = character_table(D, tw)
        trivial = artin.AdelicChoice((), ())
        for n in (1, -1, 2, -2, 4, -4, 8, -8, 16, 32, -32):
            cls = norm_class_2(n)
            got = artin.twist_symbol(D, tw, trivial, n)
            assert got == tab.value(cls), (D, n)


def twist_residue_square(D, twist, place):
    """Whether x0 - y0 sqrt(D) is a square in the residue field at the place.

    Only defined away from 2 and the twist prime (where the extension is
    unramified); the unit part of the element is tested.
    """
    l = place.l
    if l == 2 or l == twist.ell:
        raise ValueError("place must be prime to 2 and the twist prime")
    return jacobi(localanalysis._val_unit(*twist.element(), place)[1], l) == 1


def _reference_twist_symbol(D, twist, choice, n, *, fac=None):
    # the twist symbol as it was before its per-prime and 2-adic caches:
    # every place recomputed from n on every call
    if fac is None:
        fac = factor(abs(n))
    place2 = places_over(D, 2)[-1]
    ell = twist.ell
    theta = twist.element()
    sym = 1
    # places over 2
    if place2.kind == SPLIT:
        # 2 is never a split prime of a choice (class_images_of_norm stops
        # first), so the whole of n sits at the second place over 2
        sym *= hilbert_ev(n, theta, place2)
    else:
        pt = find_local_point(D, n, 2, prec=valuation(n, 2) + 18)
        if pt is None:
            raise ValueError(f"no 2-adic point for D={D}, n={n}")
        sym *= hilbert_ev((pt.x, pt.y), theta, place2)
    # place over the odd twist prime
    if ell != 2:
        pt = find_local_point(D, n, ell, prec=valuation(n, ell) + 10)
        if pt is None:
            raise ValueError(f"no {ell}-adic point for D={D}, n={n}")
        sym *= hilbert_ev((pt.x, pt.y), theta, places_over(D, ell)[0])
    # everywhere else only odd-valuation data of n contributes.  The primes
    # of z0 add nothing of their own: split and ramified places need an odd
    # exponent in n, and no inert prime divides z0, as it would divide both
    # x0 and y0
    for l, e in fac.factors:
        if l in (2, ell):
            continue
        st = splitting_type(D, l)
        if st == SPLIT:
            j = choice.j_at(l)
            vp_pl, vm_pl = places_over(D, l)
            if j % 2:
                sym *= 1 if twist_residue_square(D, twist, vp_pl) else -1
            if (e - j) % 2:
                sym *= 1 if twist_residue_square(D, twist, vm_pl) else -1
        elif (e // 2 if st == INERT else e) % 2:
            # the one place over l takes e/2 of n when inert, e when ramified
            place = places_over(D, l)[0]
            sym *= 1 if twist_residue_square(D, twist, place) else -1
    return sym


def test_twist_symbol_matches_reference():
    # every choice of every locally solvable 0 < |n| <= 300, over every
    # applicable D < 1500: 2 split (D = 1 mod 8), inert (5 mod 8), ramified
    ds = [D for D in range(2, 1500) if not is_square(D) and artin._applicable(D)]
    assert {D % 8 for D in ds} == {1, 2, 5}
    compared = 0
    for D in ds:
        twist = artin.canonical_twist(D)
        for n in range(-300, 301):
            if n == 0 or artin.local_obstruction_anywhere(D, n) is not None:
                continue
            try:
                images = artin.class_images_of_norm(D, n)
            except NotImplementedError:  # 2 split in Q(sqrt D) and 4 | n
                continue
            for choice, _ in images.entries:
                got = artin.twist_symbol(D, twist, choice, n)
                assert got == _reference_twist_symbol(D, twist, choice, n), (D, n, choice)
                compared += 1
    assert compared > 5000
    # twist points other than the canonical one
    for D in (34, 146):
        for twist in itertools.islice(quadring.twist_point_candidates(D, 2), 4):
            for n in range(-120, 121):
                if n == 0 or artin.local_obstruction_anywhere(D, n) is not None:
                    continue
                for choice, _ in artin.class_images_of_norm(D, n).entries:
                    got = artin.twist_symbol(D, twist, choice, n)
                    assert got == _reference_twist_symbol(D, twist, choice, n), (D, twist, n)


def _pq_family_ds():
    # the 25 D < 3000 where the joint criterion applies with an odd twist prime
    ds = [D for D in range(3, 3000, 2) if not is_square(D) and artin._applicable(D)]
    assert len(ds) == 25
    return ds


def test_head_reads_the_hilbert_symbol_at_the_odd_twist_prime():
    # at the odd twist prime l, _head's quartic symbol (u/l)_4 equals the
    # Hilbert symbol over E_v at an l-adic point, on every applicable pq D
    # < 3000 and every locally solvable 0 < |n| <= 1000, and u is a square
    # mod l exactly when an l-adic point exists, on every n
    compared = 0
    for D in _pq_family_ds():
        twist = artin.canonical_twist(D)
        ell, theta, place = twist.ell, twist.element(), places_over(D, twist.ell)[0]
        for n in range(-1000, 1001):
            if n == 0:
                continue
            pt = find_local_point(D, n, ell, prec=valuation(n, ell) + 10)
            u = n // ell ** valuation(n, ell)
            assert (pt is not None) == (jacobi(u, ell) == 1), (D, n)
            if pt is None or artin.local_obstruction_anywhere(D, n) is not None:
                continue
            v = valuation(n, 2)
            want = artin._two_adic_factor(D, twist, ((n >> v) % 16) << (v % 4))
            want *= hilbert_ev((pt.x, pt.y), theta, place)
            assert artin._head(D, twist, n) == want, (D, n)
            compared += 1
    assert compared == 7642


def _twist_points():
    # the three least twist points of every twist prime of every D < 3000
    # in either family: both primes of a pq D, 2 for a 2d D
    for D in range(2, 3000):
        if is_square(D):
            continue
        info = quadring.classify_order(D)
        for ell in {"pq": info.primes, "2d": (2,)}.get(info.family, ()):
            yield from itertools.islice(quadring.twist_point_candidates(D, ell), 3)


def _reference_twist_half(D, twist, l, e, kind):
    # the twist half as it was computed from the places over l, with a
    # 24-digit root of D at a split l
    if l in (2, twist.ell) or (kind != SPLIT and (e // 2 if kind == INERT else e) % 2 == 0):
        return (1, 1)
    r = [1 if twist_residue_square(D, twist, pl) else -1 for pl in places_over(D, l)]
    return (r[0], r[0]) if kind != SPLIT else (r[1], r[0]) if e % 2 else (1, r[0] * r[1])


def test_twist_half_matches_the_places_over_l():
    # _twist_half's Legendre symbols against the residue characters at the
    # places over l, over the twist points of both families, every odd
    # l < 600 and e in {1, 2, 3}, with the split l that divide z0 (where the
    # root needs 2 v_l(z0) + 2 digits) counted apart
    odd = [l for l in intcore._sieve(600) if l != 2]
    points = list(_twist_points())
    assert len(points) == 399
    compared = split_z0 = 0
    for tw in points:
        for l in odd:
            kind = splitting_type(tw.D, l)
            for e in (1, 2, 3):
                got = artin._twist_half(tw.D, tw, l, e, kind)
                assert got == _reference_twist_half(tw.D, tw, l, e, kind), (tw, l, e)
                compared += 1
                split_z0 += kind == SPLIT and tw.z0 % l == 0
    assert compared == 399 * 108 * 3 and split_z0 == 891
    # an odd l with l^2 | D has no place with sqrt(D) as uniformizer
    tw98 = quadring.find_twist_point(98, 2)
    for half in (artin._twist_half, _reference_twist_half):
        with pytest.raises(ValueError, match="7\\^2 divides"):
            half(98, tw98, 7, 1, "ramified")


def test_head_reads_the_hilbert_symbol_at_any_odd_twist_point(monkeypatch):
    # at every odd twist point with z0 != 1 of the grid above, and every
    # 0 < |n| <= 150, the factor at the twist prime l is the Hilbert symbol
    # over E_v at an l-adic point, (u/l)_4 (z0/l)^k, or ValueError where
    # there is no l-adic point
    monkeypatch.setattr(artin, "_two_adic_factor", lambda *args: 1)
    points = [tw for tw in _twist_points() if tw.ell != 2 and tw.z0 != 1]
    assert len(points) == 222
    compared = 0
    for tw in points:
        D, ell, theta = tw.D, tw.ell, tw.element()
        place = places_over(D, ell)[0]
        for n in range(-150, 151):
            if n == 0:
                continue
            pt = find_local_point(D, n, ell, prec=valuation(n, ell) + 10)
            if pt is None:
                with pytest.raises(ValueError, match="quartic symbol undefined"):
                    artin._head(D, tw, n)
            else:
                assert artin._head(D, tw, n) == hilbert_ev((pt.x, pt.y), theta, place), (tw, n)
            compared += 1
    assert compared == 66600


def test_twist_symbol_at_a_twist_point_with_z0_3():
    # D = 145 = 5 * 29 is outside cor14, and its twist point has z0 = 3:
    # the symbol is defined there and agrees with the Hilbert-symbol path
    D = 145
    twist = artin.canonical_twist(D)
    assert twist.z0 == 3 and not artin._applicable(D)
    compared = 0
    for n in range(-300, 301):
        if n == 0 or n % 4 == 0 or artin.local_obstruction_anywhere(D, n) is not None:
            continue  # 2 splits at D = 1 mod 8, so 4 | n is outside the model
        for choice, _ in artin.class_images_of_norm(D, n).entries:
            got = artin.twist_symbol(D, twist, choice, n)
            assert got == _reference_twist_symbol(D, twist, choice, n), (n, choice)
            compared += 1
    assert compared == 168


def test_warm_pq_decisions_take_no_odd_local_point(monkeypatch):
    # the odd twist prime's factor is a quartic symbol and the twist halves
    # are Legendre symbols: decisions whose records are built afresh search
    # for a local point, take a Hilbert symbol and name a place at 2 only,
    # in both families
    grid = [(D, n) for D in (205, 221, 1469, 34, 146, 1394) for n in range(-500, 501) if n]
    first = [artin.joint_artin_decide(D, n) for D, n in grid]
    primes = {"find_local_point": set(), "hilbert_ev": set(), "places_over": set()}

    def counting(module, name, prime):
        orig = getattr(module, name)

        def wrapped(*args, **kwargs):
            primes[name].add(prime(args))
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for module in (artin, localanalysis):
        counting(module, "find_local_point", lambda args: args[2])
        counting(module, "hilbert_ev", lambda args: args[2].l)
        counting(module, "places_over", lambda args: args[1])
    artin._two_adic_factor.cache_clear()
    artin._prime_record.cache_clear()
    assert [artin.joint_artin_decide(D, n) for D, n in grid] == first
    assert primes == {"find_local_point": {2}, "hilbert_ev": {2}, "places_over": {2}}
    assert sum(v.provenance == "artin" and v.solvable for v in first) > 200


def test_head_takes_twist_points_with_z0_other_than_1(monkeypatch):
    # D = 205 = 5 * 41 with cor14: the least twist point has z0 = 1, and
    # the next, (15, 1, 2), has (z0/5) = -1, so the Hilbert symbol at 5
    # against it is -(u/5)_4 at n = 5 (u = 1, k = 1).  canonical_twist takes
    # such a point as it comes, and _head reads the symbol from it; a twist
    # prime that does not divide D, or whose square does, is refused
    D = 205
    far = next(tp for tp in quadring.twist_point_candidates(D, 5) if tp.z0 != 1)
    assert far == (15, 1, 2, 5, D) and artin.canonical_twist(D).z0 == 1
    pt = find_local_point(D, 5, 5)
    want = hilbert_ev((pt.x, pt.y), far.element(), places_over(D, 5)[0])
    assert want == -quartic_residue(1, 5)
    assert artin._head(D, far, 5) == artin._two_adic_factor(D, far, 5) * want
    monkeypatch.setattr(artin, "find_twist_point", lambda D, ell: far)
    assert artin.canonical_twist.__wrapped__(D) == far
    for D, twist in ((D, next(quadring.twist_point_candidates(D, 61))),
                     (275, quadring.TwistPoint(20, 1, 5, 5, 275))):
        with pytest.raises(ValueError, match="quartic form"):
            artin._head(D, twist, 1)


def test_class_images_forms_are_reduced():
    # class_images_of_norm does not reduce its leaf forms again: each is the
    # principal form or a compose result, and both are already reduced
    ds = [D for D in range(2, 1500) if not is_square(D) and artin._applicable(D)]
    assert len(ds) == 26
    entries = 0
    for D in ds:
        for n in range(-300, 301):
            if n == 0 or artin.local_obstruction_anywhere(D, n) is not None:
                continue
            try:
                images = artin.class_images_of_norm(D, n)
            except NotImplementedError:  # 2 split in Q(sqrt D) and 4 | n
                continue
            for _, form in images.entries:
                assert form == artin.reduce_form(form), (D, n, form)
                entries += 1
    assert entries > 7000


def _reference_some_choice_passes(D, n, twist, fac):
    # the joint condition as it was before the walk: every choice is built
    # first, and then tested in order
    images = artin.class_images_of_norm(D, n, fac=fac)
    if images.obstruction is not None:
        return False
    group = artin.class_group(images.disc)
    return any(
        group.is_principal(form) and artin.twist_symbol(D, twist, choice, n, fac=fac) == 1
        for choice, form in images.entries
    )


# The ideal data, choice walk and twist parts as they were before the
# per-prime record: the powers of a prime form and the residue signs are
# recomputed on every call, and the walk is a recursive generator


def _reference_ideal_data(D, n, fac):
    # (disc, obstruction, base, split, forced), split holding (l, e, powers)
    # with powers[j] the class of l^(2j - e)
    disc = D if D % 8 == 5 and n % 4 == 0 else 4 * D
    group = artin.class_group(disc)

    def prime_power(l, k):
        return group.power(artin.prime_form(D, l, disc), k)

    split, forced = [], []
    base = group.principal
    for l, e in fac.factors:
        st = splitting_type(D, l)
        if st == INERT:
            if e % 2:
                return disc, l, base, (), ()
            forced.append((l, INERT, e // 2))
        elif st == "ramified":
            forced.append((l, "ramified", e))
            base = group.compose(base, prime_power(l, e))
        else:
            if l == 2:
                if e == 1:
                    return disc, 2, base, (), ()
                raise NotImplementedError("split conductor prime 2 with 4 | n")
            split.append((l, e, tuple(prime_power(l, 2 * j - e) for j in range(e + 1))))
    if len(split) > artin._MAX_SPLIT_PRIMES:
        raise ValueError("too many split primes")
    return disc, None, base, tuple(split), tuple(forced)


def _reference_choices(principal, split, base):
    # depth first over the split exponents: (chosen split, reduced form)
    def walk(i, chosen, acc):
        if i == len(split):
            yield chosen, acc
            return
        l, e, powers = split[i]
        for j, contrib in enumerate(powers):
            yield from walk(
                i + 1, chosen + ((l, e, j),),
                contrib if acc is principal else artin._compose(acc, contrib),
            )

    return walk(0, (), base)


def _reference_twist_parts(D, twist, n, fac):
    # (sym, signs): the symbol at 2, the twist prime, the inert and ramified
    # primes, and per split prime l the factor at j even and at j odd
    ell = twist.ell
    v = valuation(n, 2)
    sym = artin._two_adic_factor(D, twist, ((n >> v) % 16) << (v % 4))
    if ell != 2:
        pt = find_local_point(D, n, ell, prec=valuation(n, ell) + 10)
        if pt is None:
            raise ValueError(f"no {ell}-adic point for D={D}, n={n}")
        sym *= hilbert_ev((pt.x, pt.y), twist.element(), places_over(D, ell)[0])
    signs = {}
    for l, e in fac.factors:
        if l in (2, ell):
            continue
        st = splitting_type(D, l)
        res = tuple(1 if twist_residue_square(D, twist, pl) else -1 for pl in places_over(D, l))
        if st == SPLIT:
            signs[l] = (res[1], res[0]) if e % 2 else (1, res[0] * res[1])
        elif (e // 2 if st == INERT else e) % 2:
            sym *= res[0]
    return sym, signs


def _reference_class_images(D, n, fac):
    disc, obstruction, base, split, forced = _reference_ideal_data(D, n, fac)
    if obstruction is not None:
        return artin.ClassImages((), obstruction, disc)
    principal = artin.class_group(disc).principal
    return artin.ClassImages(tuple(
        (artin.AdelicChoice(chosen, forced), form)
        for chosen, form in _reference_choices(principal, split, base)
    ), None, disc)


def _reference_symbol(D, twist, choice, n, fac):
    sym, signs = _reference_twist_parts(D, twist, n, fac)
    for l, by_parity in signs.items():
        sym *= by_parity[choice.j_at(l) % 2]
    return sym


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotImplementedError, ValueError) as exc:
        return type(exc)


def test_walk_matches_reference_some_choice_passes():
    # every 0 < |n| <= 300 at every applicable D < 1500, locally obstructed
    # or not: the same answer, or the same exception, as the full build; the
    # same class images, to the exact reduced form; and the same symbol at
    # every choice, as the references from before the per-prime record
    ds = [D for D in range(2, 1500) if not is_square(D) and artin._applicable(D)]
    assert len(ds) == 26
    seen = {True: 0, False: 0, NotImplementedError: 0, "disc D": 0, "symbols": 0}
    for D in ds:
        twist = artin.canonical_twist(D)
        for n in range(-300, 301):
            if n == 0:
                continue
            fac = factor(abs(n))
            got = _outcome(artin._some_choice_passes, D, n, twist, fac)
            assert got == _outcome(_reference_some_choice_passes, D, n, twist, fac), (D, n)
            images = _outcome(artin.class_images_of_norm, D, n)
            assert images == _outcome(_reference_class_images, D, n, fac), (D, n)
            for choice, _ in () if isinstance(images, type) else images.entries:
                want = _outcome(_reference_symbol, D, twist, choice, n, fac)
                assert _outcome(artin.twist_symbol, D, twist, choice, n) == want, (D, n, choice)
                seen["symbols"] += want in (1, -1)
            if got in seen:
                seen[got] += 1
            if got is True and D % 8 == 5 and n % 4 == 0:
                seen["disc D"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("D, n, visited", [(221, 1505, 3), (34, -705, 3), (1394, 455, 2)])
def test_walk_stops_at_the_first_passing_choice(monkeypatch, D, n, visited):
    # three or more split primes, and a choice early in the walk passes: the
    # walk stops there, and the per-n head of the symbol is computed once
    fac = factor(abs(n))
    entries = artin.class_images_of_norm(D, n, fac=fac).entries
    assert len(entries[0][0].split) >= 3 and len(entries) > visited
    leaves, heads = [], []
    walk, head = artin._walk, artin._head

    def counting_walk(principal, base, split, leaf):
        def counting_leaf(js, form):
            leaves.append((tuple((r.l, r.e, j) for r, j in zip(split, js)), form))
            return leaf(js, form)

        return walk(principal, base, split, counting_leaf)

    def counting_head(*args):
        heads.append(args)
        return head(*args)

    monkeypatch.setattr(artin, "_walk", counting_walk)
    monkeypatch.setattr(artin, "_head", counting_head)
    assert artin._some_choice_passes(D, n, artin.canonical_twist(D), fac)
    assert len(leaves) == visited and len(heads) == 1
    assert [(c.split, f) for c, f in entries[:visited]] == leaves
    v = artin.joint_artin_decide(D, n)
    x, y = v.witness
    assert v.provenance == "artin" and x * x - D * y * y == n


def test_two_adic_factor_is_finer_than_square_class():
    # n = 1 and n = 9 share a Q_2 square class but not a class modulo squares
    # of local norms, and their 2-adic factors differ; keying the cache on
    # the square class would merge them
    assert square_class_2(1) == square_class_2(9)
    for D in (34, 146, 1394):
        twist = artin.canonical_twist(D)
        assert artin._two_adic_factor(D, twist, 1) == 1
        assert artin._two_adic_factor(D, twist, 9) == -1
    # at D = 34 the prime 3 splits, and with both factors over 3 on one side
    # the whole symbol is the factor at 2
    trivial = artin.AdelicChoice((), ())
    tw34 = artin.canonical_twist(34)
    assert _reference_twist_symbol(34, tw34, trivial, 1) == 1
    assert _reference_twist_symbol(34, tw34, trivial, 9) == -1


def test_local_obstruction_labels_match_the_oracle():
    # the criterion and the oracle share one local scan, so a locally
    # obstructed pair names the same prime in both verdicts.  The grid is
    # the 2d-family D = 2d <= 1000 with thm24_applicable(d), plus 1394
    ds = [
        D for D in range(2, 1001, 2)
        if not is_square(D) and quadring.classify_order(D).family == "2d"
        and artin.thm24_applicable(D // 2)
    ] + [1394]
    assert len(ds) == 12
    obstructed = 0
    for D in ds:
        for n in range(-500, 501):
            if n == 0 or artin.local_obstruction_anywhere(D, n) is None:
                continue
            v = artin.joint_artin_decide(D, n)
            assert v.reason == pellsolver.solve(D, n).reason, (D, n, v.reason)
            obstructed += 1
    assert obstructed > 9000


def test_joint_decide_raises_when_the_oracle_lies(monkeypatch, capsys):
    # 34, 2 is solvable; 34, -8 is locally solvable but fails the condition
    assert artin.joint_artin_decide(34, -8).reason == "artin-condition-fails"
    monkeypatch.setattr(pellsolver, "minimal_solutions", lambda D, n: [])
    with pytest.raises(ArithmeticError):
        artin.joint_artin_decide(34, 2)
    assert cli.main(["decide", "34", "2"]) == cli.EXIT_INCONSISTENT
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    monkeypatch.setattr(pellsolver, "minimal_solutions", lambda D, n: [(1, 1)])
    with pytest.raises(ArithmeticError):
        artin.joint_artin_decide(34, -8)


def test_joint_decide_anchors():
    v = artin.joint_artin_decide(221, 17)
    assert v.status == "solvable" and v.witness == (119, 8) and v.provenance == "artin"
    v = artin.joint_artin_decide(221, -1)
    assert v.status == "unsolvable" and v.provenance == "artin"
    v = artin.joint_artin_decide(34, -1)
    assert v.status == "unsolvable"
    v = artin.joint_artin_decide(34, 2)
    assert v.status == "solvable" and v.witness == (6, 1)
    v = artin.joint_artin_decide(82, 2)
    assert v.status == "unsolvable" and v.provenance == "oracle"


def test_joint_decide_is_one_pass(monkeypatch):
    # with the per-D state warm, a decision factors |n| once, never
    # classifies D again, and tests each prime of 2 D n for a local point
    # once, by the per-D plan: Euler's criterion for a unit n at 41 | D and
    # for the unit D at 7 || n, the descent only at 17, which divides D and
    # n, nothing at 3, whose exponent in n is even, and at 2 one lookup of
    # the verdict by square class, which runs no closed form once warm
    D, n = 1394, 1071  # 1394 = 2 * 17 * 41, 1071 = 3^2 * 7 * 17
    artin.joint_artin_decide(D, n)
    names = (
        "factor", "classify_order", "_odd_solvable", "_two_adic_ok", "_two_adic_layer", "pow"
    )
    calls = {name: [] for name in names}

    def counting(module, name, orig):
        def wrapped(*args, **kwargs):
            calls[name].append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped, raising=False)

    for module in (artin, intcore):
        counting(module, "factor", factor)
    counting(artin, "classify_order", artin.classify_order)
    counting(intcore, "_odd_solvable", intcore._odd_solvable)
    counting(intcore, "_two_adic_ok", intcore._two_adic_ok)
    counting(intcore, "_two_adic_layer", intcore._two_adic_layer)
    counting(intcore, "pow", pow)  # shadows the builtin inside intcore only
    misses = factor.cache_info().misses
    v = artin.joint_artin_decide(D, n)
    assert v.solvable and v.provenance == "artin"
    x, y = v.witness
    assert x * x - D * y * y == n
    # the local test factors |n| once 2 passes, and the criterion reads it
    # back from the memo, which computes nothing
    assert calls["factor"] == [(n,), (n,)] and factor.cache_info().misses == misses
    assert calls["classify_order"] == []
    # (v2(D), D's odd part mod 8, v2(n), n's odd part mod 8)
    assert calls["_two_adic_ok"] == [(1, 697 & 7, 0, 1071 & 7)]
    assert calls["_two_adic_layer"] == []
    assert calls["_odd_solvable"] == [(D, n, 17, 1)]
    assert sorted(args[2] for args in calls["pow"]) == [7, 17, 41]


def test_obstructed_verdicts_are_interned(assert_bounded):
    # one immutable verdict per (provenance, obstructing prime), shared by
    # the joint decision and the oracle: 13 and 15 are both obstructed at 41
    D = 1394
    joint = artin.joint_artin_decide(D, 13)
    assert joint == ("unsolvable", None, "artin", "local-obstruction:41")
    assert artin.joint_artin_decide(D, 15) is joint is pellsolver._obstructed("artin", 41)
    oracle = pellsolver.solve(D, 13)
    assert oracle == ("unsolvable", None, "oracle", "local-obstruction:41")
    assert pellsolver.solve(D, 15) is oracle is pellsolver._obstructed("oracle", 41)
    # locally solvable everywhere, yet no integral point
    exhausted = pellsolver.solve(82, 2)
    assert exhausted == ("unsolvable", None, "oracle", "class-search-exhausted")
    assert pellsolver.solve(D, 2) is exhausted is pellsolver._obstructed("oracle", None)
    assert_bounded(pellsolver._obstructed, [("artin", l) for l in range(4097)], 4096)


def test_warm_decision_reads_per_prime_caches(monkeypatch):
    # n1 = n * 23^2 has the prime powers of n = -370 (2, 5 and 37, each to
    # the first power), the inert 23 besides, and the same 2-adic key, as
    # 23^2 = 1 mod 16.  After n1, deciding n builds no prime form, place or
    # local point, which a memo keyed on (D, n) could not achieve
    D, n = 1394, -370
    n1 = n * 23**2
    assert n1 == -195730 and quadring.splitting_type(D, 23) == INERT
    assert artin.joint_artin_decide(D, n1).status == "solvable"
    calls = {"prime_form": 0, "places_over": 0, "find_local_point": 0}

    def counting(name):
        orig = getattr(artin, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(artin, name, wrapped)

    for name in calls:
        counting(name)
    v = artin.joint_artin_decide(D, n)
    x, y = v.witness
    assert v.status == "solvable" and v.provenance == "artin" and x * x - D * y * y == n
    assert calls == {"prime_form": 0, "places_over": 0, "find_local_point": 0}


def test_head_waits_for_a_principal_choice(monkeypatch):
    # n = -282 = -2 * 3 * 47 at D = 34 (obstructed at 17) has choices but no
    # principal one: the walk computes no head.  The solvable n = 94 = 2 * 47
    # computes it once
    D, n = 34, -282
    twist = artin.canonical_twist(D)
    calls = {"_head": 0}

    def counting(name):
        orig = getattr(artin, name)

        def wrapped(*args):
            calls[name] += 1
            return orig(*args)

        monkeypatch.setattr(artin, name, wrapped)

    for name in calls:
        counting(name)
    assert not artin._some_choice_passes(D, n, twist, factor(abs(n)))
    assert len(artin.class_images_of_norm(D, n).entries) == 4
    assert calls == {"_head": 0}
    assert artin.joint_artin_decide(D, 94).status == "solvable"
    assert calls == {"_head": 1}


def test_prime_records_hold_the_joint_2d_grid(monkeypatch):
    # the grid of the joint_2d benchmark, 12 D and 0 < |n| <= 500, needs
    # fewer records, square divisors, thread roots, principal-cycle
    # continuants and unsolvable verdicts than their bounds: a second pass
    # builds none and decides alike.  Of its 1,860 PQa threads, 192 stop at
    # a hit before their first reduced state, and the other 1,668 end on 66
    # states
    ds = [
        D for D in range(2, 1001, 2)
        if not is_square(D) and quadring.classify_order(D).family == "2d"
        and artin.thm24_applicable(D // 2)
    ] + [1394]
    grid = [(D, n) for D in ds for n in range(-500, 501) if n]
    assert len(grid) == 12000
    memos = (
        artin._prime_record, pellsolver._square_divisors, pellsolver._thread_roots,
        pellsolver._cycle_continuants, pellsolver._unsolvable,
    )
    for memo in memos:
        memo.cache_clear()
    threads = []
    pqa = pellsolver._pqa_thread
    monkeypatch.setattr(
        pellsolver, "_pqa_thread", lambda D, m, z: threads.append(z) or pqa(D, m, z)
    )
    first = [artin.joint_artin_decide(D, n) for D, n in grid]
    infos = [memo.cache_info() for memo in memos]
    for info in infos:
        assert 0 < info.currsize == info.misses < info.maxsize
    assert len(threads) == 1860
    assert infos[3].currsize == 66 and infos[3].hits + infos[3].misses == 1668
    assert [artin.joint_artin_decide(D, n) for D, n in grid] == first
    assert [memo.cache_info().misses for memo in memos] == [info.misses for info in infos]


def test_prime_records_are_bounded():
    # D = 34: decisions at more distinct split primes than the bound fill the
    # records to it and no further, and a decision whose record was evicted
    # is rebuilt with the same verdict
    maxsize = artin._prime_record.cache_info().maxsize
    assert maxsize == 4096
    artin._prime_record.cache_clear()
    decided = []
    l = 3
    while len(decided) < maxsize + 100:
        l += 2
        if not is_prime(l) or splitting_type(34, l) != SPLIT:
            continue
        n = next((m for m in (l, -l, 2 * l, -2 * l)
                  if artin.local_obstruction_anywhere(34, m) is None), None)
        if n is not None:
            decided.append((n, artin.joint_artin_decide(34, n)))
    info = artin._prime_record.cache_info()
    assert info.misses > maxsize and info.currsize == maxsize
    assert {v.provenance for _, v in decided} == {"artin"}
    assert {v.status for _, v in decided} == {"solvable", "unsolvable"}
    for n, v in decided[:3]:
        assert artin.joint_artin_decide(34, n) == v
    after = artin._prime_record.cache_info()
    assert after.misses == info.misses + 3 and after.currsize == maxsize


def test_class_groups_are_bounded(assert_bounded):
    ds = [D for D in range(2, 200) if not is_square(D)][:129]
    view = attrgetter("disc", "principal", "principal_forms")
    assert_bounded(artin.class_group, [(4 * D,) for D in ds], 128, view)


def test_two_adic_engines_are_bounded(assert_bounded):
    # nonsplit D with v2(D) <= 1, the fields Q_2(sqrt(D))
    ds = [D for D in range(2, 400) if D % 4 in (2, 3) or D % 8 == 5][:129]
    view = attrgetter("kind", "_vec", "_table")
    assert_bounded(localanalysis.two_adic_context, [(D,) for D in ds], 128, view)


def _family_ds():
    # D of either family with a twist point, in increasing order
    for D in itertools.count(3):
        if not is_square(D) and quadring.classify_order(D).family != quadring.FAMILY_OTHER:
            try:
                artin.canonical_twist(D)
            except ValueError:  # no twist point within the search bound
                continue
            yield D


def test_twist_points_and_applicability_are_bounded(assert_bounded):
    family = [(D,) for D in itertools.islice(_family_ds(), 1025)]
    assert_bounded(artin.canonical_twist, family, 1024)
    nonsquare = [(D,) for D in range(2, 3000) if not is_square(D)]
    assert_bounded(artin._applicable, nonsquare[:1025], 1024)


def test_two_adic_factors_are_bounded(assert_bounded):
    # 2 splits at D = 1 mod 8, so every one of the 32 keys r has a symbol
    twists = (artin.canonical_twist(D) for D in _family_ds() if D % 8 == 1)
    keys = [(tw.D, tw, u << w) for tw in itertools.islice(twists, 129)
            for w in range(4) for u in range(1, 16, 2)]
    assert_bounded(artin._two_adic_factor, keys[:4097], 4096)


def test_decisions_survive_an_evicted_class_group():
    # a class group evicted between two decisions at its D is rebuilt, while
    # the cached prime records still hold forms of the old group, its
    # principal form among them: equal verdicts and class images
    ds = [1394, next(D for D in range(2, 1500) if D % 8 == 5 and artin._applicable(D))]
    ns = [n for n in range(-500, 501) if n]

    def decisions():
        return [(artin.joint_artin_decide(D, n), _outcome(artin.class_images_of_norm, D, n))
                for D in ds for n in ns]

    first = decisions()
    groups = [artin.class_group(disc) for disc in (4 * ds[0], ds[1], 4 * ds[1])]
    records = artin._prime_record.cache_info()
    for D in range(2, 300):
        if not is_square(D) and D not in ds:
            artin.class_group(4 * D)
    assert decisions() == first
    assert all(artin.class_group(g.disc) is not g for g in groups)
    assert artin._prime_record.cache_info().misses == records.misses


def test_repeated_decision_composes_and_factors_nothing_new():
    # both memos hold everything a decided (D, n) needs
    D, n = 1394, -370  # 2 ramified, 5 and 37 split: every branch composes
    artin.joint_artin_decide(D, n)
    comp, fac = artin._compose.cache_info(), factor.cache_info()
    artin.joint_artin_decide(D, n)
    assert artin._compose.cache_info().misses == comp.misses
    assert artin._compose.cache_info().hits > comp.hits
    assert factor.cache_info().misses == fac.misses
    assert factor.cache_info().hits > fac.hits


def _random_forms(disc, count, rng):
    # primitive forms (a, b, (b^2 - disc) / 4a) from random b and divisors a
    forms = set()
    while len(forms) < count:
        b = 2 * rng.randrange(-2 * math.isqrt(disc), 2 * math.isqrt(disc)) + disc % 2
        N = (b * b - disc) // 4
        if N == 0:
            continue
        a = rng.choice((-1, 1))
        for p, e in factor(N).factors:
            a *= p ** rng.randint(0, e)
        if math.gcd(math.gcd(a, b), N // a) == 1:
            forms.add(artin.Form(a, b, N // a))
    return list(forms)


@pytest.mark.parametrize("disc", [4 * 1394, 4 * 10007, 221])
def test_compose_memo_matches_raw_composition(disc):
    rng = random.Random(disc)
    group = artin.class_group(disc)
    forms = _random_forms(disc, 40, rng)
    raw = artin._compose.__wrapped__
    for _ in range(300):
        f1, f2 = rng.choice(forms), rng.choice(forms)
        want = raw(f1, f2)
        assert want.disc == disc
        # the first call may fill the memo, the second reads it
        assert group.compose(f1, f2) == want and group.compose(f1, f2) == want, (f1, f2)
    for f in forms:
        # the principal form on the left is reduced directly, outside the memo
        assert group.compose(group.principal, f) == raw(group.principal, f), f


def test_compose_memo_is_bounded():
    maxsize = artin._compose.cache_info().maxsize
    assert maxsize is not None
    disc = 4 * 10007
    group = artin.class_group(disc)
    forms = _random_forms(disc, math.isqrt(maxsize) + 10, random.Random(3))
    for f1 in forms:
        for f2 in forms:
            group.compose(f1, f2)
    assert len(forms) ** 2 > maxsize
    assert artin._compose.cache_info().currsize <= maxsize


def test_joint_decide_sweeps():
    for D in (34, 146, 221):
        for n in range(-250, 251):
            if n == 0:
                continue
            artin.joint_artin_decide(D, n)  # raises on any oracle mismatch


def test_joint_decide_split_at_two():
    # D = 305 = 5 * 61 is 1 mod 8, so the place over 2 splits; odd n runs
    # through the two-component symbol product, 4 | n falls back
    seen_artin = 0
    for n in range(-300, 301):
        if n == 0:
            continue
        v = artin.joint_artin_decide(305, n)
        if v.provenance == "artin":
            seen_artin += 1
        elif n % 4 == 0:
            assert v.provenance == "oracle"
    assert seen_artin > 500
    v = artin.joint_artin_decide(305, 5)
    assert v.status == "solvable" and v.witness == (35, 2)


# D = pq = 5 mod 8 with cor14_applicable and 4 | n: a solution may be 2 alpha
# with alpha in the maximal order only, which classes of discriminant 4D miss
@pytest.mark.parametrize(
    "D, n", [(1691629, -276), (1098421, -784), (1857781, 560), (1169237, -212)]
)
def test_joint_decide_pq_5_mod_8_four_divides_n(D, n):
    v = artin.joint_artin_decide(D, n)
    x, y = v.witness
    assert v.provenance == "artin" and x * x - D * y * y == n


def test_necessity_direction():
    # class field theory: solvable implies the joint Artin condition holds,
    # for every family member (no extra hypotheses needed)
    random.seed(17)
    ds = [2, 34, 82, 146, 178, 226]
    for D in ds:
        for n in range(-120, 121):
            if n == 0:
                continue
            if pellsolver.solve(D, n).solvable:
                assert artin.artin_condition(D, n), (D, n)


def test_twist_choice_invariance_of_decision():
    for D in (34, 146):
        cands = []
        for tp in quadring.twist_point_candidates(D, 2):
            cands.append(tp)
            if len(cands) == 2:
                break
        for n in range(-40, 41):
            if n == 0:
                continue
            vals = {artin.artin_condition(D, n, twist=tp) for tp in cands}
            assert len(vals) == 1, (D, n)


def test_applicability_predicates():
    assert artin.cor14_applicable(13, 17)
    assert artin.cor14_applicable(17, 13)
    assert not artin.cor14_applicable(5, 13)  # (13/5) = -1
    assert not artin.cor14_applicable(5, 29)  # quartic product is +1
    assert artin.thm24_applicable(17)
    assert artin.thm24_applicable(73)
    assert not artin.thm24_applicable(41)  # 82 = 81 + 1 only


def test_split_prime_cap_boundary(capsys):
    # D = 34: the first 14 odd primes that split, 3, 5, ..., 131, 137
    split = [l for l in range(3, 138, 2) if is_prime(l) and l != 17
             and quadring.splitting_type(34, l) == "split"]
    assert len(split) == 14 and artin._MAX_SPLIT_PRIMES == 12
    n12 = math.prod(split[:12])
    assert n12 == 6892116137846939505
    v = artin.joint_artin_decide(34, n12)
    x, y = v.witness
    assert v.provenance == "artin" and x * x - 34 * y * y == n12
    # n12 * 131 is obstructed (at 17, the odd prime of D the scan tests
    # first), so the local test would return before the cap; n12 * 137 is
    # locally solvable and has 13 split primes, past the model, so the
    # oracle decides it
    assert artin.local_obstruction_anywhere(34, n12 * split[12]) == 17
    n13 = n12 * split[13]
    assert n13 == 944219910885030712185
    assert artin.local_obstruction_anywhere(34, n13) is None
    with pytest.raises(NotImplementedError, match="split primes"):
        artin.class_images_of_norm(34, n13)
    v = artin.joint_artin_decide(34, n13)
    x, y = v.witness
    assert v.status == "solvable" and v.provenance == "oracle" and x * x - 34 * y * y == n13
    assert cli.main(["decide", "34", str(n13)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    rec = json.loads(out)
    assert rec["provenance"] == "oracle" and rec["witness"] == [x, y] and err == ""
