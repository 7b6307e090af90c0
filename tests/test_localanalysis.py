import functools
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from pellcrit import localanalysis as la
from pellcrit import artin, intcore, pellsolver, quadring
from pellcrit.intcore import factor, lift_unit_sqrt, two_adic_layer, valuation
from pellcrit.symbols import hilbert_q, jacobi

import hilbert_reference as ref


def _scaled(u):
    # a rational element (x, y) times the square of its coordinates' common
    # denominator: integer coordinates, and the same square class
    m = math.lcm(u[0].denominator, u[1].denominator) ** 2
    return (int(u[0] * m), int(u[1] * m))


def two_adic_solvable(D, n):
    # x^2 - D y^2 = n has a point in Z_2 x Z_2 (D, n nonzero)
    return two_adic_layer(D, n) is not None


def test_local_solvable_examples():
    assert la.local_solvable(34, -1, 2)
    assert la.local_solvable(82, 2, 2)
    # one prime 3 mod 4 makes pq = 3 mod 4: the classical 2-adic obstruction
    assert not la.local_solvable(15, -1, 2)
    # for 21 = 3 * 7 both primes are 3 mod 4; the obstruction sits at 3,
    # not at 2, where (2 sqrt(257), 7) is a point
    assert not la.local_solvable(21, -1, 3)
    assert la.local_solvable(21, -1, 2)


@functools.lru_cache(maxsize=None)
def _squares_mod_2k(k):
    mod = 1 << k
    return (
        frozenset(x * x % mod for x in range(mod)),
        frozenset(x * x % mod for x in range(1, mod, 2)),
    )


@functools.lru_cache(maxsize=None)
def _dy2_mod_2k(dmod, k):
    # D y^2 mod 2^k for y odd and for y even
    mod = 1 << k
    return (
        frozenset(dmod * y * y % mod for y in range(1, mod, 2)),
        frozenset(dmod * y * y % mod for y in range(0, mod, 2)),
    )


def _z2_solvable_brute(D, n):
    """Z_2-solvability of x^2 - D y^2 = n by enumerating residues mod 2^k.

    With k = 2 v2(D) + 5, a primitive solution (x or y odd) mod 2^k lifts to
    Z_2; a solution with x, y both even is a solution for n / 4.
    """
    a = 0
    while D % (2 ** (a + 1)) == 0:
        a += 1
    k = 2 * a + 5
    mod = 1 << k
    squares, odd_squares = _squares_mod_2k(k)
    y_odd, y_even = _dy2_mod_2k(D % mod, k)
    while True:
        if any((n + t) % mod in squares for t in y_odd):
            return True
        if any((n + t) % mod in odd_squares for t in y_even):
            return True
        if n % 4:
            return False
        n //= 4


def _check_local2(D, n):
    want = _z2_solvable_brute(D, n)
    assert two_adic_solvable(D, n) == want, (D, n)
    assert la.local_solvable(D, n, 2) == want, (D, n)
    # the oracle labels an unsolvable verdict by the first odd prime of D
    # that obstructs, then by 2, then by the first odd prime of n prime to D
    odd = [l for l in factor(D).primes() if l != 2 and not la.local_solvable(D, n, l)]
    of_n = [
        l for l in factor(n).primes()
        if l != 2 and D % l and not la.local_solvable(D, n, l)
    ]
    reason = pellsolver.solve(D, n).reason
    if odd:
        assert reason == f"local-obstruction:{odd[0]}", (D, n, reason)
    elif not want:
        assert reason == "local-obstruction:2", (D, n, reason)
    elif of_n:
        assert reason == f"local-obstruction:{of_n[0]}", (D, n, reason)
    else:
        assert reason is None or not reason.startswith("local-obstruction"), (D, n)


def test_local2_brute():
    # every non-square D <= 300 with v2(D) >= 5, against the residue search
    for D in range(32, 301, 32):
        if math.isqrt(D) ** 2 == D:
            continue
        for n in range(-150, 151):
            if n:
                _check_local2(D, n)


def test_local2_brute_sampled():
    # D with v2(D) < 5, n with v2(n) up to 8
    rng = random.Random(9)
    for _ in range(1500):
        D = rng.randint(2, 2000)
        if math.isqrt(D) ** 2 == D or D % 32 == 0:
            continue
        n = rng.choice((-1, 1)) * rng.randrange(1, 200, 2) << rng.randint(0, 8)
        _check_local2(D, n)


def test_local2_valuation_of_D_beyond_n():
    # D = 3 * 2^20 is far beyond the residue search (k = 45).  When
    # v2(D) >= v2(n) + 3, Z_2-solvability holds iff n is a square in Z_2.
    D = 3 << 20
    rng = random.Random(11)
    start = time.perf_counter()
    for _ in range(2000):
        s = rng.randint(0, 17)
        n = rng.choice((-1, 1)) * rng.randrange(1, 10**6, 2) << s
        square = s % 2 == 0 and (n >> s) % 8 == 1
        assert la.local_solvable(D, n, 2) == square, n
        assert two_adic_solvable(D, n) == square, n
    # each call is a handful of integer operations: stay far under 10 ms
    assert (time.perf_counter() - start) / 4000 < 0.01
    assert la.find_local_point(D, 1, 2) is not None
    assert la.find_local_point(D, 2, 2) is None


def test_local_solvable_odd_brute():
    # compare against a naive bounded congruence search; k = v_l(4Dn) + 3
    # makes the congruence equivalent to Z_l-solvability
    random.seed(10)
    for _ in range(250):
        D = random.randint(2, 200)
        if math.isqrt(D) ** 2 == D:
            continue
        n = random.randint(-50, 50)
        if n == 0:
            continue
        l = random.choice([3, 5, 7])
        k = 0
        m = D * n * 4
        while m % l == 0:
            m //= l
            k += 1
        mod = l ** (k + 3)
        squares = {x * x % mod for x in range(mod)}
        found = any((n + D * y * y) % mod in squares for y in range(mod))
        assert la.local_solvable(D, n, l) == found, (D, n, l)


def test_square_class_2():
    assert la.square_class_2(33) == (0, 1)
    assert la.square_class_2(-7) == (0, 1)
    assert la.square_class_2(12) == (0, -5)
    assert la.square_class_2(2) == (1, 1)
    with pytest.raises(ValueError):
        la.square_class_2(0)
    # every nonzero integer lands in exactly one of the eight classes
    random.seed(1)
    for _ in range(300):
        u = random.choice((1, -1)) * random.randint(1, 10**6)
        par, rep = la.square_class_2(u)
        assert par in (0, 1) and rep in (1, -1, 5, -5)
        # dividing by the representative and 2^par leaves a square
        t = Fraction(u, rep * (2 if par else 1))
        tv = t.numerator * t.denominator
        v = 0
        while tv % 2 == 0:
            tv //= 2
            v += 1
        assert v % 2 == 0 and tv % 8 == 1


def test_find_local_point():
    random.seed(12)
    for _ in range(500):
        D = random.randint(2, 300)
        if math.isqrt(D) ** 2 == D:
            continue
        n = random.randint(-60, 60)
        if n == 0:
            continue
        l = random.choice([2, 3, 5, 7, 13, 17])
        pt = la.find_local_point(D, n, l, prec=14)
        assert (pt is not None) == la.local_solvable(D, n, l), (D, n, l)
        if pt is not None:
            mod = l ** (pt.precision - 4)
            assert (pt.x * pt.x - D * pt.y * pt.y - n) % mod == 0


def test_character_table_anchors():
    tw = quadring.find_twist_point(34, 2)
    tab = la.character_table(34, tw)
    assert (tab.chi_1, tab.chi_neg1, tab.chi_2, tab.chi_neg2) == (1, -1, 1, -1)
    tw = quadring.find_twist_point(146, 2)
    tab = la.character_table(146, tw)
    assert (tab.chi_1, tab.chi_neg1, tab.chi_2, tab.chi_neg2) == (1, -1, -1, 1)
    tw = quadring.find_twist_point(82, 2)
    assert la.character_table(82, tw).chi_2 == -1
    with pytest.raises(ValueError):
        la.character_table(221, quadring.find_twist_point(221, 17))


def test_character_table_twist_choice_invariance():
    for D in (34, 146, 466):
        cands = []
        for tp in quadring.twist_point_candidates(D, 2):
            cands.append(tp)
            if len(cands) == 3:
                break
        tables = {la.character_table(D, tp) for tp in cands}
        assert len(tables) == 1, (D, tables)


def test_norm_one_elements_have_trivial_symbol():
    random.seed(3)
    for D in (34, 146, 82, 1394):
        place = la.places_over(D, 2)[0]
        theta = quadring.find_twist_point(D, 2).element()
        count = 0
        while count < 100:
            x = random.randint(-60, 60)
            y = random.randint(-60, 60)
            nrm = x * x - D * y * y
            if nrm == 0:
                continue
            sq = _mul_sqrt(D, (x, -y), (x, -y))
            xi = (Fraction(sq[0], nrm), Fraction(sq[1], nrm))  # sigma(g)/g has norm 1
            assert xi[0] ** 2 - D * xi[1] ** 2 == 1
            assert la.hilbert_ev(_scaled(xi), theta, place) == 1, (D, x, y)
            count += 1


def test_explicit_norm_minus_one_element():
    x2 = lift_unit_sqrt(33, 2, 20)
    # x2 + sqrt(34) has norm 33 - 34 = -1
    assert la.hilbert_ev((x2, 1), (6, -1), la.places_over(34, 2)[0]) == -1


def test_character_laws_family_sweep():
    # engine tables obey the mod-16 law, the quartic law, and the forced
    # value under a +-3 mod 8 two-squares representation, for all d <= 3000
    from pellcrit.symbols import quartic_2_of_d

    count = 0
    for d in range(2, 3001):
        fac = factor(d)
        if any(e > 1 for _, e in fac.factors) or any(
            p % 8 != 1 for p in fac.primes()
        ):
            continue
        D = 2 * d
        tab = la.character_table(D, quadring.find_twist_point(D, 2))
        assert tab.chi_2 == (1 if d % 16 == 1 else -1), d
        assert tab.chi_neg2 == quartic_2_of_d(d), d
        reps = quadring.two_squares_all(D)
        if any(r % 8 in (3, 5) and s % 8 in (3, 5) for r, s in reps):
            assert tab.chi_neg1 == -1, d
        assert tab.chi_neg2 == tab.chi_neg1 * tab.chi_2, d
        count += 1
    assert count == 108


def test_symbol_depends_only_on_norm_class():
    # different local points with the same norm pair identically with theta
    random.seed(8)
    for D in (34, 146):
        place = la.places_over(D, 2)[0]
        theta = quadring.find_twist_point(D, 2).element()
        for n in (-1, 2, -2, 7, -7, 17, 23):
            if not la.local_solvable(D, n, 2):
                continue
            pt = la.find_local_point(D, n, 2, prec=20)
            base = la.hilbert_ev((pt.x, pt.y), theta, place)
            for _ in range(10):
                # twist the point by a random norm-one element
                x = random.randint(-40, 40)
                y = random.randint(-40, 40)
                nrm = x * x - D * y * y
                if nrm == 0:
                    continue
                unit = _mul_sqrt(D, (x, -y), (x, -y))
                unit = (Fraction(unit[0], nrm), Fraction(unit[1], nrm))
                other = _mul_sqrt(D, (pt.x, pt.y), unit)
                assert la.hilbert_ev(_scaled(other), theta, place) == base, (D, n)


def test_hilbert_ev_split_matches_hilbert_q():
    random.seed(6)
    for D in (17, 73, 97):  # split at 2 as well as many odd primes
        for l in (2, 3, 7, 11, 13, 19):
            if quadring.splitting_type(D, l) != "split":
                continue
            for place in la.places_over(D, l):
                for _ in range(30):
                    a = random.randint(-80, 80)
                    b = random.randint(-80, 80)
                    if a == 0 or b == 0:
                        continue
                    got = la.hilbert_ev(a, b, place)
                    assert got == hilbert_q(a, b, l), (D, l, a, b)


def test_hilbert_ev_rejects_non_integers():
    # a Fraction or float element, or pair coordinate, is refused at odd
    # places (split, inert, ramified) and at the places over 2 (ramified,
    # inert and split), where it once gave a wrong symbol or a TypeError
    # from deep inside
    places = [pl for D, l in [(34, 3), (34, 7), (34, 17), (34, 2), (221, 2), (305, 2)]
              for pl in la.places_over(D, l)]
    assert {(pl.l == 2, pl.kind) for pl in places} == {
        (l2, kind) for l2 in (False, True) for kind in ("split", "inert", "ramified")
    }
    for place in places:
        assert la.hilbert_ev((3, 1), 5, place) in (1, -1)
        for bad in (Fraction(1, 3), Fraction(3), 1 / 3, 3.0):
            for alpha, beta in [(bad, 5), (5, bad), ((bad, 1), 5), ((1, bad), 5), (5, (3, bad))]:
                with pytest.raises(TypeError):
                    la.hilbert_ev(alpha, beta, place)


def test_hilbert_ev_on_integers_is_unchanged():
    # pairs and integers at every place over 2, 3, 5, 7, 13 and 17 of three
    # D with 2 ramified, inert and split, against the digest of the same
    # grid taken before the symbols checked types
    elems = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)] + [-6, 5, 12]
    h = hashlib.sha256()
    for D in (34, 221, 305):
        for l in (2, 3, 5, 7, 13, 17):
            for place in la.places_over(D, l):
                for a in elems:
                    for b in elems:
                        h.update(f"{la.hilbert_ev(a, b, place)}".encode())
    assert h.hexdigest() == "44056b7457c1396dac3f515bbd49958dcb4992bcba00add568f56d0fb18d73e3"


def test_split_embedding_raises_its_precision():
    # places carry roots mod 3^24; deeper valuations lift the root again
    # instead of raising, and each place keeps its own root
    D, l = 34, 3
    places = la.places_over(D, l)
    assert [pl.prec for pl in places] == [24, 24]
    for k in (20, 21, 30, 60):
        for pl in places:
            assert la.hilbert_ev(l**k, 5, pl) == hilbert_q(l**k, 5, l), (k, pl.root)
    # a - sqrt(D), with a near the root of one place, is deep there and a
    # unit at the other; its depth is the valuation of its norm a^2 - D
    for k in (21, 30, 60):
        r = lift_unit_sqrt(D, l, k)
        for deep, a in enumerate((r, l**k - r)):
            v = valuation(a * a - D, l)
            assert v >= k
            for i, pl in enumerate(places):
                want = hilbert_q(l**v, 5, l) if i == deep else 1
                assert la.hilbert_ev((a, -1), 5, pl) == want, (k, deep, i)


def test_hilbert_ev_tame_examples():
    p3 = la.places_over(221, 3)[0]
    assert p3.kind == "inert"
    assert la.hilbert_ev(3, -1, p3) == 1  # -1 is a square in F_9
    p13 = la.places_over(221, 13)[0]
    assert p13.kind == "ramified"
    # sqrt(D) is a uniformizer there, so (sqrt(D), u)_v = chi(u)
    assert la.hilbert_ev((0, 1), 2, p13) == jacobi(2, 13)
    assert la.hilbert_ev((0, 1), 3, p13) == jacobi(3, 13)
    # 13 = unit * uniformizer^2, so its symbol against units is trivial
    assert la.hilbert_ev(13, 2, p13) == 1
    # at D = 6 the unit part of 3 = sqrt(6)^2 / 2 is 1/2, not 1, so by the
    # projection formula the symbol is (N sqrt(6), 3)_3 = (-6, 3)_3 = -1
    r3 = la.places_over(6, 3)[0]
    assert r3.kind == "ramified"
    assert la.hilbert_ev((0, 1), 3, r3) == -1
    assert la.hilbert_ev(3, (0, 1), r3) == -1


def test_places_over_refuses_odd_square_factor():
    # sqrt(D) is no uniformizer over l when l^2 | D, so no place is built
    for D, l in ((18, 3), (45, 3), (50, 5), (63, 3), (75, 5), (99, 3)):
        with pytest.raises(ValueError):
            la.places_over(D, l)
    assert la.places_over(45, 5)[0].kind == "ramified"
    assert [pl.kind for pl in la.places_over(8, 2)] == ["ramified"]


def _odd_nonsplit_places(d_max, primes):
    # the one place over l of E = Q(sqrt D) when it is a field, with l^2 not
    # dividing D so that sqrt(D) is a uniformizer at the ramified places
    for D in range(2, d_max):
        if math.isqrt(D) ** 2 == D:
            continue
        for l in primes:
            if D % (l * l) and quadring.splitting_type(D, l) != "split":
                yield D, l, la.places_over(D, l)[0]


def test_hilbert_ev_projection_formula_odd_places():
    # (alpha, b)_{E_v} = (N alpha, b)_{Q_l} for b in Q_l (Serre, Local
    # Fields, ch. XIV), at every inert and ramified odd place
    rng = random.Random(9)
    for D, l, place in _odd_nonsplit_places(400, (3, 5, 7, 11, 13)):
        for _ in range(8):
            x = rng.randint(-60, 60) * l ** rng.randint(0, 3)
            y = rng.randint(-60, 60) * l ** rng.randint(0, 3)
            if x == y == 0:
                continue
            nrm = x * x - D * y * y
            for b in (l, -l, l * l, l**3, 2 * l, rng.choice((1, -1)) * rng.randint(1, 10**4)):
                assert la.hilbert_ev((x, y), b, place) == hilbert_q(nrm, b, l), (D, l, x, y, b)


def _qd_pow(D, u, k):
    if k < 0:
        nrm = u[0] * u[0] - D * u[1] * u[1]
        u, k = (u[0] / nrm, -u[1] / nrm), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _mul_sqrt(D, out, u)
    return out


def _reference_tame_symbol(D, l, kind, a, b):
    """(a, b)_v at a nonsplit odd place, from the tame symbol in Q(sqrt D).

    w = (-1)^(v1 v2) a^v2 / b^v1 is a unit; its residue character is that
    of w mod pi, read from the norm of w in the inert residue field F_{l^2}
    and from the rational part of w when sqrt(D) is the uniformizer.
    """
    def val(u):
        nrm = u[0] * u[0] - D * u[1] * u[1]
        v = valuation(nrm.numerator, l) - valuation(nrm.denominator, l)
        return v // 2 if kind == "inert" else v

    v1, v2 = val(a), val(b)
    w = _mul_sqrt(D, _qd_pow(D, a, v2), _qd_pow(D, b, -v1))
    if v1 * v2 % 2:
        w = (-w[0], -w[1])
    r = w[0] * w[0] - D * w[1] * w[1] if kind == "inert" else w[0]
    return jacobi(r.numerator * pow(r.denominator, -1, l), l)


def test_hilbert_ev_matches_exact_tame_reference():
    # two general elements, with l and 2 in some denominators
    rng = random.Random(10)

    def element(l):
        while True:
            u = tuple(Fraction(rng.randint(-40, 40) * l ** rng.randint(0, 2),
                               rng.choice((1, 1, 1, 2, l, 3 * l))) for _ in "xy")
            if u != (0, 0):
                return u

    for D, l, place in _odd_nonsplit_places(200, (3, 5, 7)):
        for _ in range(12):
            a, b = element(l), element(l)
            got = la.hilbert_ev(_scaled(a), _scaled(b), place)
            assert got == _reference_tame_symbol(D, l, place.kind, a, b), (D, l, a, b)


def test_hilbert_ev_bimultiplicative_2adic():
    random.seed(14)
    for D in (34, 221):
        place = la.places_over(D, 2)[0]
        for _ in range(60):
            vals = [random.randint(-30, 30) for _ in range(6)]
            a1, a2, b1, b2, c1, c2 = vals
            x = (a1, a2)
            y = (b1, b2)
            z = (c1, c2)
            if any(t[0] * t[0] == D * t[1] * t[1] for t in (x, y, z)):
                continue
            xy = _mul_sqrt(D, x, y)
            lhs = la.hilbert_ev(xy, z, place)
            rhs = la.hilbert_ev(x, z, place) * la.hilbert_ev(y, z, place)
            assert lhs == rhs


def test_hilbert_ev_refuses_4_dividing_d_at_2():
    # at 4 | D the ramified place over 2 that places_over names is
    # Q_2(sqrt(D/4)): a field at D = 8, 12, 20, but Q_2 x Q_2 at 68 = 4 * 17,
    # where a product of symbols over Q_2 would be a wrong answer
    for D in (8, 12, 20, 68):
        place = la.places_over(D, 2)[0]
        assert place.kind == "ramified"
        for alpha, beta in (((1, 1), 3), (3, (1, 1)), ((1, 1), (3, 3)), ((1, 2), (3, 1))):
            with pytest.raises(ValueError, match="2-adic valuation 0 or 1"):
                la.hilbert_ev(alpha, beta, place)
    # zero arguments are refused at every kind of place
    for D, l in ((34, 2), (221, 2), (35, 2), (221, 3), (221, 13), (34, 3)):
        for place in la.places_over(D, l):
            for alpha, beta in ((0, 3), ((0, 0), (1, 1)), ((1, 1), 0)):
                with pytest.raises(ValueError, match="nonzero"):
                    la.hilbert_ev(alpha, beta, place)


def _element(rng, l):
    # integer coordinates, each times a power of l, not both zero
    while True:
        u = tuple(rng.randint(-40, 40) * l ** rng.randint(0, 3) for _ in "xy")
        if u != (0, 0):
            return u


def _branch_box(D, l):
    # pairs that reach every branch of hilbert_ev: beta rational, alpha
    # rational, alpha a rational multiple of beta, and neither
    elems = [(x * l**k, y) for x in (1, -1, 3) for y in (1, -2, l) for k in (0, 1)]
    for u in elems:
        for r in (u[0] + u[1], u[1] - 2 * u[0]):
            if r:
                yield u, (r, 0)
                yield (r, 0), u
        yield (3 * u[0], 3 * u[1]), u
        yield (-u[0] * l, -u[1] * l), u
        for w in elems:
            yield u, w


def test_hilbert_ev_matches_the_references():
    # the two symbols over Q_l against the engine that computed the symbol
    # at 2 from its definition, on every field Q_2(sqrt D) with v2(D) <= 1
    # and D < 3000, and against the tame symbol at every inert and ramified
    # odd place over l < 60 of D < 800
    rng = random.Random(38)
    compared = 0
    for D in range(2, 3000):
        if D % 4 != 2 and D % 8 not in (3, 5, 7):
            continue
        engine, place = ref.TwoAdicQuad(D), la.places_over(D, 2)[0]
        pairs = [(_element(rng, 2), _element(rng, 2)) for _ in range(12)]
        if D < 100:
            pairs += _branch_box(D, 2)
        for a, b in pairs:
            want = engine.pair(engine.from_sqrt_basis(*a), engine.from_sqrt_basis(*b))
            assert la.hilbert_ev(a, b, place) == want, (D, a, b)
            compared += 1
    primes = [l for l in range(3, 60) if intcore.is_prime(l)]
    for D, l, place in _odd_nonsplit_places(800, primes):
        pairs = [(_element(rng, l), _element(rng, l)) for _ in range(4)]
        if D < 60:
            pairs += _branch_box(D, l)
        for a, b in pairs:
            assert la.hilbert_ev(a, b, place) == ref.tame_hilbert_ev(a, b, place), (D, l, a, b)
            compared += 1
    assert compared > 100_000


def _mul_sqrt(D, u, v):
    return (u[0] * v[0] + D * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _half_221(l, e):
    tw = quadring.TwistPoint(119, 8, 1, 17, 221)
    return artin._twist_half(221, tw, l, e, quadring.splitting_type(221, l))


def test_twist_residue_square_221():
    # the twist half of l^e || n: the residue character of x0 - y0 sqrt(D)
    # is a square at both places over the split 53 (so (17/53) = 1), at the
    # place over the inert 79 and 3 it is not, and the twist prime 17
    # brings no factor.  An inert l counts only when e/2 is odd
    assert _half_221(53, 1) == (1, 1)
    assert _half_221(79, 2) == _half_221(3, 2) == (-1, -1)
    assert _half_221(79, 1) == _half_221(79, 4) == (1, 1)
    assert _half_221(17, 1) == (1, 1)


def test_twist_residue_square_matches_quartic_221():
    # for split p with (13/p) = (17/p) = 1 the residue character at the
    # first place over p (the half at j odd, e = 1) agrees with solvability
    # of x^4 - 238 x^2 + 17 mod p
    from pellcrit.intcore import _SMALL_PRIMES

    for p in [q for q in _SMALL_PRIMES if q < 500 and q not in (2, 13, 17)]:
        if jacobi(13, p) == 1 and jacobi(17, p) == 1:
            has_root = any((x**4 - 238 * x * x + 17) % p == 0 for x in range(p))
            assert _half_221(p, 1)[1] == (1 if has_root else -1), p


def test_local_point_liftability_flag():
    pt = la.find_local_point(34, -1, 2, prec=16)
    assert pt is not None
    assert pt.l == 2 and pt.precision == 16
    assert (pt.x * pt.x - 34 * pt.y * pt.y + 1) % (1 << 16) == 0


def test_local_point_exists_iff_solvable():
    # includes D with l^2 | D, where a point needs l | x and a descent, and
    # at l = 2 every layer v2(y) the closed form can name
    prec = 8
    for D in range(2, 200):
        if math.isqrt(D) ** 2 == D:
            continue
        for l in (2, 3, 5, 7):
            mod = l**prec
            for n in range(-60, 61):
                if n == 0:
                    continue
                pt = la.find_local_point(D, n, l, prec)
                assert (pt is not None) == la.local_solvable(D, n, l), (D, n, l)
                if pt is not None:
                    assert (pt.x * pt.x - D * pt.y * pt.y - n) % mod == 0, (D, n, l)
    # v2(D) and v2(n) far beyond any residue search, at full precision
    for D in (3 << 20, 5 << 33):
        for n in (1 << 40, -(1 << 40), 17 << 6):
            for prec in (3, 8, 48):
                pt = la.find_local_point(D, n, 2, prec)
                assert (pt is not None) == la.local_solvable(D, n, 2), (D, n)
                if pt is not None:
                    assert (pt.x * pt.x - D * pt.y * pt.y - n) % (1 << prec) == 0, (D, n, prec)
    # -2^40 = x^2 - 5 2^33 y^2 needs v2(y) = 4
    pt = la.find_local_point(5 << 33, -(1 << 40), 2, 48)
    assert pt is not None and valuation(pt.y, 2) == 4


def _reference_pairing(ctx):
    """The Hilbert pairing of a TwoAdicQuad solved from identities over GF(2).

    The unknowns are the Gram entries g_ij (i <= j) of the pairing in the
    basis of ctx._vec.  Each identity is a theorem: the projection formula
    (c, x) = (c, N x)_2 for rational c, the diagonal identity
    (x, x) = (x, -1), and the Steinberg relations (x, 1 - x) = 1.
    """

    def mask(va, vb):
        # the coefficients of the unknowns in log_{-1} (a, b), as 10 bits
        m = k = 0
        for i in range(4):
            for j in range(i, 4):
                ai, aj, bi, bj = (va >> i) & 1, (va >> j) & 1, (vb >> i) & 1, (vb >> j) & 1
                if (ai & bi) if i == j else ((ai & bj) ^ (aj & bi)):
                    m ^= 1 << k
                k += 1
        return m

    def vec(u):
        return ctx._vec[ctx.class_of(u)]

    rows = []
    for cls in ctx.classes:
        nb = ctx.norm(ctx._rep[cls])
        rows.append((mask(ctx._vec[cls], ctx._vec[cls]), hilbert_q(nb, -1, 2) == -1))
        for c in (1, -1, 2, -2, 5, -5, 10, -10):
            rows.append((mask(vec((c, 0)), ctx._vec[cls]), hilbert_q(nb, c, 2) == -1))
    for layer in ((1, 0), ctx.pi):
        for a in range(-8, 9):
            for b in range(-8, 9):
                xi = ctx.mul(layer, (a, b))
                one_minus = (1 - xi[0], -xi[1])
                if ctx.norm(xi) != 0 and ctx.norm(one_minus) != 0:
                    rows.append((mask(vec(xi), vec(one_minus)), False))
    pivots = {}
    for m, rhs in rows:
        for pb in sorted(pivots, reverse=True):
            if m >> pb & 1:
                m ^= pivots[pb][0]
                rhs ^= pivots[pb][1]
        if m:
            pivots[m.bit_length() - 1] = (m, rhs)
        else:
            assert not rhs, "inconsistent identities"
    assert len(pivots) == 10, "identities leave the pairing open"
    gram = 0
    for pb in sorted(pivots):
        m, rhs = pivots[pb]
        # the lower pivots are already solved: substitute them
        rhs ^= bin(m & gram & ((1 << pb) - 1)).count("1") & 1
        gram |= rhs << pb
    return {
        (ca, cb): -1 if bin(mask(ctx._vec[ca], ctx._vec[cb]) & gram).count("1") & 1 else 1
        for ca in ctx.classes
        for cb in ctx.classes
    }


def test_pairing_matches_gf2_reference():
    # the norm-group definition against the identities it must satisfy,
    # on all 256 class pairs of every field Q_2(sqrt D) with D < 100
    Ds = [D for D in range(2, 100) if D % 4 == 2 or D % 8 in (3, 5, 7)]
    for D in Ds + [1394, 221, 1691629]:
        ctx = ref.TwoAdicQuad(D)
        want = _reference_pairing(ctx)
        got = {(ca, cb): ctx.pair(ctx._rep[ca], ctx._rep[cb]) for ca, cb in want}
        assert got == want, D


def _reference_class_of(ctx, u):
    """The rational route TwoAdicQuad.class_of replaced.

    The valuation comes from the norm in Fractions, the unit part from
    repeated exact division by pi, and the class from its coordinates mod 8.
    """
    a, b = Fraction(u[0]), Fraction(u[1])
    nrm = ctx.norm((a, b))
    v = valuation(nrm.numerator, 2) - valuation(nrm.denominator, 2)
    if ctx.kind == "inert":
        v //= 2
    D = ctx.D
    for _ in range(v):
        if ctx.kind == "inert":
            a, b = a / 2, b / 2
        elif ctx.kind == "ram2":
            a, b = b, a / D
        else:
            a, b = (a - b * D) / (1 - D), (b - a) / (1 - D)
    coords = tuple(t.numerator * pow(t.denominator, -1, 8) % 8 for t in (a, b))
    return (v & 1, ctx._canon[coords])


def test_integer_classes_match_rational_reference():
    # integers with large 2-power shifts, and rationals with odd denominators
    # (integral in O_E) scaled to integers, on every nonsplit D < 200 and
    # three larger ones
    rng = random.Random(21)
    Ds = [D for D in range(2, 200) if D % 4 == 2 or D % 8 in (3, 5, 7)]
    for D in Ds + [1394, 221, 1691629]:
        ctx = ref.TwoAdicQuad(D)
        for k in range(60):
            if k % 2:
                u = tuple(rng.randint(-(1 << 40), 1 << 40) << rng.randint(0, 14) for _ in "ab")
            else:
                u = tuple(Fraction(rng.randint(-10**6, 10**6), 2 * rng.randint(0, 500) + 1)
                          for _ in "ab")
            if ctx.norm(u) == 0:
                continue
            assert ctx.class_of(_scaled(u)) == _reference_class_of(ctx, u), (D, u)


def test_unit_table_is_built_whole():
    # the engine canonicalizes every unit residue mod 8 when it is built, to
    # the 8 unit square classes, and class_of only reads that table.  Units
    # are the residues of odd norm: 32 in a ramified field, 48 in the inert
    rng = random.Random(27)
    for D, kind, units in ((34, "ram2", 32), (7, "ram3", 32), (221, "inert", 48)):
        ctx = ref.TwoAdicQuad(D)
        assert ctx.kind == kind
        table = dict(ctx._canon)
        assert set(table) == {(a, b) for a in range(8) for b in range(8)
                              if ctx.norm((a, b)) % 2} and len(table) == units
        assert len(set(table.values())) == 8
        for _ in range(500):
            u = (rng.randint(-(1 << 30), 1 << 30), rng.randint(-(1 << 30), 1 << 30))
            if ctx.norm(u):
                ctx.class_of(u)
        assert ctx._canon == table
