import collections
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pellcrit import artin, intcore


def test_is_prime_examples():
    assert intcore.is_prime(2)
    assert not intcore.is_prime(221)
    assert not intcore.is_prime(1394)
    assert not intcore.is_prime(1)
    with pytest.raises(ValueError):
        intcore.is_prime(0)


def test_is_prime_against_sieve():
    limit = 100_000
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    for n in range(1, limit + 1):
        assert intcore.is_prime(n) == bool(flags[n]), n


def test_is_prime_large_sample():
    random.seed(0)
    for _ in range(2000):
        n = random.randrange(100_000, 1_000_000)
        by_division = all(n % d for d in range(2, math.isqrt(n) + 1))
        assert intcore.is_prime(n) == by_division, n


def test_factor_examples():
    f = intcore.factor(221)
    assert f.sign == 1 and f.factors == ((13, 1), (17, 1))
    f = intcore.factor(-56)
    assert f.sign == -1 and f.factors == ((2, 3), (7, 1))
    f = intcore.factor(1394)
    assert f.factors == ((2, 1), (17, 1), (41, 1))
    with pytest.raises(ValueError):
        intcore.factor(0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0))
def test_factor_roundtrip(n):
    fac = intcore.factor(n)
    assert fac.value() == n
    primes = [p for p, _ in fac.factors]
    assert primes == sorted(set(primes))


def test_factor_larger():
    for n in [2**61 - 1, 10**12 + 39, (2**31 - 1) * (2**31 - 1), 600851475143]:
        assert intcore.factor(n).value() == n


def test_sqrt_mod_examples():
    assert intcore.sqrt_mod(2, 17) == 6
    assert intcore.sqrt_mod(-1, 13) == 5
    assert intcore.sqrt_mod(3, 7) is None
    with pytest.raises(ValueError):
        intcore.sqrt_mod(3, 15)
    with pytest.raises(ValueError):
        intcore.sqrt_mod(3, 2)


def test_sqrt_mod_matches_jacobi():
    from pellcrit.symbols import jacobi

    for p in [3, 5, 7, 11, 13, 17, 97, 193, 65537]:
        for a in range(0, min(p, 80)):
            r = intcore.sqrt_mod(a, p)
            if jacobi(a, p) in (0, 1):
                assert r is not None and (r * r - a) % p == 0
                assert 0 <= r <= (p - 1) // 2
            else:
                assert r is None


def test_sqrt_mod_prime_power_exhaustive():
    for p, k in [(2, 1), (2, 2), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3), (7, 2)]:
        mod = p**k
        for a in range(mod):
            got = intcore.sqrt_mod_prime_power(a, p, k)
            want = sorted(x for x in range(mod) if (x * x - a) % mod == 0)
            assert got == want, (a, p, k)


def test_sqrt_mod_factored_exhaustive():
    for m in range(1, 200):
        fac = intcore.factor(m).factors
        for a in range(-3, m):
            want = sorted(x for x in range(m) if (x * x - a) % m == 0)
            assert intcore.sqrt_mod_factored(a, fac) == want, (a, m)


def test_two_squares_prime():
    assert intcore.two_squares_prime(13) == (3, 2)
    assert intcore.two_squares_prime(17) == (1, 4)
    assert intcore.two_squares_prime(5) == (1, 2)
    assert intcore.two_squares_prime(61) == (5, 6)
    assert intcore.two_squares_prime(29) == (5, 2)
    for p in [x for x in range(5, 3000) if intcore.is_prime(x) and x % 4 == 1]:
        a, b = intcore.two_squares_prime(p)
        assert a * a + b * b == p and a % 2 == 1 and b % 2 == 0 and a > 0 and b > 0


def test_cornacchia_exhaustive():
    # every primitive a^2 + d b^2 = m, a, b >= 0, against a search over b;
    # for d = 1 up to the order of a and b
    def key(d, rep):
        return tuple(sorted(rep)) if d == 1 else rep

    for d in range(1, 8):
        for m in range(2, 3000):
            want = set()
            for b in range(math.isqrt(m // d) + 1):
                a2 = m - d * b * b
                a = math.isqrt(a2)
                if a * a == a2 and math.gcd(a, b) == 1:
                    want.add(key(d, (a, b)))
            got = [key(d, rep) for rep in intcore.cornacchia(d, m)]
            assert len(got) == len(set(got)) and set(got) == want, (d, m)


def test_lift_unit_sqrt_pins_one_root():
    # odd p: the root congruent to sqrt_mod's normalized root mod p;
    # p = 2: the root below 2^(k-1) that is 1 mod 4 (the bit-by-bit lift from 1)
    for p, kmax in ((2, 10), (3, 6), (5, 4), (7, 3), (13, 2)):
        for k in range(1, kmax + 1):
            pk = p**k
            squares = {x * x % pk for x in range(pk) if x % p}
            for a in range(pk):
                if a % p == 0:
                    continue
                r = intcore.lift_unit_sqrt(a, p, k)
                if a not in squares:
                    assert r is None, (a, p, k)
                    continue
                assert r is not None and 0 <= r < pk and (r * r - a) % pk == 0, (a, p, k)
                if p == 2:
                    assert r == 1 or (r % 4 == 1 and r < pk // 2), (a, k)
                else:
                    assert r % p == intcore.sqrt_mod(a, p), (a, p, k)
    with pytest.raises(ValueError):
        intcore.lift_unit_sqrt(9, 3, 4)


# psi_k (Jaeschke 1993; OEIS A014233), the least strong pseudoprime to the
# first k prime bases, for each row of the witness table, with the largest
# prime below it
_PSI = (
    (2_047, 2_039),
    (1_373_653, 1_373_639),
    (25_326_001, 25_325_981),
    (3_215_031_751, 3_215_031_749),
    (2_152_302_898_747, 2_152_302_898_729),
    (3_474_749_660_383, 3_474_749_660_329),
    (341_550_071_728_321, 341_550_071_728_289),
    (3_825_123_056_546_413_051, 3_825_123_056_546_412_979),
    (318_665_857_834_031_151_167_461, 318_665_857_834_031_151_167_441),
    (3_317_044_064_679_887_385_961_981, 3_317_044_064_679_887_385_961_813),
)


@pytest.mark.parametrize("row", range(len(_PSI)))
def test_is_prime_witness_boundary(row):
    psi, below = _PSI[row]
    bound, bases = intcore._MR_WITNESSES[row]
    assert bound == psi
    # psi passes its own row's bases, so only the next row can reject it
    assert all(intcore._strong_probable_prime(psi, b) for b in bases)
    assert not intcore.is_prime(psi)
    assert intcore.is_prime(below)


def test_psi12_is_composite():
    # a strong pseudoprime to the bases 2..37
    psi12 = 318_665_857_834_031_151_167_461
    assert not intcore.is_prime(psi12)
    assert intcore.factor(psi12).factors == ((399_165_290_221, 1), (798_330_580_441, 1))


def test_factor_memo_is_bounded():
    maxsize = intcore.factor.cache_info().maxsize
    assert maxsize is not None
    for n in range(10**6, 10**6 + maxsize + 100):
        intcore.factor(n)
    assert intcore.factor.cache_info().currsize <= maxsize


def test_factor_memo_matches_unmemoized():
    raw = intcore.factor.__wrapped__
    large = [1_000_003, 999_999_937, 2**31 - 1, 2**61 - 1]
    ns = [n for n in range(-3000, 3001) if n]
    ns += large + [-p for p in large] + [p * q for p in large[:3] for q in large]
    for n in ns:
        want = raw(n)
        # the first call may fill the memo, the second reads it
        assert intcore.factor(n) == want and intcore.factor(n) == want, n


def test_factor_proves_each_prime_once(monkeypatch):
    # factor builds its result without the constructor's re-check, which
    # still refuses a composite (see test_records).  A remainder below the
    # square of the first prime not tried is proven prime by trial division
    # alone; above 2000^2, by one is_prime call
    calls = []
    is_prime = intcore.is_prime
    monkeypatch.setattr(intcore, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for n, want, proofs in [
        (199999, ((199999, 1),), 0),
        (2 * 3 * 1999 * 1999, ((2, 1), (3, 1), (1999, 2)), 0),
        (7 * 4000037, ((7, 1), (4000037, 1)), 1),
    ]:
        calls.clear()
        assert intcore.factor.__wrapped__(n).factors == want
        assert len(calls) == proofs and calls.count(want[-1][0]) == proofs, n


def test_prime_power_roots_by_residue():
    # the roots depend on a only mod p^e, and the public lists are fresh
    roots = intcore.sqrt_mod_prime_power(2, 7, 3)
    roots.append(-1)
    assert intcore.sqrt_mod_prime_power(2, 7, 3) == intcore.sqrt_mod_prime_power(2 + 343, 7, 3)
    assert -1 not in intcore.sqrt_mod_factored(2, ((7, 3),))
    assert intcore.sqrt_mod_factored(2, ((7, 3),)) == intcore.sqrt_mod_factored(2 - 343, ((7, 3),))
    # the combined roots come from the memos, and are fresh too
    combined = intcore.sqrt_mod_factored(2, ((7, 3), (17, 1)))
    want = list(combined)
    combined.clear()
    assert intcore.sqrt_mod_factored(2, ((7, 3), (17, 1))) == want and len(want) == 4


def test_root_memos_are_bounded(assert_bounded):
    # residues of a prime modulus 1 mod 4, and 4,097 factored moduli
    assert_bounded(intcore._prime_power_roots, [(a, 10009, 1) for a in range(4097)], 4096)
    assert intcore._prime_power_roots(4, 10009, 1) == (2, 10007)
    facs = [(intcore.factor(m).factors,) for m in range(2, 4099)]
    assert_bounded(intcore._crt_idempotents, facs, 4096)
    assert intcore._crt_idempotents(((2, 2), (3, 1))) == (12, ((4, 9), (3, 4)))


def test_against_sympy_around_witness_bounds():
    sympy = pytest.importorskip("sympy")
    for psi, _ in _PSI:
        for n in range(psi - 200, psi + 201):
            assert intcore.is_prime(n) == sympy.isprime(n), n
        for n in range(psi - 2, psi + 3):
            fac = intcore.factor.__wrapped__(n)
            assert fac.sign == 1 and dict(fac.factors) == sympy.factorint(n), n
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randrange(2, 10**12)
        assert intcore.is_prime(n) == sympy.isprime(n), n
        assert dict(intcore.factor.__wrapped__(n).factors) == sympy.factorint(n), n


# the scan as before the per-D memo of D's odd primes
def _reference_local_obstruction(D, n):
    for l in intcore.factor(D).primes():
        if l != 2 and not intcore.local_solvable(D, n, l):
            return l
    if not intcore.local_solvable(D, n, 2):
        return 2
    for l in intcore.factor(abs(n)).primes():
        if l != 2 and D % l and not intcore.local_solvable(D, n, l):
            return l
    return None


def test_local_obstruction_matches_reference():
    # D with l^2 | D (18, 45, 50, 63, 75, 99, ...) and n with high prime
    # powers, where the descent in local_solvable and the parity of v_l(n)
    # decide
    ds = list(range(2, 160)) + [245, 363, 1125, 2450, 3969, 6125, 7 * 11**3]
    ns = list(range(-80, 81)) + [
        s * c * p**k
        for p in (2, 3, 5, 7, 11)
        for k in range(2, 10)
        for c in (1, 3, 5, 7, 13)
        for s in (1, -1)
    ]
    obstructed = 0
    for D in ds:
        for n in ns:
            if n == 0:
                continue
            want = _reference_local_obstruction(D, n)
            assert intcore.local_obstruction_anywhere(D, n) == want, (D, n)
            obstructed += want is not None
    assert obstructed > 10_000


def test_local_obstruction_factors_only_n_once_d_is_warm(monkeypatch):
    # D's odd primes come from a per-D memo, so a warm scan factors |n| at
    # most, and only once D's odd primes and 2 have passed
    D = 45
    intcore.local_obstruction_anywhere(D, 1)
    calls = []
    factor = intcore.factor
    monkeypatch.setattr(intcore, "factor", lambda n: calls.append(n) or factor(n))
    seen = set()
    for n in range(-300, 301):
        if n == 0:
            continue
        calls.clear()
        l = intcore.local_obstruction_anywhere(D, n)
        assert calls == ([] if l in (2, 3, 5) else [abs(n)]), (n, l)
        seen.add(l)
    assert {2, 3, 5, None} <= seen and len(seen) > 4


def test_locally_obstructed_decision_factors_nothing(monkeypatch):
    # the joint decision and artin_condition run the local test before they
    # factor |n|: obstructed at an odd prime of D or at 2, neither factors;
    # obstructed at a prime of n, or locally solvable, both read the
    # factorization of |n|, and of nothing else
    D = 1394  # 2 * 17 * 41, where the joint criterion applies
    ns = [n for n in range(-300, 301) if n]
    first = {n: intcore.local_obstruction_anywhere(D, n) for n in ns}
    artin.joint_artin_decide(D, 1)
    calls = []
    factor = intcore.factor
    for module in (intcore, artin):
        monkeypatch.setattr(module, "factor", lambda n: calls.append(n) or factor(n))
    for n in ns:
        l = first[n]
        for decide in (artin.joint_artin_decide, artin.artin_condition):
            calls.clear()
            out = decide(D, n)
            if l is not None:
                assert out is False or out.reason == f"local-obstruction:{l}", (n, out)
            assert calls == [] if l in (2, 17, 41) else calls and set(calls) == {abs(n)}, (n, l)
    assert {2, 17, 41, None} < set(first.values())


def test_two_adic_verdicts_by_square_class(assert_bounded):
    # the memo keyed by (v2(D), d mod 8, v2(n), u mod 8), D = 2^a d and
    # n = 2^s u, answers as the closed form does on D and n themselves, for
    # either sign of d and u; local_solvable at 2 reads it
    for a in range(11):
        for d in range(-39, 40, 2):
            for s in range(13):
                for u in range(-31, 32, 2):
                    n = u << s
                    want = intcore._two_adic_layer(a, d, n) is not None
                    assert intcore._two_adic_ok(a, d & 7, s, u & 7) == want, (a, d, n)
                    assert intcore.local_solvable(d << a, n, 2) == want, (a, d, n)
    keys = [(a, d, s, u) for a in range(17) for s in range(17) for d in (1, 3, 5, 7)
            for u in (1, 3, 5, 7)]
    assert_bounded(intcore._two_adic_ok, keys[:4097], 4096)
    with pytest.raises(ValueError, match="nonzero"):
        intcore.local_solvable(0, 3, 2)


def test_local_solvable_rejects_its_edge():
    with pytest.raises(ValueError, match="nonzero"):
        intcore.local_solvable(34, 0, 17)
    for l in (1, 4, 9):
        with pytest.raises(ValueError, match="not prime"):
            intcore.local_solvable(34, -1, l)


def _solutions_mod(D, n, l, k):
    # the number of (x, y) mod l^k with x^2 - D y^2 = n mod l^k
    mod = l**k
    squares = collections.Counter(x * x % mod for x in range(mod))
    return sum(squares[(n + D * y * y) % mod] for y in range(mod))


def test_local_solvable_descent_matches_brute_force():
    # l^2 | D, where x must be divisible by l once l | n; with
    # k = v_l(Dn) + 3 a solution mod l^k exists iff a Z_l-point does
    cases = [(3, dv, e, u, w) for dv in (2, 3) for e in range(4) for u in (1, 2) for w in (1, -1)]
    cases += [(5, 2, e, u, w) for e in range(4) for u in (1, 2) for w in (1, 2)]
    seen = set()
    for l, dv, e, u, w in cases:
        D, n = l**dv * u, l**e * w
        want = _solutions_mod(D, n, l, dv + e + 3) > 0
        assert intcore.local_solvable(D, n, l) == want, (D, n, l)
        seen.add((e, want))
    # v_l(n) = 1 is never solvable here; every other v_l(n) goes both ways
    assert seen == {(e, want) for e in range(4) for want in (True, False)} - {(1, True)}


def test_warm_scan_reads_its_factorization(monkeypatch):
    # with |n| in factor's memo, the scan proves no prime and takes every
    # v_l(n) of n's own primes from the factorization: valuation runs at an
    # odd prime only where it divides both D and n (v2 belongs to the 2-adic
    # lookup)
    cases = [(D, n) for D in (45, 630, 1394, 7 * 11**3) for n in range(-200, 201) if n]
    for n in range(1, 201):
        intcore.factor(n)
    odd = {D: [p for p in intcore.factor(D).primes() if p != 2] for D, _ in cases}
    for D, n in cases:
        intcore.local_obstruction_anywhere(D, n)
    primes, valuations = [], []
    is_prime, valuation = intcore.is_prime, intcore.valuation
    monkeypatch.setattr(intcore, "is_prime", lambda m: primes.append(m) or is_prime(m))
    monkeypatch.setattr(
        intcore, "valuation", lambda m, p: valuations.append((m, p)) or valuation(m, p)
    )
    for D, n in cases:
        valuations.clear()
        l = intcore.local_obstruction_anywhere(D, n)
        visited = odd[D][: odd[D].index(l) + 1] if l in odd[D] else odd[D]
        assert [c for c in valuations if c[1] != 2] == [(n, p) for p in visited if n % p == 0]
    assert primes == []
