import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pellcrit import symbols
from pellcrit.intcore import _SMALL_PRIMES, factor


def test_jacobi_examples():
    assert symbols.jacobi(13, 17) == 1
    assert symbols.jacobi(2, 13) == -1
    assert symbols.jacobi(6, 43) == 1
    assert symbols.jacobi(15, 15) == 0
    with pytest.raises(ValueError):
        symbols.jacobi(3, 10)
    with pytest.raises(ValueError):
        symbols.jacobi(3, -5)


def test_jacobi_against_squares():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert symbols.jacobi(a, p) == want


def test_quartic_residue_examples():
    assert symbols.quartic_residue(17, 13) == -1
    assert symbols.quartic_residue(13, 17) == 1
    assert symbols.quartic_residue(2, 73) == 1
    with pytest.raises(ValueError):
        symbols.quartic_residue(2, 13)  # (2/13) = -1
    with pytest.raises(ValueError):
        symbols.quartic_residue(2, 7)  # 7 = 3 mod 4


def test_quartic_residue_properties():
    for p in [x for x in range(5, 500) if x % 4 == 1 and x in set(_SMALL_PRIMES)]:
        for a in range(2, 40):
            if symbols.jacobi(a, p) != 1:
                continue
            s = symbols.quartic_residue(a, p)
            assert s in (1, -1)
            # fourth powers detect squares: (a^2/p)_4 = (a/p)
            if symbols.jacobi(a * a, p) == 1:
                assert symbols.quartic_residue(a * a, p) == symbols.jacobi(a, p)


def test_quartic_2_of_d():
    assert symbols.quartic_2_of_d(17) == -1
    assert symbols.quartic_2_of_d(73) == 1
    assert symbols.quartic_2_of_d(17 * 73) == -1
    with pytest.raises(ValueError):
        symbols.quartic_2_of_d(5)


def test_burde_examples():
    assert symbols.burde_product(13, 17) == -1
    assert symbols.burde_product(5, 61) == -1
    assert symbols.burde_product(5, 29) == 1
    with pytest.raises(ValueError):
        symbols.burde_product(13, 5)  # (5/13) = -1


def test_hilbert_q_examples():
    assert symbols.hilbert_q(-1, -1, 2) == -1
    assert symbols.hilbert_q(2, 17, 2) == 1
    assert symbols.hilbert_q(-1, -1, symbols.REAL) == -1
    assert symbols.hilbert_q(-1, 3, symbols.REAL) == 1
    with pytest.raises(ValueError):
        symbols.hilbert_q(0, 3, 2)


def test_hilbert_q_rejects_non_integers():
    # (1/3, 5)_3 = (3, 5)_3 = -1, but v_3 of a Fraction read by % is 0, which
    # gave 1: non-integers are refused at an odd place, at 2 and at R
    assert symbols.hilbert_q(3, 5, 3) == -1
    for bad in (Fraction(1, 3), Fraction(5), 1 / 3, 3.0):
        for l in (3, 2, symbols.REAL):
            with pytest.raises(TypeError):
                symbols.hilbert_q(bad, 5, l)
            with pytest.raises(TypeError):
                symbols.hilbert_q(5, bad, l)


def test_hilbert_q_on_integers_is_unchanged():
    # every (a, b)_l with 0 < |a|, |b| <= 40 at 2, 3, 5, 7, 11 and R, against
    # the digest of the same grid taken before the symbols checked types
    h = hashlib.sha256()
    for l in (2, 3, 5, 7, 11, symbols.REAL):
        for a in range(-40, 41):
            for b in range(-40, 41):
                if a and b:
                    h.update(b"%d" % (symbols.hilbert_q(a, b, l) + 1))
    assert h.hexdigest() == "671716190e338465e3005ed8c9a034867f42cc552d33d6c9e5007b356b646bf5"


def test_hilbert_q_matches_solvability():
    # (a, b)_l = 1 iff z^2 = a x^2 + b y^2 has a nontrivial solution; check
    # odd l by counting projective solutions mod l (smooth conic case)
    for l in (3, 5, 7, 11, 13):
        for a in range(1, l):
            for b in range(1, l):
                found = False
                for x in range(l):
                    for y in range(l):
                        z2 = (a * x * x + b * y * y) % l
                        if (x, y) == (0, 0):
                            continue
                        if symbols.jacobi(z2, l) in (0, 1):
                            found = True
                            break
                    if found:
                        break
                assert symbols.hilbert_q(a, b, l) == 1 or not found


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=-200, max_value=200).filter(lambda x: x != 0),
    st.integers(min_value=-200, max_value=200).filter(lambda x: x != 0),
    st.integers(min_value=-200, max_value=200).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, 11, 13, symbols.REAL]),
)
def test_hilbert_q_bimultiplicative(a, a2, b, l):
    lhs = symbols.hilbert_q(a * a2, b, l)
    assert lhs == symbols.hilbert_q(a, b, l) * symbols.hilbert_q(a2, b, l)
    assert symbols.hilbert_q(a, b, l) == symbols.hilbert_q(b, a, l)


def hilbert_places(a, b):
    # the places where (a, b)_l can be nontrivial: 2, the odd primes of ab, REAL
    odd = {p for n in (a, b) for p in factor(abs(n)).primes() if p != 2}
    return [2, *sorted(odd), symbols.REAL]


def test_hilbert_reciprocity_sample():
    random.seed(5)
    for _ in range(2000):
        a = random.randint(-10**4, 10**4)
        b = random.randint(-10**4, 10**4)
        if a == 0 or b == 0:
            continue
        prod = 1
        for l in hilbert_places(a, b):
            prod *= symbols.hilbert_q(a, b, l)
        assert prod == 1, (a, b)


def test_burde_matches_quartic_product():
    ps = [p for p in _SMALL_PRIMES if p % 4 == 1 and p <= 600]
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            if symbols.jacobi(q, p) != 1:
                continue
            want = symbols.quartic_residue(p, q) * symbols.quartic_residue(q, p)
            assert symbols.burde_product(p, q) == want, (p, q)
