import math
import random

import pytest

from pellcrit import quadring
from pellcrit.symbols import jacobi


def test_splitting_type_examples():
    assert quadring.splitting_type(221, 2) == "inert"
    assert quadring.splitting_type(221, 13) == "ramified"
    assert quadring.splitting_type(34, 5) == "split"
    assert quadring.splitting_type(17, 2) == "split"
    assert quadring.splitting_type(34, 2) == "ramified"


def test_classify_order():
    info = quadring.classify_order(221)
    assert info.family == "pq" and info.primes == (13, 17)
    info = quadring.classify_order(34)
    assert info.family == "2d" and info.primes == (17,)
    info = quadring.classify_order(1394)
    assert info.family == "2d" and info.primes == (17, 41)
    assert quadring.classify_order(15).family == "other"
    assert quadring.classify_order(2 * 17 * 17).family == "other"
    with pytest.raises(ValueError):
        quadring.classify_order(16)


def _two_squares_brute(m):
    out = []
    for s in range(1, math.isqrt(m) + 1):
        r2 = m - s * s
        if r2 < s * s:
            break
        r = math.isqrt(r2)
        if r * r == r2 and math.gcd(r, s) == 1:
            out.append((r, s))
    return sorted(out)


def test_two_squares_examples():
    assert quadring.two_squares_all(34) == [(5, 3)]
    assert quadring.two_squares_all(1394) == [(35, 13), (37, 5)]
    assert quadring.two_squares_all(21) == []
    assert quadring.two_squares_all(2) == [(1, 1)]


def test_two_squares_exhaustive():
    for m in range(2, 20000):
        assert quadring.two_squares_all(m) == _two_squares_brute(m), m


def test_two_squares_sampled_large():
    random.seed(2)
    for _ in range(1500):
        m = random.randint(20000, 100000)
        assert quadring.two_squares_all(m) == _two_squares_brute(m), m


def test_find_twist_point_examples():
    tp = quadring.find_twist_point(221, 17)
    assert (tp.x0, tp.y0, tp.z0) == (119, 8, 1)
    tp = quadring.find_twist_point(34, 2)
    assert (tp.x0, tp.y0, tp.z0) == (6, 1, 1)
    tp = quadring.find_twist_point(305, 5)
    assert (tp.x0, tp.y0, tp.z0) == (35, 2, 1)
    tp = quadring.find_twist_point(146, 2)
    assert (tp.x0, tp.y0, tp.z0) == (14, 1, 5)


def test_twist_point_invariants():
    for D, ell in [(221, 17), (34, 2), (82, 2), (146, 2), (305, 5), (1394, 2)]:
        tp = quadring.find_twist_point(D, ell)
        assert tp.x0 > 0 and math.gcd(tp.x0, tp.y0) == 1
        assert tp.x0**2 - D * tp.y0**2 == ell * tp.z0**2


def test_twist_point_rejects_junk():
    with pytest.raises(ValueError):
        quadring.TwistPoint(5, 1, 1, 2, 34)  # not a solution
    with pytest.raises(ValueError):
        quadring.TwistPoint(12, 2, 2, 2, 34)  # gcd(x0, y0) > 1


def test_split_consistency_with_local():
    # a split prime itself is a local norm: cross-module sanity
    from pellcrit.localanalysis import local_solvable

    for D in (34, 146, 221, 305):
        for l in (3, 5, 7, 11, 13, 17, 19, 23):
            if quadring.splitting_type(D, l) == "split":
                assert local_solvable(D, l, l)
                assert jacobi(D, l) == 1
