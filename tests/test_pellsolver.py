import math
import random

import pytest

from pellcrit import pellsolver


def test_cf_fundamental_examples():
    cf, f = pellsolver.cf_fundamental(221)
    assert (f.x1, f.y1, f.unit_norm) == (1665, 112, 1)
    assert len(cf.period) == 6
    _, f = pellsolver.cf_fundamental(10)
    assert (f.x1, f.y1, f.unit_norm) == (3, 1, -1)
    _, f = pellsolver.cf_fundamental(34)
    assert (f.x1, f.y1, f.unit_norm) == (35, 6, 1)
    with pytest.raises(ValueError):
        pellsolver.cf_fundamental(25)


def test_cf_invariants_to_2000():
    for D in range(2, 2001):
        if math.isqrt(D) ** 2 == D:
            continue
        cf, f = pellsolver.cf_fundamental(D)
        assert f.x1 * f.x1 - D * f.y1 * f.y1 == f.unit_norm
        assert (f.unit_norm == -1) == (len(cf.period) % 2 == 1)
        body = cf.period[:-1]
        assert body == tuple(reversed(body))
        assert cf.period[-1] == 2 * cf.a0
        assert all(q != 0 for _, q in cf.pq_states)


def test_solve_examples():
    v = pellsolver.solve(221, 17)
    assert v.status == "solvable" and v.witness == (119, 8)
    v = pellsolver.solve(82, 2)
    assert v.status == "unsolvable"
    assert v.reason == "class-search-exhausted"  # locally solvable everywhere
    v = pellsolver.solve(305, 5)
    assert v.witness == (35, 2)
    v = pellsolver.solve(221, -4)
    assert v.status == "unsolvable"
    v = pellsolver.solve(15, -1)
    assert v.status == "unsolvable" and v.reason.startswith("local-obstruction")
    with pytest.raises(ValueError):
        pellsolver.solve(221, 0)
    with pytest.raises(ValueError):
        pellsolver.solve(49, 3)


def test_witness_always_verifies():
    random.seed(4)
    for _ in range(600):
        D = random.randint(2, 500)
        if math.isqrt(D) ** 2 == D:
            continue
        n = random.randint(-100, 100)
        if n == 0:
            continue
        v = pellsolver.solve(D, n)
        if v.solvable:
            x, y = v.witness
            assert x * x - D * y * y == n


def _orbit_scan(D, n):
    # brute-force reference: try every y up to the orbit bound, slide each hit
    # to the orbit minimum
    reps = set()
    for y in range(pellsolver.orbit_y_bound(D, n) + 1):
        t = n + D * y * y
        if t >= 0 and math.isqrt(t) ** 2 == t:
            reps.add(pellsolver._descend(D, math.isqrt(t), y))
    return sorted(reps, key=lambda t: (t[1], t[0]))


def _pqa_route(D, n):
    reps = {pellsolver._descend(D, x, y) for x, y in pellsolver._lmm_all(D, n)}
    return sorted(reps, key=lambda t: (t[1], t[0]))


def test_routes_agree():
    # both routes on small pairs, whichever one the dispatch picks
    for D in (13, 34, 61, 82, 146, 221, 305):
        for n in list(range(-25, 26)) + [17, 50, 68]:
            if n == 0:
                continue
            want = _orbit_scan(D, n)
            assert pellsolver.minimal_solutions(D, n) == want, (D, n)
            assert _pqa_route(D, n) == want, (D, n)
    # the PQa route on a sample of the bounds the scan handled before
    rng = random.Random(7)
    sampled = solvable = 0
    while sampled < 250:
        D, n = rng.randint(2, 600), rng.choice([-1, 1]) * rng.randint(1, 300)
        if math.isqrt(D) ** 2 == D:
            continue
        if not pellsolver._ORBIT_SCAN_LIMIT < pellsolver.orbit_y_bound(D, n) <= 20_000:
            continue
        want = _orbit_scan(D, n)
        assert pellsolver.minimal_solutions(D, n) == want, (D, n)
        sampled += 1
        solvable += bool(want)
    assert solvable >= 25


def test_scan_limit_boundary(monkeypatch):
    limit = pellsolver._ORBIT_SCAN_LIMIT
    at = {limit: [], limit + 1: []}
    for D in range(2, 400):
        if math.isqrt(D) ** 2 == D:
            continue
        for n in range(-60, 61):
            if n and (bound := pellsolver.orbit_y_bound(D, n)) in at:
                at[bound].append((D, n))
    assert all(len(pairs) >= 5 for pairs in at.values())
    pqa_calls = []
    lmm_all = pellsolver._lmm_all
    monkeypatch.setattr(
        pellsolver, "_lmm_all", lambda D, n: pqa_calls.append((D, n)) or lmm_all(D, n)
    )
    for bound, pairs in at.items():
        for D, n in pairs:
            pqa_calls.clear()
            assert pellsolver.minimal_solutions(D, n) == _orbit_scan(D, n), (D, n)
            # the scan route up to the limit, PQa threads beyond it
            assert bool(pqa_calls) == (bound > limit), (D, n, bound)
    assert any(_orbit_scan(D, n) for D, n in at[limit + 1])


def test_many_split_primes():
    # 2^w(n) PQa threads; 7, 17, 23, 31, 41 and 47 all split in Q(sqrt 2)
    n = 1
    for p in (7, 17, 23, 31, 41, 47):
        n *= p
        if n < 7 * 17 * 23 * 31:
            continue
        for m in (n, -n, 2 * n):
            assert pellsolver.orbit_y_bound(2, m) > pellsolver._ORBIT_SCAN_LIMIT
            assert pellsolver.minimal_solutions(2, m) == _orbit_scan(2, m), m
    # 2^6 ideals of norm n; conjugates share one (|x|, |y|) representative
    assert len(pellsolver.minimal_solutions(2, n)) == 2**5


def test_large_unit_cases():
    v = pellsolver.solve(181, -1)
    x, y = v.witness
    assert x * x - 181 * y * y == -1 and y > 10**6
    v = pellsolver.solve(661, 3)
    assert v.solvable and v.witness[0] ** 2 - 661 * v.witness[1] ** 2 == 3


def test_unit_orbit_closure():
    for D, n in [(221, 17), (34, 2), (146, -2), (10, -1)]:
        v = pellsolver.solve(D, n)
        x, y = v.witness
        xp, yp = pellsolver.plus_unit(D)
        xx, yy = x * xp + D * y * yp, x * yp + y * xp
        assert xx * xx - D * yy * yy == n
