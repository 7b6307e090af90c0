import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pellcrit import pellsolver
from pellcrit.intcore import factor, is_prime, is_square, isqrt
from pellcrit.pellsolver import _floor_quad, cf_fundamental
from pellcrit.symbols import jacobi


def _states(cf):
    # the states (P_k, Q_k) of (P_k + sqrt(D)) / Q_k for k = 0..L, by
    # P_(k+1) = a_k Q_k - P_k; from k = 1 on, the principal cycle
    P, Q = 0, 1
    states = [(P, Q)]
    for a, q in zip((cf.a0,) + cf.period, cf.qs):
        P, Q = a * Q - P, q
        states.append((P, Q))
    return tuple(states)


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
        states = _states(cf)
        assert all(q != 0 for _, q in states)
        assert cf.qs == tuple(q for _, q in states[1:])
        assert all(P * P == D - q_prev * q for (_, q_prev), (P, q) in zip(states, states[1:]))
        # h_k^2 - D k_k^2 = (-1)^(k+1) Q_(k+1) over two periods
        L = len(cf.period)
        h_prev, h, k_prev, k = 1, cf.a0, 0, 1
        for i in range(2 * L):
            assert h * h - D * k * k == (-1) ** (i + 1) * cf.qs[i % L], (D, i)
            a = cf.period[i % L]
            h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev


def _reference_cf_fundamental(D: int):
    # the full walk over one whole period, as before the half-period walk;
    # it returns (a0, period, states, qs) and (x1, y1, unit_norm) as tuples
    a0 = isqrt(D)
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    P, Q, a = 0, 1, a0
    period: list[int] = []
    states: list[tuple[int, int]] = [(0, 1)]
    qs: list[int] = []
    while True:
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (a0 + P) // Q
        period.append(a)
        qs.append(Q)
        states.append((P, Q))
        if Q == 1:
            break
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    norm = -1 if len(period) % 2 == 1 else 1
    if h * h - D * k * k != norm:
        raise ArithmeticError(f"CF expansion of sqrt({D}) gave no unit")
    cf = (a0, tuple(period), tuple(states), tuple(qs))
    return cf, (h, k, norm)


def _half_walk_matches_full_walk(D: int) -> int:
    # the period length, once the half walk matches the full one at D
    cf, fund = cf_fundamental.__wrapped__(D)
    got = (cf.a0, cf.period, _states(cf), cf.qs), (fund.x1, fund.y1, fund.unit_norm)
    assert got == _reference_cf_fundamental(D), D
    return len(cf.period)


def test_half_walk_matches_full_walk_below_20000():
    # both stop rules: P_(m+1) = P_m for an even period, Q_(m+1) = Q_m for an odd one
    lengths = [_half_walk_matches_full_walk(D) for D in range(2, 20_000) if not is_square(D)]
    assert len(lengths) == 20_000 - 2 - 140
    odd = sum(L % 2 for L in lengths)
    assert odd > 1000 and len(lengths) - odd > 10_000


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=10**6, max_value=10**7))
def test_half_walk_matches_full_walk_at_large_d(D):
    assume(not is_square(D))
    _half_walk_matches_full_walk(D)


@pytest.mark.parametrize(
    "D, period",
    [
        # period 1: the odd rule at m = 0, where Q_1 = Q_0 = 1 and eps = alpha_0
        (2, (2,)),
        (5, (4,)),
        (10, (6,)),
        (26, (10,)),
        # period 2: the even rule at m = 1, where P_2 = P_1 and eps = alpha_0^2 / Q_1
        (3, (1, 2)),
        (6, (2, 4)),
        (8, (1, 4)),
        (11, (3, 6)),
        (12, (2, 6)),
    ],
)
def test_half_walk_on_the_shortest_periods(D, period):
    assert cf_fundamental(D)[0].period == period
    _half_walk_matches_full_walk(D)


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
    # obstructed at a prime of n prime to D: 3 is inert in Q(sqrt 2), v3 = 1
    v = pellsolver.solve(2, -39)
    assert v.status == "unsolvable" and v.reason == "local-obstruction:3"
    v = pellsolver.solve(331, -247)
    assert v.status == "unsolvable" and v.reason == "local-obstruction:13"
    # obstructed at an odd l with l^2 | D: 7 and 2 are not squares mod 5, 3
    v = pellsolver.solve(50, 7)
    assert v.status == "unsolvable" and v.reason == "local-obstruction:5"
    v = pellsolver.solve(63, 2)
    assert v.status == "unsolvable" and v.reason == "local-obstruction:3"
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


def test_scan_route_walks_nagell_range():
    # the scan route tries only Nagell's range of least y per class
    # (Thms 108/108a); on every scan-route pair of the grid it finds what the
    # full scan over 0..B finds, and thousands of classes have their least y
    # exactly at the upper end, the largest y with 2 (x1 +- 1) y^2 <= |n| y1^2
    at_top = 0
    for D in range(2, 400):
        if math.isqrt(D) ** 2 == D:
            continue
        xp, yp = pellsolver.plus_unit(D)
        for n in range(-200, 201):
            if n == 0 or pellsolver.orbit_y_bound(D, n) > pellsolver._ORBIT_SCAN_LIMIT:
                continue
            got = pellsolver.minimal_solutions(D, n)
            assert got == _orbit_scan(D, n), (D, n)
            top = isqrt(abs(n) * yp * yp // (2 * (xp + 1 if n > 0 else xp - 1)))
            at_top += any(y == top for _, y in got)
    assert at_top == 3080
    # (x1, y1) = (3, 2) at D = 2: for n = -196 the upper end is y = 14, and the
    # class of (14, 14) has no smaller y; for n = -2 the lower end, the least
    # y with 2 y^2 >= 2, holds (0, 1)
    assert pellsolver.plus_unit(2) == (3, 2)
    assert isqrt(196 * 2 * 2 // (2 * (3 - 1))) == 14
    assert pellsolver.minimal_solutions(2, -196) == [(2, 10), (14, 14)]
    assert pellsolver.minimal_solutions(2, -2) == [(0, 1)]


def test_scan_limit_boundary(monkeypatch):
    limit = pellsolver._ORBIT_SCAN_LIMIT
    at = {limit: [], limit + 1: []}
    for D in range(2, 400):
        if math.isqrt(D) ** 2 == D:
            continue
        for n in range(-60, 61):
            if n and (bound := pellsolver.orbit_y_bound(D, n)) in at:
                at[bound].append((D, n))
    # beyond the limit both n^2 < D and n^2 >= D occur
    assert len(at[limit]) >= 5
    assert sum(n * n < D for D, n in at[limit + 1]) >= 5
    assert sum(n * n >= D for D, n in at[limit + 1]) >= 5
    calls = []
    for route in ("_convergent_all", "_lmm_all"):
        monkeypatch.setattr(
            pellsolver, route,
            lambda D, n, route=route, f=getattr(pellsolver, route): calls.append(route) or f(D, n),
        )
    for bound, pairs in at.items():
        for D, n in pairs:
            calls.clear()
            assert pellsolver.minimal_solutions(D, n) == _orbit_scan(D, n), (D, n)
            # the scan up to the limit, then convergents for n^2 < D, else PQa
            if bound <= limit:
                want = []
            else:
                want = ["_convergent_all" if n * n < D else "_lmm_all"]
            assert calls == want, (D, n, bound)
    assert any(_orbit_scan(D, n) for D, n in at[limit + 1] if n * n < D)
    assert any(_orbit_scan(D, n) for D, n in at[limit + 1] if n * n >= D)


def test_oracle_plan_threshold_is_exact():
    # n_scan is the largest |n| with orbit bound <= the limit, so the scan
    # route is -n_scan <= n <= n_scan; near 10^6 most units are large and
    # n_scan is 0, while D = 1000^2 +- small has a small unit and a large
    # n_scan
    limit, bound = pellsolver._ORBIT_SCAN_LIMIT, pellsolver.orbit_y_bound
    ds = [D for D in range(2, 3000) if not is_square(D)]
    near = [D for D in range(10**6 - 50, 10**6 + 51) if not is_square(D)]
    assert len(near) == 100
    zero = 0
    for D in ds + near:
        n_scan = pellsolver._oracle_plan(D)
        assert bound(D, n_scan) <= limit < bound(D, n_scan + 1), D
        zero += D in near and n_scan == 0
    assert 0 < zero < 100
    # the plan holds n_scan alone: a warm search reads the unit from
    # plus_unit's memo, which then hits and never misses
    pellsolver.minimal_solutions(7, 2)
    before = pellsolver.plus_unit.cache_info()
    assert pellsolver.minimal_solutions(7, 2) == [(3, 1)]
    after = pellsolver.plus_unit.cache_info()
    assert after.hits > before.hits and after.misses == before.misses
    # D is checked before n
    for D in (-3, 0, 49):
        with pytest.raises(ValueError, match="positive non-square"):
            pellsolver.minimal_solutions(D, 0)
    with pytest.raises(ValueError, match="n must be nonzero"):
        pellsolver.minimal_solutions(2, 0)


def test_oracle_plans_are_bounded(assert_bounded):
    ds = [D for D in range(2, 2000) if not is_square(D)][:1025]
    assert_bounded(pellsolver._oracle_plan, [(D,) for D in ds], 1024)


# the full-cycle thread, verbatim as before the early stop
def _reference_pqa_solutions(D: int, m: int, z: int) -> list[tuple[int, int]]:
    """Solutions of x^2 - D y^2 = m on the CF thread of (z + sqrt(D))/|m|."""
    s = isqrt(D)
    am = abs(m)
    _, fund = cf_fundamental(D)
    sols: list[tuple[int, int]] = []
    P, Q = z, am
    g_prev, g = -z, am
    b_prev, b = 1, 0
    seen: set[tuple[int, int]] = set()
    i = 0
    while (P, Q) not in seen:
        seen.add((P, Q))
        a = _floor_quad(P, Q, s)
        P_next = a * Q - P
        Q_next = (D - P_next * P_next) // Q
        g_prev, g = g, a * g + g_prev
        b_prev, b = b, a * b + b_prev
        # G_i^2 - D B_i^2 = (-1)^(i+1) Q0 Q_(i+1)
        if Q_next in (1, -1):
            val = am * Q_next if (i + 1) % 2 == 0 else -am * Q_next
            if val == m:
                sols.append((g, b))
            elif val == -m and fund.unit_norm == -1:
                sols.append((g * fund.x1 + D * b * fund.y1, g * fund.y1 + b * fund.x1))
        P, Q = P_next, Q_next
        i += 1
        if i > 10_000_000:
            raise ArithmeticError(f"CF thread failed to cycle for D={D}, m={m}")
    return sols


def _one_class(D, m, z, sols):
    # every hit of the thread of z has x = -z y (mod |m|), and any two of
    # them have an integral quotient of norm 1, so they lie in one class and
    # descend to one orbit-minimal representative
    am = abs(m)
    assert all(x * x - D * y * y == m and (x + z * y) % am == 0 for x, y in sols)
    x0, y0 = sols[0]
    assert all((x0 * x - D * y0 * y) % am == 0 == (x * y0 - x0 * y) % am for x, y in sols)
    assert len({pellsolver._descend(D, x, y) for x, y in sols}) == 1


def _matches_first_hit(D, m, z, want):
    # the thread returns the first hit of the full cycle, which is the class
    # of every other hit
    if want:
        _one_class(D, m, z, want)
    return pellsolver._pqa_thread(D, m, z) == (want[0] if want else None)


def _roots(D, m, mfac):
    # every square root of D mod |m|, shifted into (-|m|/2, |m|/2]: the -z of
    # each conjugate pair included, which _lmm_all skips
    return [z - abs(m) if 2 * z > abs(m) else z for z in pellsolver.sqrt_mod_factored(D, mfac)]


def _threads(D, n):
    # (f, m, z) for the thread of every root, the -z ones included, as the
    # full-cycle reference; _lmm_all runs only the threads with z >= 0
    for f, mfac in pellsolver._square_divisors(n):
        m = n // (f * f)
        for z in _roots(D, m, mfac):
            yield f, m, z


def _reference_route(D, n):
    # the full-cycle PQa route, complete for every n
    reps = {
        pellsolver._descend(D, f * x, f * y)
        for f, m, z in _threads(D, n)
        for x, y in _reference_pqa_solutions(D, m, z)
    }
    return sorted(reps, key=lambda t: (t[1], t[0]))


def test_convergent_route_small_n():
    # every n^2 < D with D < 1000, through the convergent route itself:
    # against the orbit scan where its bound is small, else full PQa cycles
    scanned = cycled = solvable = 0
    for D in range(2, 1000):
        s = math.isqrt(D)
        if s * s == D:
            continue
        for n in range(-s, s + 1):
            if n == 0 or n * n >= D:
                continue
            got = sorted(
                {pellsolver._descend(D, x, y) for x, y in pellsolver._convergent_all(D, n)},
                key=lambda t: (t[1], t[0]),
            )
            if pellsolver.orbit_y_bound(D, n) <= 2000:
                want = _orbit_scan(D, n)
                scanned += 1
            else:
                want = _reference_route(D, n)
                cycled += 1
            assert got == want, (D, n)
            solvable += bool(want)
    assert scanned > 25_000 and cycled > 10_000 and solvable > 8_000


def test_pqa_threads_match_full_cycles():
    # thread by thread: stopping at the first hit, or at the first reduced
    # state off the principal cycle, since (s, 1) is the only reduced state
    # with Q = +-1, loses no class; each thread returns the first hit of the
    # full cycle, and every hit of the full cycle lies in its class.  The
    # threads of every 0 < |n| <= 200 are those of m = n / f^2 with f = 1.
    threads = second_hits = 0
    for m in range(-200, 201):
        if m == 0:
            continue
        mfac = factor(abs(m)).factors
        for D in range(2, 600):
            if math.isqrt(D) ** 2 == D:
                continue
            for z in _roots(D, m, mfac):
                want = _reference_pqa_solutions(D, m, z)
                assert _matches_first_hit(D, m, z, want), (D, m, z)
                threads += 1
                second_hits += len(want) > 1
    assert threads > 200_000 and second_hits > 20_000


def test_pqa_thread_stops_off_the_principal_cycle(monkeypatch):
    # x^2 - 2575 y^2 = -67 is not solvable (-67 is no square mod 5, and
    # 5^2 | D): of the two roots 30, 37 of D mod 67, a conjugate pair, only
    # z = 30 runs a thread (-30 is its skipped conjugate), and it starts at
    # a reduced state off the principal cycle (period 40), where the cycle
    # test on ``qs`` stops it
    D, n = 2575, -67
    cf, _ = pellsolver.cf_fundamental(D)
    assert len(cf.period) == 40
    assert pellsolver.orbit_y_bound(D, n) > pellsolver._ORBIT_SCAN_LIMIT and n * n >= D
    assert [z for _, _, z in _threads(D, n)] == [30, -30]
    state, steps = _first_reduced(D, n, 30)
    assert state not in _states(cf) and steps < len(cf.period)
    floors = []
    floor_quad = pellsolver._floor_quad
    monkeypatch.setattr(
        pellsolver, "_floor_quad", lambda P, Q, s: floors.append(1) or floor_quad(P, Q, s)
    )
    v = pellsolver.solve(D, n)
    assert v.status == "unsolvable" and v.reason == "local-obstruction:5"
    assert len(floors) == steps
    assert pellsolver._pqa_thread(D, n, 30) is None


def test_cf_thread_guard_at_its_edge(monkeypatch):
    # the step guard of a PQa thread, moved down to the exact number of steps
    # a known thread takes: it passes at that count and raises one below, as
    # it is checked before each step and so before the hit that step would
    # take.  D = 2, m = 1871 stops at its first hit, (-47, 13) on step 7,
    # three steps before its first reduced state; D = 14, m = -157 takes 6
    # steps to its first reduced state, on the principal cycle, and its one
    # hit from the continuants of the run to (s, 1)
    floors = []
    floor_quad = pellsolver._floor_quad
    monkeypatch.setattr(
        pellsolver, "_floor_quad", lambda P, Q, s: floors.append(1) or floor_quad(P, Q, s)
    )
    for D, m, z, reduced_at, steps, first in [
        (2, 1871, -716, 10, 7, (-47, 13)),
        (14, -157, -64, 6, 6, (47, 13)),
    ]:
        assert _first_reduced(D, m, z)[1] == reduced_at
        assert _reference_pqa_solutions(D, m, z)[0] == first
        monkeypatch.setattr(pellsolver, "_CF_THREAD_MAX_STEPS", steps)
        floors.clear()
        assert pellsolver._pqa_thread(D, m, z) == first and len(floors) == steps
        monkeypatch.setattr(pellsolver, "_CF_THREAD_MAX_STEPS", steps - 1)
        with pytest.raises(ArithmeticError, match="failed to cycle"):
            pellsolver._pqa_thread(D, m, z)


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


def _first_reduced(D, m, z):
    # the first reduced state of the thread of (z + sqrt(D)) / |m|, and its index
    s, P, Q, i = isqrt(D), z, abs(m), 0
    while not (0 < P <= s and s - P < Q <= s + P):
        a = _floor_quad(P, Q, s)
        P = a * Q - P
        Q = (D - P * P) // Q
        i += 1
    return (P, Q), i


def _cycle_keys(count):
    # (D, P_k, Q_k) for the principal cycles of sqrt(D), D = 2, 3, ...: the
    # first count keys on which the continuant memo returns a value
    keys = []
    for D in range(2, 10**6):
        if not is_square(D):
            keys += [(D, P, Q) for P, Q in _states(cf_fundamental(D)[0])[1:]]
            if len(keys) >= count:
                return keys[:count]


def test_pqa_threads_match_full_cycles_on_long_periods():
    # thread by thread at D of 10^5..10^6 with periods in the hundreds, where
    # a thread that enters the principal cycle with no hit takes its solution
    # from the continuants of the run to (s, 1); 136889 has an odd period, so its
    # threads of m < 0 also meet -m through the norm -1 unit.  Each thread
    # runs with the continuant memo cold, warm, and after eviction by keys
    # of other D: a warm pass makes no miss, an evicted one the same misses
    # as the cold one
    periods = {106979: 290, 114955: 154, 120937: 123, 136889: 401}
    threads = []
    on_cycle = off_cycle = entered_at_s1 = odd_negative = 0
    for D, L in periods.items():
        cf, fund = cf_fundamental(D)
        states = _states(cf)
        assert len(cf.period) == L and (fund.unit_norm == -1) == (L % 2 == 1)
        for m in range(-60, 61):
            if m == 0:
                continue
            for z in _roots(D, m, factor(abs(m)).factors):
                want = _reference_pqa_solutions(D, m, z)
                threads.append((D, m, z, want))
                state, _ = _first_reduced(D, m, z)
                if state in states:
                    on_cycle += 1
                    entered_at_s1 += states.index(state) == L
                else:
                    off_cycle += 1
                    assert want == []
                odd_negative += bool(want) and m < 0 and L % 2 == 1
    assert on_cycle > 100 and off_cycle > 100 and entered_at_s1 >= 2 and odd_negative > 10
    memo = pellsolver._cycle_continuants
    memo.cache_clear()
    misses = []
    for run in ("cold", "warm", "evicted"):
        if run == "evicted":
            for key in _cycle_keys(memo.cache_info().maxsize):
                memo(*key)
        before = memo.cache_info().misses
        for D, m, z, want in threads:
            assert _matches_first_hit(D, m, z, want), (run, D, m, z)
        misses.append(memo.cache_info().misses - before)
    assert misses[0] == misses[2] > 0 and misses[1] == 0
    # a thread whose first reduced state is (s, 1) itself: one hit on entering
    # and one more a whole rotated period later, in the same class
    D, m, z = 106979, -50, 23
    cf, _ = cf_fundamental(D)
    assert _first_reduced(D, m, z)[0] == _states(cf)[-1] == (isqrt(D), 1)
    sols = _reference_pqa_solutions(D, m, z)
    assert len(sols) == 2 and sols[0] != sols[1]
    _one_class(D, m, z, sols)
    assert pellsolver._pqa_thread(D, m, z) == sols[0]


def test_pqa_thread_takes_no_floor_on_the_principal_cycle(monkeypatch):
    # once a thread reaches its first reduced state on the principal cycle,
    # the rest of the way to (s, 1) is read off the cached period: every floor
    # taken is of a state before the cycle
    D, m, z = 136889, -59, 3
    cf, _ = cf_fundamental(D)
    state, steps = _first_reduced(D, m, z)
    assert 0 < _states(cf).index(state) < len(cf.period) == 401
    s = isqrt(D)
    seen = []
    floor_quad = pellsolver._floor_quad
    monkeypatch.setattr(
        pellsolver, "_floor_quad", lambda P, Q, s: seen.append((P, Q)) or floor_quad(P, Q, s)
    )
    sols = _reference_pqa_solutions(D, m, z)
    assert len(sols) == 1 and pellsolver._pqa_thread(D, m, z) == sols[0]
    assert len(seen) == steps < 10
    assert not any(0 < P <= s and s - P < Q <= s + P for P, Q in seen)


def test_descend_takes_the_inverse_unit_only():
    # the former two-candidate descent, stepping by eps and 1/eps and keeping
    # the smaller |y|, on a grid of points (x, y) and their images under eps
    def two_candidates(D, x, y):
        xp, yp = pellsolver.plus_unit(D)
        x, y = abs(x), abs(y)
        while True:
            cands = [
                (x * xp - D * y * yp, x * yp - y * xp),
                (x * xp + D * y * yp, x * yp + y * xp),
            ]
            best = min(cands, key=lambda t: abs(t[1]))
            if abs(best[1]) < y:
                x, y = abs(best[0]), abs(best[1])
            else:
                return x, y

    checked = 0
    for D in range(2, 120):
        if math.isqrt(D) ** 2 == D:
            continue
        xp, yp = pellsolver.plus_unit(D)
        for y in range(0, 25):
            for x in range(0, 25):
                # a point and its image under eps
                for _ in range(2):
                    assert pellsolver._descend(D, x, y) == two_candidates(D, x, y), (D, x, y)
                    checked += 1
                    x, y = x * xp + D * y * yp, x * yp + y * xp
    assert checked > 100_000


def test_pqa_route_solvability_against_sympy():
    # a third reference: sympy's diop_DN on seeded pairs of the PQa route
    # (orbit bound above the scan limit, n^2 >= D), half of them drawn as
    # x^2 - D y^2 near a solution so that solvable n are well represented
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    rng = random.Random(14)
    pairs = []
    while len(pairs) < 50:
        D = rng.randint(2, 600)
        if math.isqrt(D) ** 2 == D:
            continue
        if len(pairs) % 2 == 0:
            y = rng.randint(1, 12)
            n = (math.isqrt(D * y * y) + rng.randint(-30, 30)) ** 2 - D * y * y
        else:
            n = rng.choice([-1, 1]) * rng.randint(1, 1000)
        if n == 0 or abs(n) > 1000 or n * n < D:
            continue
        if pellsolver.orbit_y_bound(D, n) <= pellsolver._ORBIT_SCAN_LIMIT:
            continue
        pairs.append((D, n))
    solvable = 0
    for D, n in pairs:
        got = bool(pellsolver.minimal_solutions(D, n))
        assert got == bool(diop_DN(D, n)), (D, n, sympy.__version__)
        solvable += got
    assert solvable >= 15


# the PQa route verbatim as before it searched one class of each conjugate
# pair, with full-cycle threads: a thread for every root z of D mod |m|
def _reference_lmm_all(D: int, n: int) -> list[tuple[int, int]]:
    found: list[tuple[int, int]] = []
    for f, mfac in pellsolver._square_divisors(n):
        m = n // (f * f)
        am = abs(m)
        for z in pellsolver.sqrt_mod_factored(D, mfac):
            if 2 * z > am:
                z -= am
            for x, y in _reference_pqa_solutions(D, m, z):
                found.append((f * x, f * y))
    return found


def _classes(D, sols):
    # the orbit-minimal (|x|, |y|) of each solution; a class and its
    # conjugate share one
    return {pellsolver._descend(D, x, y) for x, y in sols}


def test_one_thread_per_conjugate_pair_finds_every_class():
    pairs = solvable = 0
    for D in range(2, 400):
        if is_square(D):
            continue
        for n in range(-200, 201):
            if n == 0 or n * n < D:
                continue
            want = _classes(D, _reference_lmm_all(D, n))
            assert _classes(D, pellsolver._lmm_all(D, n)) == want, (D, n)
            pairs += 1
            solvable += bool(want)
    assert pairs > 140_000 and solvable > 15_000


def _split_prime(D, p):
    # the least odd prime >= p that splits in Q(sqrt D)
    p |= 1
    while not (is_prime(p) and jacobi(D, p) == 1):
        p += 2
    return p


@st.composite
def _split_products(draw):
    # D up to 10^6 and n = +-f^2 times 2-4 primes split in Q(sqrt D), so that
    # every m = n / g^2 has 2^w(m) roots of D mod |m|
    D = draw(st.integers(min_value=2, max_value=10**6).filter(lambda D: not is_square(D)))
    n = draw(st.sampled_from([-1, 1])) * draw(st.integers(min_value=1, max_value=12)) ** 2
    for p in draw(st.lists(st.integers(min_value=3, max_value=3000), min_size=2, max_size=4)):
        n *= _split_prime(D, p)
    return D, n


@settings(max_examples=60, deadline=None)
@given(_split_products())
def test_conjugate_pairs_under_split_products(pair):
    D, n = pair
    want = _classes(D, _reference_lmm_all(D, n))
    assert _classes(D, pellsolver._lmm_all(D, n)) == want, (D, n)


def test_four_roots_run_two_threads(monkeypatch):
    # 7 and 17 split in Q(sqrt 2): four roots of 2 mod 119, two conjugate
    # pairs, none its own conjugate
    D, n = 2, 7 * 17
    roots = pellsolver.sqrt_mod_factored(D, factor(n).factors)
    assert len(roots) == 4 and all(2 * z % n for z in roots)
    want = _classes(D, _reference_lmm_all(D, n))
    assert len(want) == 2
    calls = []
    pqa = pellsolver._pqa_thread
    monkeypatch.setattr(
        pellsolver, "_pqa_thread", lambda D, m, z: calls.append(z) or pqa(D, m, z)
    )
    assert _classes(D, pellsolver._lmm_all(D, n)) == want
    assert calls == [z for z in roots if 2 * z < n]


def test_confirm_computes_no_local_label(monkeypatch):
    # the criterion's unsolvable verdict at 34, -8 (locally solvable, the
    # condition fails) is confirmed by the search alone
    labels = []
    obstruction = pellsolver.local_obstruction_anywhere
    monkeypatch.setattr(
        pellsolver,
        "local_obstruction_anywhere",
        lambda *args, **kwargs: labels.append(args) or obstruction(*args, **kwargs),
    )
    v = pellsolver.confirm(34, -8, False, "artin", "artin-condition-fails")
    assert v == ("unsolvable", None, "artin", "artin-condition-fails")
    assert labels == []
    assert pellsolver.confirm(221, 17, True, "artin") == ("solvable", (119, 8), "artin", None)


def test_cf_caches_are_bounded():
    # after maxsize + 1 distinct D both per-D caches are full, not larger, and
    # the evicted first D computes an equal expansion and unit again
    size = pellsolver.cf_fundamental.cache_info().maxsize
    assert size == pellsolver.plus_unit.cache_info().maxsize == 1024
    ds = [D for D in range(2, 2 * size) if not is_square(D)][: size + 1]
    pellsolver.cf_fundamental.cache_clear()
    pellsolver.plus_unit.cache_clear()
    first = cf_fundamental(ds[0]), pellsolver.plus_unit(ds[0])
    for D in ds[1:]:
        pellsolver.plus_unit(D)
    assert pellsolver.cf_fundamental.cache_info().currsize == size
    assert pellsolver.plus_unit.cache_info().currsize == size
    misses = pellsolver.cf_fundamental.cache_info().misses
    assert (cf_fundamental(ds[0]), pellsolver.plus_unit(ds[0])) == first
    assert pellsolver.cf_fundamental.cache_info().misses == misses + 1
    assert pellsolver.cf_fundamental.cache_info().currsize == size


def test_thread_roots_match_the_filtered_roots():
    # the memo keyed by D mod |m| returns the 2z <= |m| filter of every root
    # of D mod |m|, in the same order
    for am in range(1, 501):
        mfac = factor(am).factors
        for D in range(2, 300):
            want = tuple(z for z in pellsolver.sqrt_mod_factored(D, mfac) if 2 * z <= am)
            assert pellsolver._thread_roots(D % am, mfac) == want, (D, am)


def test_square_divisors_are_bounded(assert_bounded):
    assert_bounded(pellsolver._square_divisors, [(n,) for n in range(-2048, 2050) if n], 4096)
    assert pellsolver._square_divisors(-72) == (
        (1, ((2, 3), (3, 2))), (3, ((2, 3),)), (2, ((2, 1), (3, 2))), (6, ((2, 1),))
    )


def test_thread_roots_are_bounded(assert_bounded):
    # residues of a prime modulus 1 mod 4: half of them have roots
    mfac = ((10009, 1),)
    assert_bounded(pellsolver._thread_roots, [(a, mfac) for a in range(4097)], 4096)
    assert pellsolver._thread_roots(4, mfac) == (2,)


def _continuant(run):
    # K(run), taken left to right, as the denominators of the convergents
    k_prev, k = 0, 1
    for a in run:
        k_prev, k = k, a * k + k_prev
    return k


def test_continuants_match_the_forward_recurrence():
    # h_k = a_k h_(k-1) + h_(k-2) from (h_(-2), h_(-1)) = (0, 1) gives
    # K(a_0..a_k), and from (1, 0) K(a_1..a_k).  The empty run is
    # h_(-1) / k_(-1) = 1 / 0 and a one-quotient run is a_0 / 1: the
    # symmetric stop passes both at period length 1 (D = a^2 + 1) and the
    # latter at period length 2 (D = 3, 6)
    rng = random.Random(31)
    runs = [(), (1,), (2,), (7,)] + [
        tuple(rng.randint(1, rng.choice((2, 50, 10**6))) for _ in range(rng.randint(0, 80)))
        for _ in range(500)
    ]
    for run in runs:
        h_prev, h = 0, 1
        k_prev, k = 1, 0
        for a in run:
            h_prev, h = h, a * h + h_prev
            k_prev, k = k, a * k + k_prev
        assert pellsolver._continuants(run) == (h, k), run
    assert pellsolver._continuants(()) == (1, 0) and pellsolver._continuants((7,)) == (7, 1)
    for D, L, unit in ((2, 1, (1, 1, -1)), (5, 1, (2, 1, -1)), (10, 1, (3, 1, -1)),
                       (3, 2, (2, 1, 1)), (6, 2, (5, 2, 1))):
        cf, fund = pellsolver.cf_fundamental.__wrapped__(D)
        assert len(cf.period) == L and tuple(fund) == unit, D


def test_cycle_continuants_are_bounded(assert_bounded):
    assert_bounded(pellsolver._cycle_continuants, _cycle_keys(4097), 4096)
    # at state k the run is a_k..a_(L-1); at (s, 1), state L, it is the
    # whole period rotated, a_L, a_1..a_(L-1), so c1 = K(a_1..a_(L-1)) is
    # y1 of the +-1 unit
    for D in (2, 13, 94, 106979, 136889):
        cf, fund = cf_fundamental(D)
        period = cf.period
        for k, (P, Q) in enumerate(_states(cf)[1:], 1):
            run = period[k - 1 : -1] if k < len(period) else period[-1:] + period[:-1]
            want = _continuant(run), _continuant(run[1:]), len(run) % 2
            assert pellsolver._cycle_continuants(D, P, Q) == want, (D, k)
        assert pellsolver._cycle_continuants(D, isqrt(D), 1)[1] == fund.y1
    # the first reduced state of the thread of (30 + sqrt(2575)) / 67 is
    # off the principal cycle
    assert pellsolver._cycle_continuants(2575, *_first_reduced(2575, -67, 30)[0]) is None


def test_unsolvable_verdicts_are_bounded(assert_bounded):
    keys = [("oracle", f"local-obstruction:{l}") for l in range(4097)]
    assert_bounded(pellsolver._unsolvable, keys, 4096)
    assert pellsolver._unsolvable("oracle", None) == ("unsolvable", None, "oracle", None)


def test_obstructed_pairs_share_one_verdict():
    # obstructed at 3 (2 and 5 are not squares mod 3): one interned verdict,
    # whose checks still run for a verdict that is not interned
    v = pellsolver.solve(3, 2)
    assert v == ("unsolvable", None, "oracle", "local-obstruction:3")
    assert pellsolver.solve(6, 5) is v
    assert pellsolver.solve(7, 3) != v
    with pytest.raises(ValueError, match="witness"):
        pellsolver.Verdict("unsolvable", (1, 0), "oracle")


def test_solve_searches_only_pairs_the_local_test_passes(monkeypatch):
    # the oracle_sweep grid: the search stays the reference, finding nothing
    # on every locally obstructed pair, and solve runs it on no such pair
    grid = [(D, n) for D in range(2, 301) if not is_square(D) for n in range(-50, 51) if n]
    obstructed = {(D, n) for D, n in grid if pellsolver.local_obstruction_anywhere(D, n)}
    assert len(obstructed) == 21_926
    reps = {(D, n): pellsolver.minimal_solutions(D, n) for D, n in grid}
    assert not any(reps[pair] for pair in obstructed)
    searched = []
    search = pellsolver.minimal_solutions
    monkeypatch.setattr(
        pellsolver, "minimal_solutions", lambda D, n: searched.append((D, n)) or search(D, n)
    )
    for D, n in grid:
        assert pellsolver.solve(D, n).solvable == bool(reps[D, n]), (D, n)
    assert sorted(searched) == sorted(set(grid) - obstructed)


def test_confirm_raises_on_disagreement():
    assert pellsolver.confirm(3, 2, False, "c", "r") is pellsolver._unsolvable("c", "r")
    with pytest.raises(ArithmeticError, match="contradicts the oracle at D=3, n=2"):
        pellsolver.confirm(3, 2, True, "c")
    with pytest.raises(ArithmeticError, match="criterion unsolvable, oracle solvable"):
        pellsolver.confirm(2, 7, False, "c", "r")
