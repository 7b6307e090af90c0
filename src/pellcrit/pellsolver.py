"""Ground-truth Pell oracle: continued-fraction expansions and a complete solver.

``cf_fundamental`` walks the continued fraction of sqrt(D) only up to the
symmetric point of its period, where the fundamental unit already follows
from the convergents there, and fills in the rest of the period by
reflection; its docstring gives the two stop rules.

``solve`` decides x^2 - D y^2 = n over Z for any positive non-square D and
nonzero n.  It checks D through its per-D plan and n, then runs the local
test, ``intcore.local_obstruction_anywhere``, before any search: a solution
over Z is a point over every Z_l, so a pair with no Z_l-point is
unsolvable, and ``solve`` returns ``local-obstruction:l`` without the
search, which could only come back empty, once ``check.no_local_point``
has certified l.  The oracle stays independent where it decides: that
certificate is checked by code that shares nothing with ``intcore`` (its
own primality proof, valuations, Euler's criterion and 2-adic coset test),
and the search still decides every pair that the local test passes.
``minimal_solutions``, ``confirm`` and the scans keep searching locally
obstructed pairs too, so the local criteria stay checked against the
search.  The CLI's ``decide`` searches once, inside the joint decision,
and certifies that decision's local obstructions with the same check.

``minimal_solutions`` finds every solution class by one of three complete
routes.  A class and its conjugate (the solutions x + y sqrt(D) and
x - y sqrt(D)) have the same orbit-minimal (|x|, |y|) representative, so the
PQa route searches one class of each conjugate pair.  The orbit bound
B = ``orbit_y_bound(D, n)`` is an integer >= sqrt(|n| eps / D), eps the
norm-plus-one fundamental unit, so that every class has a representative
with |y| <= B.  B depends on |n| alone and never falls as |n| grows, so
the dispatch reads a per-D plan, ``_oracle_plan`` (bounded like the
expansions, 1,024 D): n_scan, the largest |n| with B <= ``_ORBIT_SCAN_LIMIT``,
found once per D by a binary search of an interval that holds one or two
values once the unit is large.  A request then checks D through the plan
and computes no B; the +1 unit is stored once, in ``plus_unit``'s memo.
The routes, in dispatch order:

* |n| <= n_scan, that is B <= ``_ORBIT_SCAN_LIMIT``: scan for n + D y^2 a
  square, in exact integer arithmetic, over y in Nagell's range only
  (Introduction to Number Theory, Thms 108 and 108a): with (x1, y1) the +1
  unit, each class has a member with 0 <= y <= y1 sqrt(n / (2 (x1 + 1)))
  for n > 0, and with sqrt(-n / D) <= y <= y1 sqrt(-n / (2 (x1 - 1))) for
  n < 0.  That range holds under half of the B + 1 values of y, and the
  cost is proportional to its length;
* n^2 < D: read the classes off the cached period of sqrt(D).  Each
  primitive solution x/y of x^2 - D y^2 = m with |m| < sqrt(D) is a
  convergent h_k/k_k (Lagrange), and h_k^2 - D k_k^2 = (-1)^(k+1) Q_(k+1),
  so for each f^2 | n, m = n/f^2, the indices k with that value over one
  period (two for an odd period) name every class, and only a hit's
  convergent is computed, by ``_continuants``;
* otherwise the PQa method (Robertson, "Solving the generalized Pell
  equation x^2 - Dy^2 = N", 2004): one continued-fraction thread of
  (z + sqrt(D))/|m| per f^2 | n, m = n/f^2 and conjugate pair z, -z of
  square roots of D mod |m|, for the one with 0 <= z <= |m|/2 (the thread
  of -z finds the conjugate classes), all built from one factorization of
  n.  The square divisors of n and the roots of each thread, keyed by
  D mod |m| and the factorization of |m|, stay in bounded memos, above
  ``sqrt_mod_factored``'s own memos of the roots at each prime power and
  of the CRT idempotents, which every D and n share.  A solution shows up
  where a thread meets Q = +-1, and a thread holds one class at most, so
  it stops at its first hit.  Along the thread, G_i = |m| A_i - z B_i, so
  every hit has x = -z y (mod |m|); a -m hit (g, b), taken through the
  norm -1 unit (x1, y1), keeps it, as mod |m|
  (g x1 + D b y1) + z (g y1 + b x1) = y1 b (D - z^2) = 0.  Two solutions
  x + y sqrt(D), x' + y' sqrt(D) of norm m with that congruence have the
  quotient (x x' - D y y')/m + ((x' y - x y')/m) sqrt(D), integral as
  z^2 = D (mod |m|), and of norm 1: they lie in one class.  A thread is
  periodic from its first reduced state (0 < P <= s, s - P < Q <= s + P,
  s = isqrt(D)) on, and (s, 1) is the only reduced state with Q = +-1, so
  a thread with no hit before that state has none if the state is off the
  principal cycle of sqrt(D), and else its one hit at the next visit of
  (s, 1) = state L.  The cycle's states (P_k, Q_k), k = 1..L, follow from
  ``qs`` by P_k^2 = D - Q_(k-1) Q_k, so a reduced state (P, Q) is state k
  iff Q_k = Q and Q_(k-1) = (D - P^2) / Q, found by a scan of ``qs``.  The
  convergent recurrence G <- a G + G' over the run a_k..a_(L-1) to (s, 1)
  (for k = L, the whole period rotated), of r partial quotients, takes the
  thread to G c0 + G' c1, and B likewise, with c0 = K(run) and
  c1 = K(run[1:]) from ``_continuants``, the one helper that also gives
  the unit and the convergent route's convergents, and a norm sign set by
  the parity of r.  ``_cycle_continuants`` keeps (c0, c1, r mod 2), or
  None off the cycle, in a bounded memo of 4,096 entries keyed by
  (D, P, Q); a miss scans ``qs`` for k, and a thread takes no floor on the
  cycle.  The cost grows with the number of threads, 2^(w(n)-1) for n
  with w(n) split primes.

The limit is set by the pairs that reach the oracle.  Measured over
D < 1500, |n| <= 500, n^2 >= D (Python 3.11, one core of a 2-vCPU VM,
warm caches, min of 3 runs), the scan tries 44% of the B + 1 values of y
on average and at most half, at about 0.10 us per y tried plus 1.3 us.
The PQa figures come from two runs of one script on that VM, shared with
other work, over 2,000 seeded pairs with B <= 96 and the route forced:
per pair, the least of 3 means of 10 warm ``minimal_solutions`` calls.
PQa costs 1.7 to 1.9 us in the median, and 10.6 to 11.7 us (median of
300 pairs, least of 3 calls) while n is new to the memos of its square
divisors and thread roots.  Warm, it beats the scan on 54-55% of the
pairs with B < 32, 88-89% of those with B in [32, 64) and 97% of those
with B in [64, 96].  On the locally solvable pairs of the ``joint_2d``
grid, the only pairs a joint decision sends to the oracle, the scan wins
on 8 or 9 of 186 with B in (64, 96] and on none of 36 in (96, 128].
For n^2 < D and B <= 96 (D < 3000) the scan costs 1.3/1.8/4.4 us at
deciles 10/50/90% against 1.9/2.5/4.0 us for the convergent route.  The
limit stays at 96, set when PQa had no memos; lowering it is a claim for
the benchmark to settle.  All three routes find every solution class, so
returned witnesses are genuine minima.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .check import no_local_point
from .intcore import factor, is_square, isqrt, local_obstruction_anywhere, sqrt_mod_factored
from .verdict import Verdict

# Largest orbit bound that is scanned; the module docstring gives the measurements.
_ORBIT_SCAN_LIMIT = 96
# Steps a PQa thread may take to reach its first reduced state before it is
# declared broken.
_CF_THREAD_MAX_STEPS = 10_000_000


class CFExpansion(namedtuple("CFExpansion", "a0 period qs")):
    """Periodic continued fraction of sqrt(D): a0 then a repeating block.

    ``qs`` holds Q_1..Q_L, so that ``qs[k]`` names the norm
    h_k^2 - D k_k^2 = (-1)^(k+1) Q_(k+1) of the convergent h_k / k_k.  The
    states (P_k, Q_k) of (P_k + sqrt(D)) / Q_k, the principal cycle of
    reduced states from k = 1 on, are not stored: they follow from
    P_k^2 = D - Q_(k-1) Q_k with Q_0 = Q_L = 1.
    """

    __slots__ = ()
    a0: int
    period: tuple[int, ...]
    qs: tuple[int, ...]


class PellFundamental(namedtuple("PellFundamental", "x1 y1 unit_norm")):
    __slots__ = ()
    x1: int
    y1: int
    unit_norm: int


# D whose expansion and +1 unit stay cached.  A long scan meets each D once,
# so an unbounded cache only grows; 1,024 still holds every D of a workload
# that cycles through a few hundred, such as the 283 non-square D <= 300 of
# the benchmark's oracle sweep, which then never evicts.
_CF_CACHE_SIZE = 1024


def _continuants(run) -> tuple[int, int]:
    # Euler's continuants K(run) and K(run[1:]), right to left with one
    # multiply-add per partial quotient, (1, 0) for an empty run: the
    # convergent h_k / k_k of sqrt(D) is K(a_0..a_k) / K(a_1..a_k)
    c0, c1 = 1, 0
    for a in reversed(run):
        c0, c1 = a * c0 + c1, c0
    return c0, c1


@lru_cache(maxsize=_CF_CACHE_SIZE)
def cf_fundamental(D: int) -> tuple[CFExpansion, PellFundamental]:
    """CF expansion of sqrt(D) and the minimal solution of x^2 - D y^2 = +-1.

    The walk stops at the symmetric point of the period, of length L.  With
    P_(k+1) = a_k Q_k - P_k, Q_(k+1) = (D - P_(k+1)^2) / Q_k and
    alpha_i = h_i + k_i sqrt(D) (alpha_(-1) = 1), the first m with
    P_(m+1) = P_m gives L = 2m and eps = alpha_(m-1)^2 / Q_m, and the first
    m with Q_(m+1) = Q_m gives L = 2m + 1 and eps = alpha_(m-1) alpha_m / Q_m.
    The walk runs in small integers, P, Q and a alone; (h_(m-1), k_(m-1))
    are the two continuants of a_0..a_(m-1), and (h_m, k_m) those of
    a_0..a_m.  The rest of the period follows by reflection:
    a_1..a_(L-1) is a palindrome, a_L = 2 a_0 and Q_k = Q_(L-k).  The unit
    is still checked against x^2 - D y^2 = +-1.
    """
    if D <= 0 or is_square(D):
        raise ValueError(f"D must be a positive non-square, got {D}")
    a0 = isqrt(D)
    P, Q, a = 0, 1, a0
    period: list[int] = []
    qs: list[int] = []
    while True:
        P_next = a * Q - P
        Q_next = (D - P_next * P_next) // Q
        if P_next == P or Q_next == Q:
            break
        P, Q = P_next, Q_next
        a = (a0 + P) // Q
        period.append(a)
        qs.append(Q)
    # a_0..a_m, with m = len(period)
    quotients = [a0, *period]
    h_prev, k_prev = _continuants(quotients[:-1])
    if P_next == P:
        # L = 2m: a_m and Q_m are the middle terms, not repeated
        x = (h_prev * h_prev + D * k_prev * k_prev) // Q
        y = 2 * h_prev * k_prev // Q
        mid, norm = -2, 1
    else:
        # L = 2m + 1: a_m and Q_m repeat as a_(m+1) and Q_(m+1)
        h, k = _continuants(quotients)
        x = (h_prev * h + D * k_prev * k) // Q
        y = (h_prev * k + h * k_prev) // Q
        mid, norm = -1, -1
    # the second half by reflection, back to a_L = 2 a0 and Q_L = Q_0 = 1
    period += period[mid::-1] + [2 * a0]
    qs += qs[mid::-1] + [1]
    if x * x - D * y * y != norm:
        raise ArithmeticError(f"CF expansion of sqrt({D}) gave no unit")
    return CFExpansion(a0, tuple(period), tuple(qs)), PellFundamental(x, y, norm)


@lru_cache(maxsize=_CF_CACHE_SIZE)
def plus_unit(D: int) -> tuple[int, int]:
    """Fundamental solution of x^2 - D y^2 = +1."""
    _, f = cf_fundamental(D)
    if f.unit_norm == 1:
        return f.x1, f.y1
    return f.x1 * f.x1 + D * f.y1 * f.y1, 2 * f.x1 * f.y1


def orbit_y_bound(D: int, n: int) -> int:
    """Integer B >= sqrt(|n| eps / D); every class has a rep with |y| <= B."""
    xp, yp = plus_unit(D)
    num = abs(n) * xp + isqrt(n * n * yp * yp * D) + 1
    return isqrt(num // D + 1) + 1


# bounded like the expansions: one entry per D
@lru_cache(maxsize=_CF_CACHE_SIZE)
def _oracle_plan(D: int) -> int:
    """n_scan, the largest |n| whose orbit bound is scanned at D.

    ``orbit_y_bound(D, n) <= _ORBIT_SCAN_LIMIT`` iff f(|n|) <= C, with
    f(k) = k xp + isqrt(k^2 yp^2 D) increasing and
    C = (_ORBIT_SCAN_LIMIT^2 - 1) D - 2, so the scan route is exactly
    -n_scan <= n <= n_scan.  As yp^2 D = xp^2 - 1, isqrt(yp^2 D) = xp - 1
    and k (xp - 1) <= isqrt(k^2 yp^2 D) < k xp, so n_scan lies in
    [(C + 1) // (2 xp), C // (2 xp - 1)], one or two values once the unit
    is large, and a binary search of that interval finds it.  Raises
    ValueError unless D is a positive non-square.
    """
    xp, yp = plus_unit(D)
    C = (_ORBIT_SCAN_LIMIT * _ORBIT_SCAN_LIMIT - 1) * D - 2
    lo, hi = (C + 1) // (2 * xp), C // (2 * xp - 1)
    while lo < hi:
        k = (lo + hi + 1) // 2
        if k * xp + isqrt((k * yp) ** 2 * D) <= C:
            lo = k
        else:
            hi = k - 1
    return lo


def _descend(D: int, x: int, y: int, unit: tuple[int, int] | None = None) -> tuple[int, int]:
    # slide along the unit orbit while |y| strictly decreases; with x, y >= 0
    # the step by eps never shrinks y, so only the step by 1/eps is tried
    xp, yp = plus_unit(D) if unit is None else unit
    x, y = abs(x), abs(y)
    while True:
        x2, y2 = abs(x * xp - D * y * yp), abs(x * yp - y * xp)
        if y2 >= y:
            return x, y
        x, y = x2, y2


def _floor_quad(P: int, Q: int, s: int) -> int:
    # floor((P + sqrt(D)) / Q) with s = isqrt(D), sqrt(D) irrational
    if Q > 0:
        return (P + s) // Q
    return -((P + s) // (-Q)) - 1


def _pqa_thread(D: int, m: int, z: int) -> tuple[int, int] | None:
    """The first solution of x^2 - D y^2 = m on the CF thread of (z + sqrt(D))/|m|, or None."""
    cf, fund = cf_fundamental(D)
    s, am = cf.a0, abs(m)
    P, Q = z, am
    g_prev, g = -z, am
    b_prev, b = 1, 0
    i = 0
    while not (0 < P <= s and s - P < Q <= s + P):
        i += 1
        if i > _CF_THREAD_MAX_STEPS:
            raise ArithmeticError(f"CF thread failed to cycle for D={D}, m={m}")
        a = _floor_quad(P, Q, s)
        P = a * Q - P
        Q = (D - P * P) // Q
        g_prev, g = g, a * g + g_prev
        b_prev, b = b, a * b + b_prev
        # G_(i-1)^2 - D B_(i-1)^2 = (-1)^i |m| Q_i
        if Q == 1 or Q == -1:
            norm = -am * Q if i % 2 else am * Q
            if norm == m or fund.unit_norm == -1:
                break
    else:
        # the first reduced state; on the principal cycle the hit is at (s, 1)
        tail = _cycle_continuants(D, P, Q)
        if tail is None:
            return None
        c0, c1, odd = tail
        g, b = g * c0 + g_prev * c1, b * c0 + b_prev * c1
        norm = am if (i + odd) % 2 == 0 else -am
        if norm != m and fund.unit_norm == 1:
            return None
    # a hit of -m is taken through the norm -1 unit
    return (g, b) if norm == m else (g * fund.x1 + D * b * fund.y1, g * fund.y1 + b * fund.x1)


# bounded like the per-n memos: one entry per (D, P, Q), the first reduced
# state of some thread, up to a period of them per D (the oracle sweep's 283
# D with 0 < |n| <= 50 meet 1,166); no entry depends on n
@lru_cache(maxsize=4096)
def _cycle_continuants(D: int, P: int, Q: int) -> tuple[int, int, int] | None:
    # None off the principal cycle.  On it, as the state k with
    # Q_k = qs[k - 1] = Q and Q_(k-1) = qs[k - 2] = (D - P^2) / Q
    # (qs[-1] = Q_L = Q_0), the run a_k..a_(L-1) up to (s, 1) (for k = L,
    # the whole period rotated), its continuants K(run) and K(run[1:]) and
    # len(run) % 2
    cf, _ = cf_fundamental(D)
    qs, q_prev = cf.qs, (D - P * P) // Q
    k = 0
    for _ in range(qs.count(Q)):
        k = qs.index(Q, k) + 1
        if qs[k - 2] == q_prev:
            break
    else:
        return None
    period = cf.period
    run = period[k - 1 : -1] if k < len(period) else period[-1:] + period[:-1]
    return _continuants(run) + (len(run) % 2,)


# bounded like ``factor``'s memo: the key is n itself
@lru_cache(maxsize=4096)
def _square_divisors(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    # every f with f^2 | n, paired with the factorization of |n| / f^2,
    # all from one factorization of n
    out: list[tuple[int, tuple[tuple[int, int], ...]]] = [(1, ())]
    for p, e in factor(abs(n)).factors:
        out = [
            (f * p**k, rest + ((p, e - 2 * k),) if e > 2 * k else rest)
            for f, rest in out
            for k in range(e // 2 + 1)
        ]
    return tuple(out)


# bounded: keyed by a = D mod |m| and the factorization of |m|, which range
# as widely as n.  Of each conjugate pair z, -z of roots of a mod |m| only
# 0 <= z <= |m|/2 is kept: the thread of -z finds the conjugates
# x - y sqrt(D) of the classes the thread of z finds, and a class and its
# conjugate have the same orbit-minimal (|x|, |y|)
@lru_cache(maxsize=4096)
def _thread_roots(a: int, mfac: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    am = math.prod(p**e for p, e in mfac)
    return tuple(z for z in sqrt_mod_factored(a, mfac) if 2 * z <= am)


def _lmm_all(D: int, n: int) -> list[tuple[int, int]]:
    # one thread per conjugate pair of roots of D mod |m|, m = n / f^2
    found: list[tuple[int, int]] = []
    for f, mfac in _square_divisors(n):
        m = n // (f * f)
        for z in _thread_roots(D % abs(m), mfac):
            sol = _pqa_thread(D, m, z)
            if sol is not None:
                found.append((f * sol[0], f * sol[1]))
    return found


def _convergent_all(D: int, n: int) -> list[tuple[int, int]]:
    # n^2 < D: each primitive solution of x^2 - D y^2 = m, m = n/f^2, is a
    # convergent h_k / k_k of sqrt(D) (Lagrange), so the classes are read
    # off the norms (-1)^(k+1) Q_(k+1) of one period.  For an odd period the
    # second one carries the negated norms, as
    # h_(k+L) + k_(k+L) sqrt(D) = (h_k + k_k sqrt(D)) eps with N(eps) = -1.
    cf, fund = cf_fundamental(D)
    qs = cf.qs
    found: list[tuple[int, int]] = []
    for f, _ in _square_divisors(n):
        m = n // (f * f)
        am = abs(m)
        j = -1
        for _ in range(qs.count(am)):
            j = qs.index(am, j + 1)
            second = (j % 2 == 1) != (m > 0)
            if second and fund.unit_norm == 1:
                continue
            x, y = _continuants((cf.a0,) + cf.period[:j])
            if second:
                x, y = x * fund.x1 + D * y * fund.y1, x * fund.y1 + y * fund.x1
            found.append((f * x, f * y))
    return found


def minimal_solutions(D: int, n: int) -> list[tuple[int, int]]:
    """Orbit-minimal representatives (x, y >= 0) of every solution class.

    Sorted by (y, x); the first, the witness, is checked against the
    equation, and ArithmeticError raised if it fails.
    """
    n_scan = _oracle_plan(D)
    if n == 0:
        raise ValueError("n must be nonzero")
    unit = plus_unit(D)
    if -n_scan <= n <= n_scan:
        # only Nagell's range of least y per class (Thms 108 and 108a, see
        # the module docstring); for n < 0 it starts at the least y with
        # D y^2 >= -n, so t is never negative
        xp, yp = unit
        if n > 0:
            ys = range(0, isqrt(n * yp * yp // (2 * (xp + 1))) + 1)
        else:
            ys = range(isqrt((-n - 1) // D) + 1, isqrt(-n * yp * yp // (2 * (xp - 1))) + 1)
        found = []
        for y in ys:
            t = n + D * y * y
            x = isqrt(t)
            if x * x == t:
                found.append((x, y))
    else:
        found = _convergent_all(D, n) if n * n < D else _lmm_all(D, n)
    if not found:
        return []
    out = sorted({_descend(D, x, y, unit) for x, y in found}, key=lambda t: (t[1], t[0]))
    x, y = out[0]
    if x * x - D * y * y != n:
        raise ArithmeticError(f"oracle witness {(x, y)} fails for D={D}, n={n}")
    return out


# bounded: one entry per (provenance, reason); a verdict is immutable, so one
# object serves every unsolvable decision with the same label
@lru_cache(maxsize=4096)
def _unsolvable(provenance: str, reason: str | None) -> Verdict:
    return Verdict("unsolvable", None, provenance, reason)


# bounded: one entry per (provenance, obstructing prime l), keyed by l itself
# so that no decision formats the reason; l is None when every Z_l has a point
@lru_cache(maxsize=4096)
def _obstructed(provenance: str, l: int | None) -> Verdict:
    return Verdict("unsolvable", None, provenance,
                   "class-search-exhausted" if l is None else f"local-obstruction:{l}")


def solve(D: int, n: int) -> Verdict:
    """Complete decision of x^2 - D y^2 = n over Z, with a minimal witness.

    In order: ``_oracle_plan(D)``, which raises ValueError unless D is a
    positive non-square and builds the per-D plan on the first request for
    D, whatever its verdict; the check that n is nonzero; then the local
    test ``local_obstruction_anywhere``.  A prime l it names must pass
    ``check.no_local_point(D, n, l)``, or ArithmeticError is raised, and the
    verdict is ``local-obstruction:l`` with no search, since a solution
    over Z is a point over every Z_l.  Every other pair is searched:
    ``minimal_solutions`` gives the witness, or ``class-search-exhausted``.
    """
    _oracle_plan(D)
    if n == 0:
        raise ValueError("n must be nonzero")
    l = local_obstruction_anywhere(D, n)
    if l is not None:
        if not no_local_point(D, n, l):
            raise ArithmeticError(f"local obstruction at {l} fails its check for D={D}, n={n}")
        return _obstructed("oracle", l)
    reps = minimal_solutions(D, n)
    if reps:
        return Verdict("solvable", reps[0], "oracle")
    return _obstructed("oracle", None)


def confirm(D: int, n: int, holds: bool, provenance: str, reason: str | None = None) -> Verdict:
    """A criterion's verdict on x^2 - D y^2 = n, once the oracle agrees.

    ``holds`` says whether the criterion finds the equation solvable, and
    ``reason`` is the code it gives when not.  Runs ``minimal_solutions``
    once, so no local-obstruction label is computed only to be dropped: the
    verdict carries the oracle's minimal witness, and a disagreement raises
    ArithmeticError.
    """
    reps = minimal_solutions(D, n)
    if bool(reps) != holds:
        status = "solvable" if reps else "unsolvable"
        raise ArithmeticError(
            f"criterion {provenance} contradicts the oracle at D={D}, n={n}: "
            f"criterion {'solvable' if holds else 'unsolvable'}, oracle {status}"
        )
    return Verdict("solvable", reps[0], provenance) if holds else _unsolvable(provenance, reason)
