"""Ground-truth Pell oracle: continued-fraction expansions and a complete solver.

``cf_fundamental`` walks the continued fraction of sqrt(D) only up to the
symmetric point of its period, where the fundamental unit already follows
from the convergents there, and fills in the rest of the period by
reflection; its docstring gives the two stop rules.

``solve`` decides x^2 - D y^2 = n over Z for any positive non-square D and
nonzero n.  ``minimal_solutions`` finds every solution class by one of three
complete routes.  A class and its conjugate (the solutions x + y sqrt(D) and
x - y sqrt(D)) have the same orbit-minimal (|x|, |y|) representative, so the
PQa route searches one class of each conjugate pair.  The orbit bound
B = ``orbit_y_bound(D, n)`` is an integer >= sqrt(|n| eps / D), eps the
norm-plus-one fundamental unit, so that every class has a representative
with |y| <= B.  The routes, in dispatch order:

* B <= ``_ORBIT_SCAN_LIMIT``: scan for n + D y^2 a square, in exact
  integer arithmetic, over y in Nagell's range only (Introduction to Number
  Theory, Thms 108 and 108a): with (x1, y1) the +1 unit, each class has a
  member with 0 <= y <= y1 sqrt(n / (2 (x1 + 1))) for n > 0, and with
  sqrt(-n / D) <= y <= y1 sqrt(-n / (2 (x1 - 1))) for n < 0.  That range
  holds under half of the B + 1 values of y, and the cost is proportional
  to its length;
* n^2 < D: read the classes off the cached period of sqrt(D).  Each
  primitive solution x/y of x^2 - D y^2 = m with |m| < sqrt(D) is a
  convergent h_k/k_k (Lagrange), and h_k^2 - D k_k^2 = (-1)^(k+1) Q_(k+1),
  so for each f^2 | n, m = n/f^2, the indices k with that value over one
  period (two for an odd period) name every class; a convergent is rebuilt
  only for a hit;
* otherwise the PQa method (Robertson, "Solving the generalized Pell
  equation x^2 - Dy^2 = N", 2004): one continued-fraction thread of
  (z + sqrt(D))/|m| per f^2 | n, m = n/f^2 and conjugate pair z, -z of
  square roots of D mod |m|, for the one with 0 <= z <= |m|/2 (the thread
  of -z finds the conjugate classes), all built from one factorization of
  n.  The square divisors of n and the roots of each thread, keyed by
  D mod |m| and the factorization of |m|, stay in bounded memos.  A
  solution shows up where a thread meets Q = +-1.  A thread is periodic
  from its first reduced state (0 < P <= s, s - P < Q <= s + P,
  s = isqrt(D)) on, and (s, 1) is the only reduced state with Q = +-1, so
  a thread whose first reduced state is not on the principal cycle of
  sqrt(D) stops there.  The cycle's states (P_k, Q_k), k = 1..L, follow
  from ``qs`` by P_k^2 = D - Q_(k-1) Q_k, so a reduced state (P, Q) is state
  k iff Q_k = Q and Q_(k-1) = (D - P^2) / Q, found by a scan of ``qs``.  A
  thread that enters the principal cycle at state k has exactly one more
  solution, at the next visit of (s, 1) = state L, after the run
  a_k..a_(L-1) of partial quotients (for k = L, the whole period
  rotated).  The convergent recurrence G <- a G + G' over a run
  a_1..a_r multiplies (G, G') by the matrices [[a_j, 1], [1, 0]], whose
  product has Euler's continuants c0 = K(a_1..a_r) and c1 = K(a_2..a_r)
  in its first column, so the thread ends at G c0 + G' c1, and B likewise,
  with a norm sign set by the parity of r.  (c0, c1, r mod 2) depends on
  D and the entry state alone; ``_cycle_continuants`` keeps it, or None
  off the cycle, in a bounded memo keyed by (D, P, Q) with as many entries
  as the expansions (1,024).  A miss scans ``qs`` for k and takes the
  continuants right to left, one multiply-add per partial quotient against
  the recurrence's two; a thread takes no floor on the cycle.  The cost
  grows with the number of threads, 2^(w(n)-1) for n with w(n) split
  primes.

The limit is set by the pairs that reach the oracle.  Measured over
D < 1500, |n| <= 500, n^2 >= D (Python 3.11, one core of a 2-vCPU VM,
warm caches, min of 3 runs), the scan tries 44% of the B + 1 values of y
on average and at most half, at about 0.10 us per y tried plus 1.3 us.
The PQa figures come from three runs of one script on that VM, shared
with other work, each time the least of 3 means of 10 warm
``minimal_solutions`` calls with the route forced: absolute times moved
by up to 40% from run to run, while each win rate compares the two
routes within one run.  PQa costs 12 to 18 us per (D, n) while n is new
to the memos of its square divisors and thread roots (the least of 3
calls after clearing them), whether or not the continuants of its entry
states are held, and 2.2 to 2.9 us in the median of 2,000 seeded pairs
with B <= 96 once they hold n, as they do when pairs recur: then it
beats the scan on 49-53% of the pairs with B < 32, 72-77% of those with
B in [32, 64) and 91-93% of those with B in [64, 96].  On the locally
solvable pairs of the ``joint_2d`` benchmark grid, the only pairs a
joint decision sends to the oracle, the scan wins on 41 to 56 of 186
with B in (64, 96] and on at most 1 of 36 in (96, 128].
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


@lru_cache(maxsize=_CF_CACHE_SIZE)
def cf_fundamental(D: int) -> tuple[CFExpansion, PellFundamental]:
    """CF expansion of sqrt(D) and the minimal solution of x^2 - D y^2 = +-1.

    The walk stops at the symmetric point of the period, of length L.  With
    P_(k+1) = a_k Q_k - P_k, Q_(k+1) = (D - P_(k+1)^2) / Q_k and
    alpha_i = h_i + k_i sqrt(D) (alpha_(-1) = 1), the first m with
    P_(m+1) = P_m gives L = 2m and eps = alpha_(m-1)^2 / Q_m, and the first
    m with Q_(m+1) = Q_m gives L = 2m + 1 and eps = alpha_(m-1) alpha_m / Q_m.
    The rest of the period follows by reflection: a_1..a_(L-1) is a
    palindrome, a_L = 2 a_0 and Q_k = Q_(L-k).  The unit is still checked
    against x^2 - D y^2 = +-1.
    """
    if D <= 0 or is_square(D):
        raise ValueError(f"D must be a positive non-square, got {D}")
    a0 = isqrt(D)
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    P, Q, a = 0, 1, a0
    period: list[int] = []
    qs: list[int] = []
    while True:
        P_next = a * Q - P
        Q_next = (D - P_next * P_next) // Q
        if P_next == P:
            # L = 2m: a_m and Q_m are the middle terms, not repeated
            x = (h_prev * h_prev + D * k_prev * k_prev) // Q
            y = 2 * h_prev * k_prev // Q
            mid, norm = -2, 1
            break
        if Q_next == Q:
            # L = 2m + 1: a_m and Q_m repeat as a_(m+1) and Q_(m+1)
            x = (h_prev * h + D * k_prev * k) // Q
            y = (h_prev * k + h * k_prev) // Q
            mid, norm = -1, -1
            break
        P, Q = P_next, Q_next
        a = (a0 + P) // Q
        period.append(a)
        qs.append(Q)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
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


def orbit_y_bound(D: int, n: int, unit: tuple[int, int] | None = None) -> int:
    """Integer B >= sqrt(|n| eps / D); every class has a rep with |y| <= B."""
    xp, yp = plus_unit(D) if unit is None else unit
    num = abs(n) * xp + isqrt(n * n * yp * yp * D) + 1
    return isqrt(num // D + 1) + 1


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


def _pqa_solutions(D: int, m: int, z: int) -> list[tuple[int, int]]:
    """Solutions of x^2 - D y^2 = m on the CF thread of (z + sqrt(D))/|m|."""
    s = isqrt(D)
    am = abs(m)
    _, fund = cf_fundamental(D)
    sols: list[tuple[int, int]] = []

    def hit(val: int, g: int, b: int) -> None:
        if val == m:
            sols.append((g, b))
        elif val == -m and fund.unit_norm == -1:
            sols.append((g * fund.x1 + D * b * fund.y1, g * fund.y1 + b * fund.x1))

    P, Q = z, am
    g_prev, g = -z, am
    b_prev, b = 1, 0
    i = 0
    while not (0 < P <= s and s - P < Q <= s + P):
        a = _floor_quad(P, Q, s)
        P_next = a * Q - P
        Q_next = (D - P_next * P_next) // Q
        g_prev, g = g, a * g + g_prev
        b_prev, b = b, a * b + b_prev
        # G_i^2 - D B_i^2 = (-1)^(i+1) Q0 Q_(i+1)
        if Q_next in (1, -1):
            hit(am * Q_next if (i + 1) % 2 == 0 else -am * Q_next, g, b)
        P, Q = P_next, Q_next
        i += 1
        if i > _CF_THREAD_MAX_STEPS:
            raise ArithmeticError(f"CF thread failed to cycle for D={D}, m={m}")
    # the first reduced state: off the principal cycle no Q = +-1 follows;
    # on it the one remaining hit is at (s, 1), state L, where the
    # recurrence over the run of partial quotients in between has taken
    # g to g c0 + g_prev c1, and b alike
    tail = _cycle_continuants(D, P, Q)
    if tail is not None:
        c0, c1, odd = tail
        hit(am if (i + odd) % 2 == 0 else -am, g * c0 + g_prev * c1, b * c0 + b_prev * c1)
    return sols


# bounded like the expansions: one entry per (D, P, Q), the first reduced
# state of some thread, so per-D cycle data; no entry depends on n
@lru_cache(maxsize=_CF_CACHE_SIZE)
def _cycle_continuants(D: int, P: int, Q: int) -> tuple[int, int, int] | None:
    # None off the principal cycle.  On it, as the state k with
    # Q_k = qs[k - 1] = Q and Q_(k-1) = qs[k - 2] = (D - P^2) / Q
    # (qs[-1] = Q_L = Q_0), the run a_k..a_(L-1) up to (s, 1) (for k = L,
    # the whole period rotated), its continuants K(run) and K(run[1:]),
    # taken right to left, and len(run) % 2
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
    c0, c1 = 1, 0
    for a in reversed(run):
        c0, c1 = a * c0 + c1, c0
    return c0, c1, len(run) % 2


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
            for x, y in _pqa_solutions(D, m, z):
                found.append((f * x, f * y))
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
        hits: dict[int, bool] = {}  # index k -> the hit is in the second period
        j = -1
        for _ in range(qs.count(am)):
            j = qs.index(am, j + 1)
            second = (j % 2 == 1) != (m > 0)
            if not second or fund.unit_norm == -1:
                hits[j] = second
        if not hits:
            continue
        h_prev, h = 1, cf.a0
        k_prev, k = 0, 1
        for i in range(max(hits) + 1):
            if i in hits:
                if hits[i]:
                    x, y = h * fund.x1 + D * k * fund.y1, h * fund.y1 + k * fund.x1
                else:
                    x, y = h, k
                found.append((f * x, f * y))
            a = cf.period[i]
            h_prev, h = h, a * h + h_prev
            k_prev, k = k, a * k + k_prev
    return found


def minimal_solutions(D: int, n: int) -> list[tuple[int, int]]:
    """Orbit-minimal representatives (x, y >= 0) of every solution class.

    Sorted by (y, x); the first, the witness, is checked against the
    equation, and ArithmeticError raised if it fails.
    """
    if D <= 0 or is_square(D):
        raise ValueError(f"D must be a positive non-square, got {D}")
    if n == 0:
        raise ValueError("n must be nonzero")
    unit = xp, yp = plus_unit(D)
    if orbit_y_bound(D, n, unit) <= _ORBIT_SCAN_LIMIT:
        # only Nagell's range of least y per class (Thms 108 and 108a, see
        # the module docstring); for n < 0 it starts at the least y with
        # D y^2 >= -n, so t is never negative
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


def solve(D: int, n: int) -> Verdict:
    """Complete decision of x^2 - D y^2 = n over Z, with a minimal witness."""
    reps = minimal_solutions(D, n)
    if reps:
        return Verdict("solvable", reps[0], "oracle")
    l = local_obstruction_anywhere(D, n)
    return _unsolvable("oracle", "class-search-exhausted" if l is None else f"local-obstruction:{l}")


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
