"""Seeded input streams for the four workloads, and their regime checks.

The arithmetic here (sieve, Jacobi and quartic symbols, local solvability)
is the benchmark's own, independent of pellcrit, so that the regime each
workload claims is checked without trusting the program under test.  The
runner cross-checks the same properties against pellcrit's predicates in
its own process, after the measured loop.

Every stream is deterministic in (workload, seed): request i of a run is
the same on every commit.
"""

from __future__ import annotations

import math
import random

# Family-B discriminants of the acceptance gate: D = 2d <= 1000 with
# thm24_applicable(d), plus 1394.
JOINT_2D_D = (34, 146, 178, 194, 386, 466, 482, 562, 802, 866, 898, 1394)
JOINT_2D_N_MAX = 500

COLD_PQ_LO = 1_000_000
COLD_PQ_HI = 2_000_000
COLD_PQ_SLOT = 2_000
COLD_PQ_SLOTS = (COLD_PQ_HI - COLD_PQ_LO) // COLD_PQ_SLOT
# Slot stride, coprime to COLD_PQ_SLOTS and near COLD_PQ_SLOTS / golden
# ratio, so any run of consecutive requests spreads evenly over the range.
COLD_PQ_STRIDE = 309
COLD_PQ_N_MAX = 1000

ORACLE_DS = [D for D in range(2, 301) if math.isqrt(D) ** 2 != D]
ORACLE_NS = [n for n in range(-50, 51) if n]

SCAN_M_LO = 1_500
SCAN_M_HI = 2_500


def sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


def jacobi(a: int, m: int) -> int:
    a %= m
    s = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                s = -s
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            s = -s
        a %= m
    return s if m == 1 else 0


def v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def small_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    n = abs(n)
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def cor14(p: int, q: int) -> bool:
    """p, q = 1 mod 4, (q/p) = 1 and (p/q)_4 (q/p)_4 = -1 (Euler criterion)."""
    if p % 4 != 1 or q % 4 != 1 or jacobi(q, p) != 1:
        return False
    qp = pow(q, (p - 1) // 4, p)
    pq = pow(p, (q - 1) // 4, q)
    return (qp == 1) != (pq == 1)


def local_ok_odd(D: int, n: int, l: int) -> bool:
    """Z_l-solvability of x^2 - D y^2 = n, l odd, l^2 not dividing D."""
    if D % l:
        if jacobi(D, l) == 1:
            return True
        e = 0
        while n % l == 0:
            n //= l
            e += 1
        return e % 2 == 0
    while n % (l * l) == 0:
        n //= l * l
    if n % l:
        return jacobi(n, l) == 1
    return jacobi(-(n // l) * (D // l), l) == 1


def local_ok_2(D: int, n: int) -> bool:
    """Z_2-solvability of x^2 - D y^2 = n for odd D.

    A primitive point with y odd exists iff n + D is 0, 1 or 4 mod 8 (odd
    squares fill 1 + 8Z_2); one with y even and x odd iff n is 1 or 5 mod 8.
    Otherwise both coordinates are even and n/4 must be solvable.
    """
    while True:
        if n % 8 in (1, 5) or (n + D) % 8 in (0, 1, 4):
            return True
        if n % 4:
            return False
        n //= 4


class Rounds:
    """Requests in rounds that visit every D once, in a fresh seeded order.

    In round r, D takes the r-th value of its own seeded permutation of
    ``ns``.  Every stretch of a run thus holds the same mix of D, and a
    pair repeats only after len(ns) rounds.
    """

    def __init__(self, tag: str, ds: list[int], ns: list[int]):
        self.tag = tag
        self.ds = ds
        self.nperm = {}
        for D in ds:
            perm = list(ns)
            random.Random(f"{tag}:{D}").shuffle(perm)
            self.nperm[D] = perm
        self.round = -1
        self.order: list[int] = []

    def draw(self, i: int) -> tuple[int, int]:
        r, k = divmod(i, len(self.ds))
        if r != self.round:
            self.round = r
            self.order = list(self.ds)
            random.Random(f"{self.tag}:round:{r}").shuffle(self.order)
        D = self.order[k]
        perm = self.nperm[D]
        return D, perm[r % len(perm)]


def joint_2d(seed: int) -> Rounds:
    """joint_artin_decide(D, n): the 12 family-B D, 0 < |n| <= 500."""
    ns = [n for n in range(-JOINT_2D_N_MAX, JOINT_2D_N_MAX + 1) if n]
    return Rounds(f"joint_2d:{seed}", list(JOINT_2D_D), ns)


def oracle_sweep(seed: int) -> Rounds:
    """pellsolver.solve(D, n): non-square D <= 300, 0 < |n| <= 50.

    Each round holds the seven D with v2(D) >= 5, whose 2-adic test
    carries most of the run's time.  The first len(ORACLE_NS) rounds are
    the whole grid, each pair once.
    """
    return Rounds(f"oracle_sweep:{seed}", ORACLE_DS, ORACLE_NS)


class ColdPQ:
    """cli decide D n, one request per distinct D = pq with cor14_applicable.

    Request i takes the D-slot (COLD_PQ_STRIDE*i + b) mod COLD_PQ_SLOTS, with
    a seeded offset b: a bijection of slots, so D never repeats within
    COLD_PQ_SLOTS requests, and a low-discrepancy walk over the D range.
    Every D is 5 mod 8, so 2 is inert and the 2-adic engine is built
    whenever the twist symbol is needed; with D = 1 mod 8 mixed in, the
    latencies split into two modes and the median jumped between them.
    n is drawn uniformly from 0 < |n| < COLD_PQ_N_MAX until it is locally
    solvable at 2, p, q and every prime of n.
    """

    def __init__(self, seed: int):
        self.b = random.Random(f"cold_pq:{seed}").randrange(COLD_PQ_SLOTS)
        self.seed = seed
        self.flags = sieve(COLD_PQ_HI // 5)
        self.ps = [p for p in range(5, math.isqrt(COLD_PQ_HI) + 1, 4) if self.flags[p]]

    def _slot_candidates(self, slot: int) -> list[tuple[int, int]]:
        lo = COLD_PQ_LO + slot * COLD_PQ_SLOT
        hi = lo + COLD_PQ_SLOT
        out = []
        for p in self.ps:
            if p * (p + 4) >= hi:
                break
            q = max(p + 4, -(-lo // p))
            q += (1 - q) % 4
            while p * q < hi:
                if self.flags[q] and (p * q) % 8 == 5 and cor14(p, q):
                    out.append((p, q))
                q += 4
        return out

    def draw(self, i: int) -> tuple[int, int, int, int]:
        if i >= COLD_PQ_SLOTS:
            raise IndexError("cold_pq stream exhausted")
        slot = (COLD_PQ_STRIDE * i + self.b) % COLD_PQ_SLOTS
        rng = random.Random(f"cold_pq:{self.seed}:{i}")
        cands = self._slot_candidates(slot)
        if not cands:
            raise ValueError(f"no cor14 D = 5 mod 8 in slot {slot}")
        p, q = rng.choice(cands)
        D = p * q
        while True:
            n = rng.randrange(1, COLD_PQ_N_MAX) * rng.choice((1, -1))
            primes = {p, q} | set(small_factor(n))
            if local_ok_2(D, n) and all(local_ok_odd(D, n, l) for l in primes):
                return D, n, p, q


def scan_max(seed: int, i: int) -> int:
    """The --max of scan request i, in [SCAN_M_LO, SCAN_M_HI].

    A golden-ratio sequence from a seeded offset: any run of consecutive
    calls covers the range evenly, so the median call cost does not move
    with the seed as it did with independent uniform draws.
    """
    u = (random.Random(f"scan_2p:{seed}").random() + i * (math.sqrt(5) - 1) / 2) % 1.0
    return SCAN_M_LO + int(u * (SCAN_M_HI - SCAN_M_LO + 1))


def odd_primes_upto(m: int) -> list[int]:
    flags = sieve(m)
    return [p for p in range(3, m + 1, 2) if flags[p]]
