"""Acceptance gate: every criterion at its stated range and tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
live).  Tolerances are zero mismatches throughout.
"""

import math
import random
import time

from pellcrit import artin, criteria, pellsolver, quadring, symbols
from pellcrit.intcore import _SMALL_PRIMES, factor, is_prime, isqrt
from pellcrit.localanalysis import character_table, local_solvable
from pellcrit.symbols import jacobi, quartic_residue


def _report(num: int, desc: str, ok: bool, extra: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} {extra}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {extra}"


def _primes(limit: int) -> list[int]:
    if limit <= _SMALL_PRIMES[-1]:
        return [p for p in _SMALL_PRIMES if p <= limit]
    return [n for n in range(2, limit + 1) if is_prime(n)]


def test_criterion_1_decide_221_equivalence():
    t0 = time.time()
    mismatches = 0
    for n in range(1, 20001):
        for s in (n, -n):
            if criteria.decide_221(s).solvable != pellsolver.solve(221, s).solvable:
                mismatches += 1
    elapsed = time.time() - t0
    _report(
        1,
        "decide_221 equals oracle for 0<|n|<=20000",
        mismatches == 0 and elapsed < 120,
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_2_scholz_brown():
    ps = [p for p in _primes(1000) if p % 4 == 1]
    checked = 0
    bad = 0
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            if jacobi(q, p) != 1:
                continue
            if quartic_residue(p, q) * quartic_residue(q, p) != -1:
                continue
            checked += 1
            D = p * q
            if pellsolver.solve(D, -1).solvable:
                bad += 1
            want_p = quartic_residue(q, p) == 1
            if pellsolver.solve(D, p).solvable != want_p:
                bad += 1
            if pellsolver.solve(D, q).solvable != (not want_p):
                bad += 1
    _report(
        2,
        "Scholz-Brown classification for p<q<=1000",
        checked > 0 and bad == 0,
        f"({checked} pairs, {bad} exceptions)",
    )


def test_criterion_3_pall():
    checked = 0
    bad = 0
    for p in _primes(10**4):
        if p % 16 == 9:
            checked += 1
            target = -1 if quartic_residue(2, p) == -1 else -2
            if not pellsolver.solve(2 * p, target).solvable:
                bad += 1
        elif p % 16 == 1 and quartic_residue(2, p) == -1:
            checked += 1
            if not pellsolver.solve(2 * p, 2).solvable:
                bad += 1
    _report(
        3,
        "Pall classification for p<=10^4",
        checked > 0 and bad == 0,
        f"({checked} primes, {bad} exceptions)",
    )


def test_criterion_4_mod16_obstruction():
    checked = 0
    bad = 0
    for d in range(9, 3001, 16):
        fac = factor(d)
        if any(p % 8 not in (1, 7) for p in fac.primes()):
            continue
        checked += 1
        if pellsolver.solve(2 * d, 2).solvable:
            bad += 1
    # the obstruction at d = 41 is genuinely global: every completion passes
    locally_fine = all(
        local_solvable(82, 2, l) for l in [2, 41] + _primes(60)
    )
    _report(
        4,
        "x^2-2dy^2=2 unsolvable for d=9 mod 16 (factors +-1 mod 8), d<=3000",
        checked > 0 and bad == 0 and locally_fine,
        f"({checked} d values, local check at d=41: {locally_fine})",
    )


def test_criterion_5_two_squares_and_quartic():
    family = []
    for d in range(2, 3001):
        fac = factor(d)
        if all(e == 1 for _, e in fac.factors) and all(
            p % 8 == 1 for p in fac.primes()
        ):
            family.append(d)
    bad = 0
    with_rep = 0
    for d in family:
        reps = quadring.two_squares_all(2 * d)
        if any(r % 8 in (3, 5) and s % 8 in (3, 5) for r, s in reps):
            with_rep += 1
            if pellsolver.solve(2 * d, -1).solvable:
                bad += 1
        if pellsolver.solve(2 * d, -2).solvable and symbols.quartic_2_of_d(d) != 1:
            bad += 1
    _report(
        5,
        "two-squares obstruction and quartic implication for d<=3000",
        with_rep > 0 and bad == 0,
        f"({len(family)} family d, {with_rep} with the +-3 mod 8 rep)",
    )


def test_criterion_6_character_tables():
    tab34 = character_table(34, quadring.find_twist_point(34, 2))
    tab146 = character_table(146, quadring.find_twist_point(146, 2))
    ok = (
        (tab34.chi_1, tab34.chi_neg1, tab34.chi_2, tab34.chi_neg2) == (1, -1, 1, -1)
        and (tab146.chi_1, tab146.chi_neg1, tab146.chi_2, tab146.chi_neg2)
        == (1, -1, -1, 1)
    )
    _report(
        6,
        "2-adic engine reproduces the D=34 and D=146 character tables",
        ok,
        f"(34: {tab34}, 146: {tab146})",
    )


def test_criterion_7_burde_identity():
    ps = [p for p in _primes(2000) if p % 4 == 1]
    checked = 0
    bad = 0
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            if jacobi(q, p) != 1:
                continue
            checked += 1
            want = quartic_residue(p, q) * quartic_residue(q, p)
            if symbols.burde_product(p, q) != want:
                bad += 1
    _report(
        7,
        "Burde product equals the quartic-symbol product for p<q<=2000",
        checked > 0 and bad == 0,
        f"({checked} pairs)",
    )


def hilbert_places(a, b):
    # the places where (a, b)_l can be nontrivial: 2, the odd primes of ab, REAL
    odd = {p for n in (a, b) for p in factor(abs(n)).primes() if p != 2}
    return [2, *sorted(odd), symbols.REAL]


def test_criterion_8_hilbert_reciprocity():
    random.seed(20260810)
    bad = 0
    for _ in range(10**4):
        a = random.randint(-(10**4), 10**4)
        b = random.randint(-(10**4), 10**4)
        if a == 0 or b == 0:
            continue
        prod = 1
        for l in hilbert_places(a, b):
            prod *= symbols.hilbert_q(a, b, l)
        if prod != 1:
            bad += 1
    _report(8, "Hilbert reciprocity on 10^4 random pairs", bad == 0)


def test_criterion_9_joint_condition_equals_oracle():
    mismatches = 0
    for n in range(-2000, 2001):
        if n == 0:
            continue
        try:
            artin.joint_artin_decide(221, n)
        except ArithmeticError:
            mismatches += 1
    family_b = [
        D
        for D in range(2, 1001)
        if D % 2 == 0
        and math.isqrt(D) ** 2 != D
        and quadring.classify_order(D).family == "2d"
        and artin.thm24_applicable(D // 2)
    ] + [1394]
    # 1405 and 1717 are pq = 5 mod 8 whose solutions with 4 | n may lie in
    # the maximal order only
    for D in family_b + [1405, 1717]:
        for n in range(-500, 501):
            if n == 0:
                continue
            try:
                artin.joint_artin_decide(D, n)
            except ArithmeticError:
                mismatches += 1
    _report(
        9,
        "joint Artin condition equals oracle (D=221, family-B D, D=1405, 1717)",
        mismatches == 0,
        f"(D=221 |n|<=2000 plus {len(family_b)} family-B D and D=1405, 1717, |n|<=500)",
    )


def test_criterion_10_oracle_brute_force():
    ybound = 10**4
    mismatches = 0
    beyond_bound = 0
    for D in range(2, 301):
        if math.isqrt(D) ** 2 == D:
            continue
        best: dict[int, tuple[int, int]] = {}
        for y in range(ybound + 1):
            t = D * y * y
            x0 = isqrt(max(t - 50, 0))
            for x in range(x0, isqrt(t + 50) + 2):
                n = x * x - t
                if -50 <= n <= 50 and n != 0 and n not in best:
                    best[n] = (x, y)
        for n in range(-50, 51):
            if n == 0:
                continue
            v = pellsolver.solve(D, n)
            if n in best:
                if not v.solvable:
                    mismatches += 1
                elif v.witness[0] ** 2 - D * v.witness[1] ** 2 != n:
                    mismatches += 1
            elif v.solvable:
                x, y = v.witness
                # a witness the brute bound cannot see still must verify
                if x * x - D * y * y != n or y <= ybound:
                    mismatches += 1
                else:
                    beyond_bound += 1
    _report(
        10,
        "oracle agrees with brute force (|y|<=10^4) for D<=300, |n|<=50",
        mismatches == 0,
        f"({beyond_bound} verified witnesses beyond the brute bound)",
    )
