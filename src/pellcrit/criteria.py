"""Closed-form decision procedures for the supported families.

Classification of x^2 - pq y^2 in {-1, p, q} and x^2 - 2p y^2 in
{-1, 2, -2} by quartic residue symbols, the explicit D = 221 criterion,
and the unsolvability checks for x^2 - 2d y^2 = 2, -1, -2.  Anything the
symbols leave open falls back to the Pell oracle, flagged as such.
"""

from __future__ import annotations

from collections import namedtuple

from .intcore import factor, is_prime, sqrt_mod
from .symbols import jacobi, quartic_2_of_d, quartic_residue
from .artin import thm24_applicable
from .quadring import classify_order, FAMILY_2D
from .verdict import Verdict
from . import pellsolver


def _oracle_target(D: int, targets: list[int]) -> tuple[int | None, Verdict]:
    # the oracle's complete search on each target, which checks its least
    # solution; an unsolvable target's local label would only be dropped
    hits = [(t, pellsolver.minimal_solutions(D, t)) for t in targets]
    solvable = [(t, reps) for t, reps in hits if reps]
    if len(solvable) == 1:
        t, reps = solvable[0]
        return t, Verdict("solvable", reps[0], provenance="oracle")
    if not solvable:
        return None, Verdict("unsolvable", None, "oracle", reason="no-target-solvable")
    raise ArithmeticError(f"trichotomy violated for D={D}: {solvable}")


def classify_pq(p: int, q: int) -> tuple[int | None, Verdict]:
    """The solvable target among x^2 - pq y^2 = -1, p, q.

    Quartic-symbol dispatch where the criteria apply; otherwise the oracle
    resolves the classification and the verdict says so.
    """
    if p == q or min(p, q) < 2 or not (is_prime(p) and is_prime(q)):
        raise ValueError("p, q must be distinct primes")
    D = p * q
    if p % 4 == 3 or q % 4 == 3:
        # -1 is locally impossible; the symbols here say nothing more
        return _oracle_target(D, [p, q])
    if jacobi(p, q) == -1:
        return -1, pellsolver.confirm(D, -1, True, "nonresidue-pair")
    rp, rq = quartic_residue(q, p), quartic_residue(p, q)
    if rp * rq == -1:
        target = p if rp == 1 else q
        return target, pellsolver.confirm(D, target, True, "quartic-trichotomy")
    if rp == -1 and rq == -1:
        return -1, pellsolver.confirm(D, -1, True, "quartic-both-negative")
    return _oracle_target(D, [-1, p, q])


def classify_2p(p: int) -> tuple[int | None, Verdict]:
    """The solvable target among x^2 - 2p y^2 = -1, 2, -2 for an odd prime."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    D = 2 * p
    r8 = p % 8
    if r8 == 3:
        target, prov = -2, "classical-residue"
    elif r8 == 7:
        target, prov = 2, "classical-residue"
    elif r8 == 5:
        target, prov = -1, "classical-residue"
    elif p % 16 == 9:
        target = -1 if quartic_residue(2, p) == -1 else -2
        prov = "quartic-2p"
    elif quartic_residue(2, p) == -1:  # p = 1 mod 16
        target, prov = 2, "quartic-2p"
    else:
        return _oracle_target(D, [-1, 2, -2])
    return target, pellsolver.confirm(D, target, True, prov)


class Decomposition221(
    namedtuple("Decomposition221", "sign_exp exp2 exp13 exp17 rest set1 set2 set3 n1")
):
    """n = (-1)^sign_exp 2^exp2 13^exp13 17^exp17 * prod p_i^e_i with the
    residue-symbol subsets of the remaining primes."""

    __slots__ = ()
    sign_exp: int
    exp2: int
    exp13: int
    exp17: int
    rest: tuple[tuple[int, int], ...]
    set1: tuple[int, ...]  # (13/p) = (17/p) = -1
    set2: tuple[int, ...]  # (221/p) = -1
    set3: tuple[int, ...]  # (13/p) = (17/p) = 1 and the quartic splits mod p
    n1: int  # product over primes outside set2


def _quartic_splits_mod_p(p: int) -> bool:
    # does x^4 - 238 x^2 + 17 have a root mod p; its roots in x^2 are
    # 119 +- 8 sqrt(221), and the two choices are squares simultaneously
    r = sqrt_mod(221, p)
    if r is None:
        raise ArithmeticError(f"221 has no square root mod {p}")
    return jacobi(119 - 8 * r, p) == 1


def decompose_221(n: int) -> Decomposition221:
    fac = factor(n)
    rest = tuple((p, e) for p, e in fac.factors if p not in (2, 13, 17))
    set1, set2, set3 = [], [], []
    n1 = 1
    for p, e in rest:
        j13, j17 = jacobi(13, p), jacobi(17, p)
        if j13 == -1 and j17 == -1:
            set1.append(p)
        if j13 * j17 == -1:
            set2.append(p)
        else:
            n1 *= p**e
        if j13 == 1 and j17 == 1 and _quartic_splits_mod_p(p):
            set3.append(p)
    return Decomposition221(
        0 if fac.sign == 1 else 1,
        fac.exponent(2),
        fac.exponent(13),
        fac.exponent(17),
        rest,
        tuple(set1),
        tuple(set2),
        tuple(set3),
        n1,
    )


def decide_221(n: int) -> Verdict:
    """Solvability of x^2 - 221 y^2 = n by the explicit symbol conditions."""
    if n == 0:
        raise ValueError("n must be nonzero")
    dec = decompose_221(n)
    cond1 = (
        dec.exp2 % 2 == 0
        and jacobi(dec.n1, 17) == 1
        and all(jacobi(221, p) == 1 for p, e in dec.rest if e % 2 == 1)
    )
    if not cond1:
        return Verdict("unsolvable", None, "221-closed-form", reason="norm-condition")
    if dec.set1:
        cond2 = True
    else:
        # sign product over the primes that split in both Q(sqrt 13) and
        # Q(sqrt 17) but where the twist quartic stays irreducible
        lhs = 1
        for p, e in dec.rest:
            if (
                e % 2
                and p not in dec.set3
                and jacobi(13, p) == 1
                and jacobi(17, p) == 1
            ):
                lhs = -lhs
        for p, e in dec.rest:
            if p not in dec.set2 and e % 2 and jacobi(-1, p) == -1:
                lhs = -lhs
        rhs = quartic_residue(dec.n1, 17)
        if (dec.sign_exp + dec.exp13) % 2:
            rhs = -rhs
        cond2 = lhs == rhs
    if not cond2:
        return Verdict("unsolvable", None, "221-closed-form", reason="twist-condition")
    return pellsolver.confirm(221, n, True, "221-closed-form")


def known_obstructions(d: int, n: int) -> Verdict | None:
    """Closed-form unsolvability of x^2 - 2d y^2 = n for n in {-1, 2, -2}.

    None when no criterion applies (which does not mean solvable).
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if n == 2:
        if d % 16 == 9:
            return Verdict("unsolvable", None, "mod16-obstruction")
        return None
    if d % 2 == 0:  # the 2d family needs d odd
        return None
    if n == -1:
        if thm24_applicable(d):
            return Verdict("unsolvable", None, "two-squares-obstruction")
        return None
    if n == -2 and classify_order(2 * d).family == FAMILY_2D:
        if quartic_2_of_d(d) == -1:
            return Verdict("unsolvable", None, "quartic-obstruction")
    return None
