"""Closed-form decision procedures for the supported families.

Classification of x^2 - pq y^2 in {-1, p, q} and x^2 - 2p y^2 in
{-1, 2, -2} by quartic residue symbols, the explicit D = 221 criterion,
and the unsolvability checks for x^2 - 2d y^2 = 2, -1, -2.  Anything the
symbols leave open falls back to the Pell oracle, flagged as such.
"""

from __future__ import annotations

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


def _quartic_splits_mod_p(p: int) -> bool:
    # does x^4 - 238 x^2 + 17 have a root mod p; its roots in x^2 are
    # 119 +- 8 sqrt(221), and the two choices are squares simultaneously
    r = sqrt_mod(221, p)
    if r is None:
        raise ArithmeticError(f"221 has no square root mod {p}")
    return jacobi(119 - 8 * r, p) == 1


def decide_221(n: int) -> Verdict:
    """Solvability of x^2 - 221 y^2 = n by the explicit symbol conditions.

    One pass over the primes p of n outside {2, 13, 17}.  With n1 the part
    of n at the p with (13/p) = (17/p), the norm condition is: v2(n) even,
    (n1/17) = 1 and no p with (13/p) != (17/p) to an odd power.  Unless some
    p has (13/p) = (17/p) = -1, the twist condition is
    (n1/17)_4 = (-1)^(s + v13(n) + t), where s = 1 for n < 0 and t counts
    the odd-exponent p with (13/p) = (17/p) that are 3 mod 4, plus those
    with (13/p) = (17/p) = 1 where x^4 - 238 x^2 + 17 has no root mod p.
    Every verdict leaves through ``pellsolver.confirm``, which checks it.
    """
    if n == 0:
        raise ValueError("n must be nonzero")

    def verdict(holds: bool, reason: str | None = None) -> Verdict:
        return pellsolver.confirm(221, n, holds, "221-closed-form", reason)

    fac = factor(n)
    n1, t, both_negative = 1, 0, False
    for p, e in fac.factors:
        if p in (2, 13, 17):
            continue
        j13 = jacobi(13, p)
        if j13 != jacobi(17, p):
            if e % 2:
                return verdict(False, "norm-condition")
            continue
        n1 *= p**e
        if j13 == -1:
            both_negative = True
        elif e % 2 and not _quartic_splits_mod_p(p):
            t += 1
        if e % 2 and p % 4 == 3:
            t += 1
    if fac.exponent(2) % 2 or jacobi(n1, 17) != 1:
        return verdict(False, "norm-condition")
    if not both_negative and quartic_residue(n1, 17) != (-1) ** (fac.exponent(13) + t + (n < 0)):
        return verdict(False, "twist-condition")
    return verdict(True)


def known_obstructions(d: int, n: int) -> Verdict | None:
    """Closed-form unsolvability of x^2 - 2d y^2 = n for n in {-1, 2, -2}.

    None when no criterion applies (which does not mean solvable); a verdict
    leaves through ``pellsolver.confirm``, which checks it.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if d % 2 == 0 and n != 2:  # the 2d family needs d odd
        return None
    if n == 2 and d % 16 == 9:
        label = "mod16-obstruction"
    elif n == -1 and thm24_applicable(d):
        label = "two-squares-obstruction"
    elif n == -2 and classify_order(2 * d).family == FAMILY_2D and quartic_2_of_d(d) == -1:
        label = "quartic-obstruction"
    else:
        return None
    return pellsolver.confirm(2 * d, n, False, label)
