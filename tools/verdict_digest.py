"""Digests of the oracle's and the joint criterion's output, for comparing two trees.

Run from the root of a checkout:

    python3 tools/verdict_digest.py

Each line is a sha256 over one grid, with every record written out in full:

* ``minimal_solutions``: every solution class of x^2 - D y^2 = n, non-square
  D < 1500, 0 < |n| <= 300;
* ``pqa_threads``: the raw solutions of one PQa thread (``_pqa_solutions``,
  before any descent along the unit orbit) of x^2 - D y^2 = m, for
  non-square D < 600, 1 < |m| <= 300 and every square root z of D mod |m|
  with 0 <= z <= |m|/2;
* ``local_obstruction_anywhere``: the first obstructing prime, or None, for
  non-square D < 800, 0 < |n| <= 400;
* ``solve``: the verdict (status, witness, provenance, reason) for non-square
  D < 1000, 0 < |n| <= 200;
* ``joint_artin_decide``: the same tuple over the 12 family-B D of the
  ``joint_2d`` benchmark and 0 < |n| <= 500;
* ``joint_families``: the same tuple over every D < 3000 where the joint
  criterion applies (``_applicable(D)``: the pq family with its odd twist
  prime and the 2d family) and 0 < |n| <= 300;
* ``decide_221``: the verdict tuple of the closed-form D = 221 criterion for
  0 < |n| <= 30,000;
* ``cf_fundamental``: the period, ``qs`` and the states (P_k, Q_k) of sqrt(D)
  and the unit (x1, y1, unit_norm), for non-square D < 100,000, each D walked
  afresh past the cache so that memory stays flat;
* ``class_group``: the principal set of reduced forms, sorted as plain
  (a, b, c) tuples, at disc 4D for every non-square D < 20,000 and also at
  disc D when D = 1 mod 4, each group built afresh past the cache;
* ``class_images``: ``class_images_of_norm`` over the same pairs as
  ``joint_families``: the disc, the obstruction, and per entry the split
  exponents, the exact reduced form and the ``twist_symbol`` at
  ``canonical_twist(D)``; an exception is written out by its type;
* ``classify``: the exit code and the JSON line of ``cli.main`` for
  ``classify-pq p q`` on every pair of ``scan --family pq --max 300`` (p < q,
  both 1 mod 4, with ``cor14_applicable``) and for ``classify-2p p`` on
  every odd prime p below 20,000;
* ``two_adic``: the engine kind, and the square class (``class_of``) and the
  Hilbert symbol at the place over 2 (``hilbert_ev``, each unordered pair) of
  23 small elements x + y sqrt(D), for every D < 3000 where Q_2(sqrt(D)) is
  a field with v2(D) <= 1.

Equal digests on two trees mean equal output on every pair.  A single grid
can be named on the command line, as in ``python3 tools/verdict_digest.py solve``.
"""

import contextlib
import hashlib
import io
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gen import JOINT_2D_D, JOINT_2D_N_MAX  # noqa: E402
from pellcrit import artin, cli, criteria, intcore, localanalysis, pellsolver  # noqa: E402


def _pairs(d_max, n_max):
    for D in range(2, d_max):
        if math.isqrt(D) ** 2 == D:
            continue
        for n in range(-n_max, n_max + 1):
            if n:
                yield D, n


def _family_pairs():
    for D, n in _pairs(3000, 300):
        if artin._applicable(D):
            yield D, n


def _verdict(v):
    return (v.status, v.witness, v.provenance, v.reason)


def _discs(d_max):
    for D in range(2, d_max):
        if math.isqrt(D) ** 2 != D:
            yield 4 * D
            if D % 4 == 1:
                yield D


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotImplementedError, ValueError) as exc:
        return type(exc).__name__


def _images(D, n):
    images = _outcome(artin.class_images_of_norm, D, n)
    if isinstance(images, str):
        return images
    twist = artin.canonical_twist(D)
    return (images.disc, images.obstruction, [
        (choice.split, tuple(form), _outcome(artin.twist_symbol, D, twist, choice, n))
        for choice, form in images.entries
    ])


def _states(cf):
    # (P_k, Q_k) for k = 0..L, by P_(k+1) = a_k Q_k - P_k
    P, Q = 0, 1
    states = [(P, Q)]
    for a, q in zip((cf.a0,) + cf.period, cf.qs):
        P, Q = a * Q - P, q
        states.append((P, Q))
    return tuple(states)


def _walk(D):
    cf, fund = pellsolver.cf_fundamental.__wrapped__(D)
    return (cf.period, cf.qs, _states(cf), (fund.x1, fund.y1, fund.unit_norm))


def _threads():
    for m in range(-300, 301):
        if abs(m) > 1:
            mfac = intcore.factor(abs(m)).factors
            for D in range(2, 600):
                if math.isqrt(D) ** 2 != D:
                    for z in pellsolver._thread_roots(D % abs(m), mfac):
                        yield D, m, z


def _classify_argvs():
    ps = [p for p in intcore._sieve(300) if p % 4 == 1]
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            if artin.cor14_applicable(p, q):
                yield ["classify-pq", str(p), str(q)]
    for p in intcore._sieve(20_000):
        if p != 2:
            yield ["classify-2p", str(p)]


def _printed(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


_TWO_ADIC_BOX = [(x, y) for x in (-3, -1, 0, 1, 2, 4, 6, 16) for y in (0, 1, -2) if x or y]


def _two_adic(D):
    ctx = localanalysis.two_adic_context(D)
    place = localanalysis.places_over(D, 2)[0]
    box = _TWO_ADIC_BOX
    return (
        ctx.kind,
        [ctx.class_of(ctx.from_sqrt_basis(*u)) for u in box],
        [localanalysis.hilbert_ev(u, w, place) for i, u in enumerate(box) for w in box[i:]],
    )


GRIDS = {
    "minimal_solutions": lambda: (
        ((D, n), pellsolver.minimal_solutions(D, n)) for D, n in _pairs(1500, 300)
    ),
    "pqa_threads": lambda: (
        ((D, m, z), pellsolver._pqa_solutions(D, m, z)) for D, m, z in _threads()
    ),
    "local_obstruction_anywhere": lambda: (
        ((D, n), intcore.local_obstruction_anywhere(D, n)) for D, n in _pairs(800, 400)
    ),
    "solve": lambda: (((D, n), _verdict(pellsolver.solve(D, n))) for D, n in _pairs(1000, 200)),
    "joint_artin_decide": lambda: (
        ((D, n), _verdict(artin.joint_artin_decide(D, n)))
        for D in JOINT_2D_D
        for n in range(-JOINT_2D_N_MAX, JOINT_2D_N_MAX + 1)
        if n
    ),
    "joint_families": lambda: (
        ((D, n), _verdict(artin.joint_artin_decide(D, n))) for D, n in _family_pairs()
    ),
    "class_images": lambda: (((D, n), _images(D, n)) for D, n in _family_pairs()),
    "decide_221": lambda: (
        (n, _verdict(criteria.decide_221(n))) for n in range(-30_000, 30_001) if n
    ),
    "cf_fundamental": lambda: (
        (D, _walk(D)) for D in range(2, 100_000) if math.isqrt(D) ** 2 != D
    ),
    "class_group": lambda: (
        (disc, sorted(tuple(f) for f in artin.ClassGroup(disc)._principal_forms))
        for disc in _discs(20_000)
    ),
    "classify": lambda: ((tuple(argv), _printed(argv)) for argv in _classify_argvs()),
    "two_adic": lambda: (
        (D, _two_adic(D)) for D in range(2, 3000) if D % 4 == 2 or D % 8 in (3, 5, 7)
    ),
}


def main(argv):
    for name in argv or GRIDS:
        h = hashlib.sha256()
        count = 0
        for key, value in GRIDS[name]():
            h.update(f"{key}:{value}\n".encode())
            count += 1
        print(f"{name}: {count} pairs, sha256 {h.hexdigest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
