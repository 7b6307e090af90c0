"""Digests of the oracle's and the joint criterion's output, for comparing two trees.

Run from the root of a checkout:

    python3 tools/verdict_digest.py

Each line is a sha256 over one grid, with every record written out in full:

* ``minimal_solutions``: every solution class of x^2 - D y^2 = n, non-square
  D < 1500, 0 < |n| <= 300;
* ``pqa_threads``: the one raw solution of a PQa thread, or None
  (``_pqa_thread``, before any descent along the unit orbit), of
  x^2 - D y^2 = m, for non-square D < 600, 1 < |m| <= 300 and every square
  root z of D mod |m| with 0 <= z <= |m|/2;
* ``pqa_classes``: the orbit-minimal representatives, sorted by (y, x), of
  every class that the PQa route ``_lmm_all`` finds, forced on every
  non-square D < 400 and 0 < |n| <= 200 with n^2 >= D, whatever route
  ``minimal_solutions`` would take;
* ``local_obstruction_anywhere``: the first obstructing prime, or None, for
  non-square D < 800, 0 < |n| <= 400;
* ``local_powers``: the same, for D = l^k m with l^2 | D, odd l <= 13,
  2 <= k <= 5 and 0 < m < 25 prime to l, and n = +-2^a l^b u with a <= 12,
  b <= 6 and odd u < 16 prime to l, so that the descent at l^2 | D, the
  primes l of both D and n, and the 2-adic layers run far beyond the
  |n| <= 400 grid;
* ``local_certificates``: over the pairs of both grids above, the first
  obstructing prime l and every prime of 2Dn that ``check.no_local_point``
  certifies; the line also counts the obstructions l it certifies and those
  it refuses, which must be none;
* ``solve``: the verdict (status, witness, provenance, reason) for non-square
  D < 1000, 0 < |n| <= 200;
* ``routes``: the route ``minimal_solutions`` takes (the orbit scan,
  convergents or PQa threads) over the same pairs, seen by wrapping
  ``_convergent_all`` and ``_lmm_all``;
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
* ``large_units``: the period length and the unit (x1, y1, unit_norm) of
  the first 30 non-square D above 10^9, D = 10^9 + 1..10^9 + 30, and
  ``minimal_solutions(D, n)`` for n in {+-1, +-2, +-3, +-4}, all on the
  convergent route, with units of thousands of digits;
* ``class_group``: the principal set of reduced forms, sorted as plain
  (a, b, c) tuples, at disc 4D for every non-square D < 20,000 and also at
  disc D when D = 1 mod 4, each group built afresh past the cache;
* ``class_images``: ``class_images_of_norm`` over the same pairs as
  ``joint_families``: the disc, the obstruction, and per entry the split
  exponents, the exact reduced form and the ``twist_symbol`` at
  ``canonical_twist(D)``; an exception is written out by its type;
* ``twist_heads``: ``artin._head(D, canonical_twist(D), n)``, the twist
  symbol's factors at 2 and at the odd twist prime, for every D < 3000
  where the joint criterion applies and every 0 < |n| <= 3000 that the
  local test passes;
* ``twist_halves``: ``artin._twist_half(D, tw, l, e, splitting_type(D, l))``,
  the pair of signs that l^e || n brings to the twist symbol, for the three
  least twist points tw of every twist prime of every D < 3000 in either
  family (both primes of a pq D, 2 for a 2d D), every odd prime l < 1500
  and e in {1, 2, 3};
* ``classify``: the exit code and the JSON line of ``cli.main`` for
  ``classify-pq p q`` on every pair of ``scan --family pq --max 300`` (p < q,
  both 1 mod 4, with ``cor14_applicable``) and for ``classify-2p p`` on
  every odd prime p below 20,000;
* ``hilbert_ev``: the Hilbert symbol over E_v (``hilbert_ev``, each
  unordered pair) of 23 small elements x + y sqrt(D) at the place over 2 of
  every D < 3000 where Q_2(sqrt(D)) is a field with v2(D) <= 1, and at the
  place over every odd prime l < 60 of those D where l is inert or
  ramified with l^2 not dividing D.

Equal digests on two trees mean equal output on every pair.  A single grid
can be named on the command line, as in ``python3 tools/verdict_digest.py solve``.
"""

import contextlib
import hashlib
import io
import itertools
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gen import JOINT_2D_D, JOINT_2D_N_MAX  # noqa: E402
from pellcrit import (  # noqa: E402
    artin, check, cli, criteria, intcore, localanalysis, pellsolver, quadring
)

# per-grid counts that main prints beside the digest, set by the grid
_TALLY: dict[str, int] = {}


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


def _local_powers():
    for l in (3, 5, 7, 11, 13):
        units = [u for u in range(1, 16, 2) if u % l]
        for k in range(2, 6):
            for m in range(1, 25):
                D = l**k * m
                if m % l == 0 or math.isqrt(D) ** 2 == D:
                    continue
                for a in range(13):
                    for b in range(7):
                        for u in units:
                            yield D, 2**a * l**b * u
                            yield D, -(2**a) * l**b * u


def _certificates():
    _TALLY.update(certified=0, refused=0)
    for D, n in itertools.chain(_pairs(800, 400), _local_powers()):
        l = intcore.local_obstruction_anywhere(D, n)
        primes = sorted({2, *intcore.factor(D).primes(), *intcore.factor(abs(n)).primes()})
        certified = tuple(p for p in primes if check.no_local_point(D, n, p))
        if l is not None:
            _TALLY["certified" if l in certified else "refused"] += 1
        yield (D, n), (l, certified)


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


def _heads():
    for D, n in _pairs(3000, 3000):
        if artin._applicable(D) and intcore.local_obstruction_anywhere(D, n) is None:
            yield (D, n), _outcome(artin._head, D, artin.canonical_twist(D), n)


def _twist_points():
    for D in range(2, 3000):
        if math.isqrt(D) ** 2 != D:
            info = quadring.classify_order(D)
            ells = {quadring.FAMILY_PQ: info.primes, quadring.FAMILY_2D: (2,)}.get(info.family, ())
            for ell in ells:
                yield from itertools.islice(quadring.twist_point_candidates(D, ell), 3)


def _halves():
    odd = intcore._sieve(1500)[1:]
    for tw in _twist_points():
        for l in odd:
            kind = quadring.splitting_type(tw.D, l)
            for e in (1, 2, 3):
                yield (tw, l, e), artin._twist_half(tw.D, tw, l, e, kind)


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


def _large_unit(D):
    cf, fund = pellsolver.cf_fundamental(D)
    return (
        len(cf.period),
        (fund.x1, fund.y1, fund.unit_norm),
        [pellsolver.minimal_solutions(D, n) for n in (1, -1, 2, -2, 3, -3, 4, -4)],
    )


def _threads():
    for m in range(-300, 301):
        if abs(m) > 1:
            mfac = intcore.factor(abs(m)).factors
            for D in range(2, 600):
                if math.isqrt(D) ** 2 != D:
                    for z in pellsolver._thread_roots(D % abs(m), mfac):
                        yield D, m, z


def _pqa_classes():
    for D, n in _pairs(400, 200):
        if n * n >= D:
            reps = {pellsolver._descend(D, x, y) for x, y in pellsolver._lmm_all(D, n)}
            yield (D, n), sorted(reps, key=lambda t: (t[1], t[0]))


def _routes():
    # the route of minimal_solutions on each solve pair: "scan" unless it
    # called _convergent_all or _lmm_all
    taken = []
    saved = {name: getattr(pellsolver, name) for name in ("_convergent_all", "_lmm_all")}
    for name, f in saved.items():
        setattr(pellsolver, name, lambda D, n, name=name, f=f: taken.append(name) or f(D, n))
    try:
        for D, n in _pairs(1000, 200):
            taken.clear()
            pellsolver.minimal_solutions(D, n)
            yield (D, n), tuple(taken) or "scan"
    finally:
        for name, f in saved.items():
            setattr(pellsolver, name, f)


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


_HILBERT_BOX = [(x, y) for x in (-3, -1, 0, 1, 2, 4, 6, 16) for y in (0, 1, -2) if x or y]


def _nonsplit_places():
    odd = [l for l in range(3, 60) if intcore.is_prime(l)]
    for D in range(2, 3000):
        if D % 4 == 2 or D % 8 in (3, 5, 7):
            yield D, 2
            for l in odd:
                if D % (l * l) and quadring.splitting_type(D, l) != quadring.SPLIT:
                    yield D, l


def _hilbert(D, l):
    place = localanalysis.places_over(D, l)[0]
    box = _HILBERT_BOX
    return [localanalysis.hilbert_ev(u, w, place) for i, u in enumerate(box) for w in box[i:]]


GRIDS = {
    "minimal_solutions": lambda: (
        ((D, n), pellsolver.minimal_solutions(D, n)) for D, n in _pairs(1500, 300)
    ),
    "pqa_threads": lambda: (
        ((D, m, z), pellsolver._pqa_thread(D, m, z)) for D, m, z in _threads()
    ),
    "pqa_classes": _pqa_classes,
    "local_obstruction_anywhere": lambda: (
        ((D, n), intcore.local_obstruction_anywhere(D, n)) for D, n in _pairs(800, 400)
    ),
    "local_powers": lambda: (
        ((D, n), intcore.local_obstruction_anywhere(D, n)) for D, n in _local_powers()
    ),
    "local_certificates": _certificates,
    "solve": lambda: (((D, n), _verdict(pellsolver.solve(D, n))) for D, n in _pairs(1000, 200)),
    "routes": _routes,
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
    "twist_heads": _heads,
    "twist_halves": _halves,
    "decide_221": lambda: (
        (n, _verdict(criteria.decide_221(n))) for n in range(-30_000, 30_001) if n
    ),
    "cf_fundamental": lambda: (
        (D, _walk(D)) for D in range(2, 100_000) if math.isqrt(D) ** 2 != D
    ),
    "large_units": lambda: ((D, _large_unit(D)) for D in range(10**9 + 1, 10**9 + 31)),
    "class_group": lambda: (
        (disc, sorted(artin.ClassGroup(disc).principal_forms))
        for disc in _discs(20_000)
    ),
    "classify": lambda: ((tuple(argv), _printed(argv)) for argv in _classify_argvs()),
    "hilbert_ev": lambda: (((D, l), _hilbert(D, l)) for D, l in _nonsplit_places()),
}


def main(argv):
    for name in argv or GRIDS:
        h = hashlib.sha256()
        count = 0
        _TALLY.clear()
        for key, value in GRIDS[name]():
            h.update(f"{key}:{value}\n".encode())
            count += 1
        counts = "".join(f"{v} {k}, " for k, v in _TALLY.items())
        print(f"{name}: {count} pairs, {counts}sha256 {h.hexdigest()}", flush=True)


if __name__ == "__main__":
    # the large_units grid writes out units past the int-to-str limit (4,300
    # digits), so it is lifted for the run, as cli.main lifts it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    main(sys.argv[1:])
