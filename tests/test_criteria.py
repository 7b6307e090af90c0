import ast
import glob
import os
import subprocess
import sys

import pytest

import pellcrit
from pellcrit import criteria, pellsolver
from pellcrit.verdict import Verdict
from pellcrit.intcore import _SMALL_PRIMES
from pellcrit.symbols import jacobi, quartic_residue


def test_classify_pq_examples():
    t, v = criteria.classify_pq(17, 13)
    assert t == 17 and v.witness == (119, 8)
    t, v = criteria.classify_pq(5, 61)
    assert t == 5 and v.witness == (35, 2)
    t, v = criteria.classify_pq(5, 29)
    assert t == -1 and v.witness == (12, 1)
    t, v = criteria.classify_pq(5, 13)
    assert t == -1 and v.witness == (8, 1)
    with pytest.raises(ValueError):
        criteria.classify_pq(13, 13)
    with pytest.raises(ValueError):
        criteria.classify_pq(15, 7)


def test_classify_pq_role_symmetry():
    for p, q in [(13, 17), (5, 61), (5, 29), (5, 13), (29, 5)]:
        t1, _ = criteria.classify_pq(p, q)
        t2, _ = criteria.classify_pq(q, p)
        assert t1 == t2


def test_classify_pq_trichotomy_small():
    ps = [p for p in _SMALL_PRIMES if p % 4 == 1 and p <= 150]
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            target, verdict = criteria.classify_pq(p, q)
            D = p * q
            solvable = [t for t in (-1, p, q) if pellsolver.solve(D, t).solvable]
            assert len(solvable) == 1
            assert target == solvable[0], (p, q)
            if verdict.witness:
                x, y = verdict.witness
                assert x * x - D * y * y == target


def test_classify_2p_examples():
    t, v = criteria.classify_2p(41)
    assert t == -1 and v.witness == (9, 1)
    t, v = criteria.classify_2p(73)
    assert t == -2 and v.witness == (12, 1)
    t, v = criteria.classify_2p(97)
    assert t == 2 and v.witness == (14, 1)
    t, v = criteria.classify_2p(113)
    assert t == -1 and v.witness == (15, 1) and v.provenance == "oracle"
    with pytest.raises(ValueError):
        criteria.classify_2p(2)


def test_classify_2p_trichotomy_small():
    for p in [q for q in _SMALL_PRIMES if 2 < q <= 1000]:
        target, verdict = criteria.classify_2p(p)
        D = 2 * p
        solvable = [t for t in (-1, 2, -2) if pellsolver.solve(D, t).solvable]
        assert len(solvable) == 1
        assert target == solvable[0], p
        x, y = verdict.witness
        assert x * x - D * y * y == target


def test_decide_221_examples():
    v = criteria.decide_221(17)
    assert v.solvable and v.witness == (119, 8)
    assert not criteria.decide_221(-1).solvable
    assert not criteria.decide_221(-4).solvable
    v = criteria.decide_221(4)
    assert v.solvable and v.witness == (2, 0)
    with pytest.raises(ValueError):
        criteria.decide_221(0)


def test_decide_221_against_oracle_window():
    for n in range(1, 1500):
        for s in (n, -n):
            assert criteria.decide_221(s).solvable == pellsolver.solve(221, s).solvable


def test_known_obstructions_examples():
    v = criteria.known_obstructions(41, 2)
    assert v is not None and v.provenance == "mod16-obstruction"
    v = criteria.known_obstructions(17, -1)
    assert v is not None and v.provenance == "two-squares-obstruction"
    v = criteria.known_obstructions(17, -2)
    assert v is not None and v.provenance == "quartic-obstruction"
    assert criteria.known_obstructions(73, -2) is None
    assert pellsolver.solve(146, -2).witness == (12, 1)


def test_known_obstructions_never_contradict_oracle():
    for d in range(2, 3001):
        for n in (-1, 2, -2):
            v = criteria.known_obstructions(d, n)
            if v is not None:
                assert not pellsolver.solve(2 * d, n).solvable, (d, n)


def test_pall_mechanism():
    # p = 9 mod 16 with a two-squares rep r, s = +-3 mod 8 forces (2/p)_4 = +1
    from pellcrit.quadring import two_squares_all

    hits = 0
    for p in [q for q in _SMALL_PRIMES if q % 16 == 9 and q <= 3000]:
        reps = two_squares_all(2 * p)
        if any(r % 8 in (3, 5) and s % 8 in (3, 5) for r, s in reps):
            assert quartic_residue(2, p) == 1, p
            hits += 1
        else:
            assert quartic_residue(2, p) == -1, p
    assert hits > 3


def test_decompose_221_sets():
    dec = criteria.decompose_221(-2 * 13 * 43 * 43)
    assert dec.sign_exp == 1 and dec.exp2 == 1 and dec.exp13 == 1
    assert dec.rest == ((43, 2),)
    assert dec.n1 == 43 * 43
    assert 43 not in dec.set2
    # 43 splits in both quadratic fields but the quartic stays irreducible
    assert jacobi(13, 43) == 1 and jacobi(17, 43) == 1
    assert 43 not in dec.set3


def test_criteria_raise_when_oracle_disagrees(monkeypatch):
    monkeypatch.setattr(pellsolver, "minimal_solutions", lambda D, n: [])
    # classify_pq: (5, 13) nonresidue pair, (13, 17) quartic trichotomy,
    # (5, 29) both quartic symbols -1
    for call, args in [
        (criteria.classify_pq, (5, 13)),
        (criteria.classify_pq, (13, 17)),
        (criteria.classify_pq, (5, 29)),
        (criteria.classify_2p, (3,)),
        (criteria.classify_2p, (97,)),
        (criteria.decide_221, (17,)),
    ]:
        with pytest.raises(ArithmeticError):
            call(*args)


def test_oracle_fallback_labels_nothing_and_checks_its_witness(monkeypatch):
    # where the symbols leave the target open (p = 113 = 1 mod 16 with
    # (2/p)_4 = +1; p or q = 3 mod 4), the oracle's search decides each
    # target and no local-obstruction label is computed for the others
    assert 113 % 16 == 1 and quartic_residue(2, 113) == 1
    labels = []
    obstruction = pellsolver.local_obstruction_anywhere
    monkeypatch.setattr(
        pellsolver,
        "local_obstruction_anywhere",
        lambda *args, **kwargs: labels.append(args) or obstruction(*args, **kwargs),
    )
    assert criteria.classify_2p(113) == (-1, Verdict("solvable", (15, 1), "oracle"))
    assert criteria.classify_pq(3, 7) == (7, Verdict("solvable", (14, 3), "oracle"))
    assert criteria.classify_pq(3, 5) == (
        None, Verdict("unsolvable", None, "oracle", "no-target-solvable")
    )
    assert labels == []
    # the search checks the witness it returns, as solve relies on
    descend = pellsolver._descend
    monkeypatch.setattr(pellsolver, "_descend", lambda D, x, y: descend(D, x + 1, y))
    with pytest.raises(ArithmeticError, match="oracle witness"):
        criteria.classify_2p(113)
    with pytest.raises(ArithmeticError, match="oracle witness"):
        pellsolver.solve(226, -1)


def test_classify_2p_raises_under_optimize():
    code = (
        "from pellcrit import criteria, pellsolver\n"
        "pellsolver.minimal_solutions = lambda D, n: []\n"
        "try:\n"
        "    criteria.classify_2p(3)\n"
        "except ArithmeticError:\n"
        "    print('raised', __debug__)\n"
    )
    src = os.path.dirname(os.path.dirname(pellcrit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "raised False"


def test_no_assert_statements_in_package():
    # invariants must survive python -O, so the package raises instead
    src = os.path.dirname(pellcrit.__file__)
    paths = sorted(glob.glob(os.path.join(src, "*.py")))
    assert len(paths) >= 10
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, (path, found)


def test_verdict_statuses():
    assert Verdict("solvable", (1, 0), "oracle").solvable
    assert not Verdict("unsolvable", None, "oracle").solvable
    with pytest.raises(ValueError):
        Verdict("undetermined", None, "oracle")
