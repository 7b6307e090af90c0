import ast
import glob
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import pellcrit
from pellcrit import criteria, pellsolver
from pellcrit.verdict import Verdict
from pellcrit.intcore import _SMALL_PRIMES, factor
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
    # 43 splits in both quadratic fields but the quartic stays irreducible;
    # v2(n) = 1 fails the norm condition before it matters
    assert jacobi(13, 43) == 1 and jacobi(17, 43) == 1
    assert not criteria._quartic_splits_mod_p(43)
    v = criteria.decide_221(-2 * 13 * 43 * 43)
    assert v == ("unsolvable", None, "221-closed-form", "norm-condition")
    with pytest.raises(ValueError):
        criteria.decide_221(0)


def test_decide_221_against_oracle_window():
    for n in range(1, 1500):
        for s in (n, -n):
            assert criteria.decide_221(s).solvable == pellsolver.solve(221, s).solvable


def _reference_decide_221(n):
    # the two-pass criterion: a decomposition of n into three residue-symbol
    # prime sets and n1, then a second walk over the primes for the conditions
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
        if j13 == 1 and j17 == 1 and criteria._quartic_splits_mod_p(p):
            set3.append(p)
    sign_exp = 0 if fac.sign == 1 else 1
    cond1 = (
        fac.exponent(2) % 2 == 0
        and jacobi(n1, 17) == 1
        and all(jacobi(221, p) == 1 for p, e in rest if e % 2 == 1)
    )
    if not cond1:
        return Verdict("unsolvable", None, "221-closed-form", reason="norm-condition")
    if set1:
        cond2 = True
    else:
        lhs = 1
        for p, e in rest:
            if e % 2 and p not in set3 and jacobi(13, p) == 1 and jacobi(17, p) == 1:
                lhs = -lhs
        for p, e in rest:
            if p not in set2 and e % 2 and jacobi(-1, p) == -1:
                lhs = -lhs
        rhs = quartic_residue(n1, 17)
        if (sign_exp + fac.exponent(13)) % 2:
            rhs = -rhs
        cond2 = lhs == rhs
    if not cond2:
        return Verdict("unsolvable", None, "221-closed-form", reason="twist-condition")
    return pellsolver.confirm(221, n, True, "221-closed-form")


def test_decide_221_matches_two_pass_reference():
    # full verdict tuples on 0 < |n| <= 30,000, every outcome well populated
    reasons = {}
    for n in range(-30_000, 30_001):
        if n:
            v = criteria.decide_221(n)
            assert v == _reference_decide_221(n), n
            reasons[v.reason] = reasons.get(v.reason, 0) + 1
    assert set(reasons) == {None, "norm-condition", "twist-condition"}
    assert min(reasons.values()) > 1000


# primes below 2000 other than 2, 13 and 17, by the pair ((13/p), (17/p))
_PRIME_CLASSES = {}
for _p in _SMALL_PRIMES:
    if _p not in (2, 13, 17):
        _PRIME_CLASSES.setdefault((jacobi(13, _p), jacobi(17, _p)), []).append(_p)
_PRIME_POOLS = [[2], [13], [17]] + [_PRIME_CLASSES[c] for c in sorted(_PRIME_CLASSES)]


@st.composite
def _n_for_221(draw):
    # a signed product of up to five distinct primes, drawn from 2, 13, 17 and
    # each of the four symbol classes, with exponents 1 to 3
    prime = st.sampled_from(_PRIME_POOLS).flatmap(st.sampled_from)
    n = draw(st.sampled_from((1, -1)))
    for p in draw(st.lists(prime, max_size=5, unique=True)):
        n *= p ** draw(st.integers(min_value=1, max_value=3))
    return n


@settings(max_examples=300, deadline=None)
@given(_n_for_221())
def test_decide_221_on_symbol_class_products(n):
    v = criteria.decide_221(n)
    assert v == _reference_decide_221(n)
    assert v.solvable == pellsolver.solve(221, n).solvable


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
    monkeypatch.setattr(pellsolver, "_descend", lambda D, x, y, unit=None: descend(D, x + 1, y, unit))
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


# Per-D caches still unbounded; each leaves this list once it has a bound.
_UNBOUNDED_CACHES = {
    ("artin", "class_group"),
    ("artin", "_two_adic_factor"),
    ("artin", "canonical_twist"),
    ("artin", "_d_context"),
    ("localanalysis", "two_adic_context"),
}


def _callee(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded(node):
    # functools.cache, or an lru_cache whose maxsize is None
    if isinstance(node, ast.Call) and _callee(node.func) == "lru_cache":
        size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
        return bool(size) and isinstance(size[0], ast.Constant) and size[0].value is None
    return _callee(node) == "cache"


def test_no_new_unbounded_cache():
    # an unbounded memo grows with every new key of a long scan, so every
    # memo in the package names its bound, bar the listed per-D caches
    src = os.path.dirname(pellcrit.__file__)
    found = set()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                found |= {(module, node.name) for dec in node.decorator_list if _unbounded(dec)}
            elif isinstance(node, ast.Call) and _unbounded(node.func):
                found.add((module, f"line {node.lineno}"))  # cache(f) or lru_cache(None)(f)
    assert found == _UNBOUNDED_CACHES


def test_verdict_statuses():
    assert Verdict("solvable", (1, 0), "oracle").solvable
    assert not Verdict("unsolvable", None, "oracle").solvable
    with pytest.raises(ValueError):
        Verdict("undetermined", None, "oracle")
