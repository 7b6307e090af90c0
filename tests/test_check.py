import ast
import math
import sys

import pytest

from pellcrit import check, intcore, pellsolver


def _local_powers():
    # the local_powers grid of tools/verdict_digest.py: D = l^k m with
    # l^2 | D, odd l <= 13, against n = +-2^a l^b u
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


def _small_pairs():
    for D in range(2, 400):
        if math.isqrt(D) ** 2 != D:
            for n in range(-200, 201):
                if n:
                    yield D, n


def test_certificates_agree_with_local_solvable():
    # at every prime l of 2Dn the checker certifies exactly the l with no
    # Z_l-point, each side by code of its own
    certified = refused = 0
    for pairs in (_small_pairs(), _local_powers()):
        for D, n in pairs:
            primes = {2} | set(intcore.factor(D).primes()) | set(intcore.factor(abs(n)).primes())
            for l in primes:
                want = not intcore.local_solvable(D, n, l)
                assert check.no_local_point(D, n, l) == want, (D, n, l)
                certified += want
                refused += not want
    assert certified > 500_000 and refused > 500_000


def test_primality_at_the_grade_boundaries():
    limit = 20_000
    for l in range(-3, limit):
        assert check._is_prime(l) == (l >= 1 and intcore.is_prime(l)), l
    # each psi_k is a strong pseudoprime to the bases below it, and the
    # grade that starts there rejects it
    for psi, _ in check._GRADES:
        assert not check._is_prime(psi), psi
        assert check._is_prime(psi - 1) == intcore.is_prime(psi - 1), psi
    # past the last proven bound, the wide base set: 2^89 - 1 is prime
    big = 2**89 - 1
    assert big > check._GRADES[-1][0]
    assert check._is_prime(big) and not check._is_prime(big * 3) and not check._is_prime(big + 2)
    # D = a^2 + 1, of period 1, is such a prime, and 3 is not a square mod
    # D, so the local test names D itself and the checker accepts it
    D = 2_000_000_000_020**2 + 1
    assert D > check._GRADES[-1][0] and pow(3, D >> 1, D) != 1
    assert pellsolver.solve(D, 3) == ("unsolvable", None, "oracle", f"local-obstruction:{D}")


def test_no_certificate_where_a_point_exists():
    # composite or non-positive l, l prime to 2Dn, and D or n zero
    for l in (-3, 0, 1, 4, 9, 15, 221):
        assert not check.no_local_point(3, 2, l), l
    assert check.no_local_point(3, 2, 3)
    assert not check.no_local_point(3, 2, 5) and not check.no_local_point(3, 2, 7)
    assert not check.no_local_point(0, 3, 3) and not check.no_local_point(3, 0, 3)
    # a solvable pair has a point everywhere
    for l in (2, 3, 5, 7, 13, 17):
        assert not check.no_local_point(221, 17, l), l


@pytest.mark.parametrize("D, n, fake", [
    (82, 2, 41),  # locally solvable everywhere
    (221, 17, 13),  # solvable
    (3, 5, 2),  # obstructed at 3, not at 2
    (3, 2, 9),  # composite
    (2, -39, 39),  # composite, the product of an obstructing prime
])
def test_solve_rejects_a_false_certificate(monkeypatch, D, n, fake):
    monkeypatch.setattr(pellsolver, "local_obstruction_anywhere", lambda D, n: fake)
    with pytest.raises(ArithmeticError, match=f"local obstruction at {fake} fails its check"):
        pellsolver.solve(D, n)


def test_checker_imports_no_package_module():
    with open(check.__file__) as fh:
        tree = ast.parse(fh.read(), check.__file__)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, node.lineno
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        assert not isinstance(node, ast.Assert), node.lineno
    assert imported <= set(sys.stdlib_module_names) and "pellcrit" not in imported
