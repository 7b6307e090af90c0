"""The result records: immutable tuple subclasses whose checks run at construction."""

import pytest

from pellcrit import artin, intcore, localanalysis, pellsolver, quadring
from pellcrit.verdict import Verdict


def test_form_rejects_imprimitive():
    assert artin.Form(1, 2, -33).disc == 136
    with pytest.raises(ValueError, match=r"^form Form\(a=2, b=4, c=-6\) is imprimitive$"):
        artin.Form(2, 4, -6)
    with pytest.raises(ValueError, match="imprimitive"):
        artin.Form(3, 0, 0)


def test_verdict_witness_iff_solvable():
    with pytest.raises(ValueError, match="witness"):
        Verdict("solvable", None, "oracle")
    with pytest.raises(ValueError, match="witness"):
        Verdict("unsolvable", (1, 0), "oracle")


def test_verdict_checks_hold_positionally_and_by_keyword():
    for args, kwargs, match in (
        (("maybe", None, "oracle", None), {}, "bad status"),
        ((), dict(status="maybe", witness=None, provenance="oracle"), "bad status"),
        (("solvable", None, "oracle", None), {}, "witness"),
        ((), dict(status="solvable", witness=None, provenance="oracle"), "witness"),
        (("unsolvable", (1, 0), "oracle", "r"), {}, "witness"),
        ((), dict(status="unsolvable", witness=(1, 0), provenance="oracle", reason="r"), "witness"),
    ):
        with pytest.raises(ValueError, match=match):
            Verdict(*args, **kwargs)
    v = Verdict("unsolvable", None, "artin", "local-obstruction:5")
    assert v == ("unsolvable", None, "artin", "local-obstruction:5")
    assert v == Verdict(status="unsolvable", witness=None, provenance="artin",
                        reason="local-obstruction:5")
    assert type(v) is Verdict and not v.solvable and v.reason == "local-obstruction:5"
    w = v._replace(status="solvable", witness=(6, 1), reason=None)
    assert type(w) is Verdict and w.solvable and w == ("solvable", (6, 1), "artin", None)
    assert v._replace(reason="r") == ("unsolvable", None, "artin", "r")
    assert Verdict("solvable", (6, 1), "oracle") == ("solvable", (6, 1), "oracle", None)


def test_twist_point_rejects_x0_not_positive():
    # a failed equation and gcd(x0, y0) > 1 are test_quadring's cases
    tp = quadring.TwistPoint(6, 1, 1, 2, 34)  # 36 - 34 = 2
    assert tp.norm() == 2 and tp.element() == (6, -1)
    with pytest.raises(ValueError, match="x0 > 0"):
        quadring.TwistPoint(-6, 1, 1, 2, 34)  # solves the equation, x0 < 0
    with pytest.raises(ValueError, match="x0 > 0"):
        quadring.TwistPoint(0, 0, 0, 2, 34)  # solves the equation, x0 = 0


def test_factorization_rejects_each_condition():
    fac = intcore.Factorization(-1, ((2, 1), (17, 1)))
    assert fac == intcore.factor(-34) and fac.value() == -34
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="sign"):
            intcore.Factorization(sign, ((2, 1),))
    with pytest.raises(ValueError, match="increasing"):
        intcore.Factorization(1, ((17, 1), (2, 1)))  # unsorted
    with pytest.raises(ValueError, match="increasing"):
        intcore.Factorization(1, ((2, 1), (2, 1)))  # repeated
    with pytest.raises(ValueError, match="bad factor"):
        intcore.Factorization(1, ((221, 1),))  # 13 * 17 is not prime
    with pytest.raises(ValueError, match="bad factor"):
        intcore.Factorization(1, ((1, 1),))
    with pytest.raises(ValueError, match="bad factor"):
        intcore.Factorization(1, ((2, 1), (3, 0)))  # exponent below 1


def test_place_defaults():
    place = localanalysis.Place(3, quadring.SPLIT, 34)
    assert place.root is None and place.prec == 0
    assert localanalysis.Place(l=3, kind=quadring.SPLIT, D=34, prec=5).prec == 5
    assert Verdict("unsolvable", None, "oracle").reason is None


def _one_of_each_record() -> list:
    twist = quadring.find_twist_point(34, 2)
    images = artin.class_images_of_norm(34, 33)
    cf, fund = pellsolver.cf_fundamental(34)
    return [
        Verdict("solvable", (6, 1), "oracle"),
        intcore.factor(34),
        cf,
        fund,
        quadring.classify_order(34),
        twist,
        localanalysis.Place(3, quadring.SPLIT, 34),
        localanalysis.find_local_point(34, 2, 3),
        localanalysis.character_table(34, twist),
        artin.Form(1, 2, -33),
        images.entries[0][0],
        images,
        # the record of 3 || n that a decision at D = 34 reads, twist signs built
        artin._prime_record(34, 4 * 34, artin.canonical_twist(34), 3, 1),
    ]


def test_every_record_is_immutable():
    records = _one_of_each_record()
    assert len({type(rec) for rec in records}) == 13
    for rec in records:
        hash(rec)  # no mutable field inside
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.extra = None  # no instance dict either
