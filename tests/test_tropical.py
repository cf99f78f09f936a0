"""Tropical membership, hypersurface cones, and fan enumeration."""

import random
from fractions import Fraction

import pytest

from troplift.errors import CapabilityError, UsageError
from troplift.ideals import dimension, presentation
from troplift.linalg import nullspace
from troplift.parsing import parse_poly
from troplift.polyring import INF, PolyRing, poly_str
from troplift.scalars import NumberField
from troplift.tropical import (
    TropQuery,
    trop_enumerate,
    trop_hypersurface,
    trop_member,
)


def _ring(*names):
    return PolyRing(NumberField(), names)


def _p(ring, text):
    return parse_poly(text, ring)


def _ideal(ring, texts):
    return presentation(ring, [_p(ring, t) for t in texts], "global")


def test_trop_member_examples():
    R = _ring("x", "y")
    I = _ideal(R, ["x + y"])
    assert trop_member(I, (1, 1)).member is True
    res = trop_member(I, (1, 2))
    assert res.member is False
    assert poly_str(res.witness_monomial) == "x"


def test_trop_member_infinite_coordinates():
    R = _ring("x", "y", "z")
    I = _ideal(R, ["x + y*z"])
    res = trop_member(I, (INF, 1, 1))
    assert res.member is False
    assert poly_str(res.witness_monomial) in ("y*z", "z*y")

    # every generator vanishes after substitution: membership holds
    J = _ideal(R, ["x*y + x*z"])
    assert trop_member(J, (INF, 1, 1)).member is True


def test_trop_member_all_infinite():
    R = _ring("x", "y")
    I = _ideal(R, ["x + y"])
    assert trop_member(I, (INF, INF)).member is True


def test_trop_query_rejects_nonpositive():
    with pytest.raises(UsageError):
        TropQuery((0, 1))
    with pytest.raises(UsageError):
        TropQuery((Fraction(-1, 2), 1))


def test_trop_member_wrong_length():
    R = _ring("x", "y")
    I = _ideal(R, ["x + y"])
    with pytest.raises(UsageError):
        trop_member(I, (1, 1, 1))


def test_trop_hypersurface_examples():
    R = _ring("x", "y")
    cones = trop_hypersurface(_p(R, "x + y"))
    assert len(cones) == 1
    assert cones[0].cone.eq == ((1, -1),)

    cones = trop_hypersurface(_p(R, "y^2 - x^3"))
    assert len(cones) == 1
    assert cones[0].cone.eq == ((3, -2),)

    cones = trop_hypersurface(_p(R, "y^2 - x^2 - x^3"))
    assert len(cones) == 1
    assert cones[0].cone.eq == ((1, -1),)


def test_trop_hypersurface_monomial_is_empty():
    R = _ring("x", "y")
    assert trop_hypersurface(_p(R, "x^2*y")) == []


def test_trop_hypersurface_rejects_constant_term():
    R = _ring("x", "y")
    with pytest.raises(UsageError):
        trop_hypersurface(_p(R, "x + y + 1"))


def test_trop_hypersurface_support_guard():
    R = _ring("x", "y")
    terms = [((i, 1), Fraction(1)) for i in range(19)]
    fat = R.from_terms(terms)
    with pytest.raises(CapabilityError):
        trop_hypersurface(fat)


def test_trop_enumerate_examples():
    R = _ring("x", "y")
    cones, truncated = trop_enumerate(_ideal(R, ["x + y"]))
    assert not truncated
    members = [c for c in cones if c.member]
    others = [c for c in cones if not c.member]
    assert len(members) == 1
    assert members[0].cone.eq == ((1, -1),)
    maximal = [c for c in others if c.cone.dim() == 2]
    assert len(maximal) == 2
    # seed 141295 starts at (687, 687), on the member ray: the walk steps
    # off the ray and finds the same cones
    off_ray, truncated = trop_enumerate(_ideal(R, ["x + y"]), seed=141295)
    assert not truncated
    assert [c.to_json_dict() for c in off_ray] == [c.to_json_dict() for c in cones]

    cones, truncated = trop_enumerate(_ideal(R, ["x"]))
    assert not truncated
    assert all(not c.member for c in cones)
    assert any(c.cone.dim() == 2 for c in cones)

    cones, truncated = trop_enumerate(_ideal(R, ["y^2 - x^3"]))
    assert not truncated
    members = [c for c in cones if c.member]
    assert len(members) == 1
    assert members[0].cone.eq == ((3, -2),)


def test_trop_enumerate_budget_marks_truncation():
    R = _ring("x", "y")
    cones, truncated = trop_enumerate(_ideal(R, ["y^2 - x^3"]), budget=1)
    assert truncated
    assert len(cones) == 1


def _interior_samples(cone, rng, count=5):
    """Random rational points in the relative interior of a cone."""
    n = cone.ncols()
    base = cone.interior_point()
    if base is None:
        return []
    basis = nullspace(cone.eq, n)
    out = []
    for _ in range(count):
        cand = list(base)
        for b in basis:
            c = Fraction(rng.randint(-3, 3), 7)
            cand = [x + c * v for x, v in zip(cand, b)]
        scale = Fraction(rng.randint(1, 5))
        cand = [scale * x for x in cand]
        eps = Fraction(1)
        for _ in range(64):
            mix = [
                (1 - eps) * Fraction(scale) * b0 + eps * c0
                for b0, c0 in zip(base, cand)
            ]
            if all(x > 0 for x in mix) and all(
                sum(r * x for r, x in zip(row, mix)) > 0 for row in cone.ineq
            ):
                out.append(tuple(mix))
                break
            eps /= 2
    return out


def test_enumerate_consistency_with_membership():
    specs = [
        (("x", "y"), ["x + y"]),
        (("x", "y"), ["y^2 - x^3"]),
        (("x", "y"), ["y^2 - x^2 - x^3"]),
        (("x", "y", "z"), ["x + y + z"]),
    ]
    rng = random.Random(2026)
    for names, texts in specs:
        R = _ring(*names)
        I = _ideal(R, texts)
        cones, truncated = trop_enumerate(I, budget=64)
        assert not truncated
        for c in cones:
            for pt in _interior_samples(c.cone, rng):
                assert trop_member(I, pt).member == c.member


def test_enumerate_agrees_with_hypersurface():
    texts = ["x + y", "y^2 - x^3", "y^2 - x^2 - x^3", "x*y - y^3"]
    for text in texts:
        R = _ring("x", "y")
        f = _p(R, text)
        hyper = {(c.cone.eq, c.cone.ineq) for c in trop_hypersurface(f)}
        cones, truncated = trop_enumerate(_ideal(R, [text]), budget=64)
        assert not truncated
        walked = {(c.cone.eq, c.cone.ineq) for c in cones if c.member}
        assert walked == hyper


def test_member_cone_dimension_matches_ideal_dimension():
    specs = [
        (("x", "y"), ["x + y"]),
        (("x", "y"), ["y^2 - x^3"]),
        (("x", "y"), ["y^2 - x^2 - x^3"]),
        (("x", "y", "z"), ["x + y + z"]),
        (("x", "y", "z"), ["x + y + z", "x - z"]),
    ]
    for names, texts in specs:
        R = _ring(*names)
        I = _ideal(R, texts)
        cones, truncated = trop_enumerate(I, budget=200)
        assert not truncated
        best = max(c.cone.dim() for c in cones if c.member)
        assert best == dimension(I)


def test_membership_json_shape():
    R = _ring("x", "y")
    I = _ideal(R, ["x + y"])
    d = trop_member(I, (1, 2)).to_json_dict()
    assert d["member"] is False
    assert d["witness"] == "x"
    d2 = trop_member(I, (1, 1)).to_json_dict()
    assert d2["member"] is True
    assert "initial" in d2
