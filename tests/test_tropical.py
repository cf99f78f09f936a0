"""Tropical membership, hypersurface cones, and fan enumeration."""

import random
from fractions import Fraction

import pytest

from troplift import linalg
from troplift.errors import CapabilityError, UsageError
from troplift.ideals import dimension, presentation
from troplift.linalg import _fm_strict_point, _int_nullspace, find_strict_point
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
    basis = _ref_nullspace(cone.eq, n)
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
    assert d == {"w": ["1", "2"], "member": False, "witness": {"monomial": "x"}}
    d2 = trop_member(I, (1, 1)).to_json_dict()
    assert d2 == {"w": ["1", "1"], "member": True, "witness": {"initial": ["x + y"]}}
    d3 = trop_member(I, (INF, INF)).to_json_dict()
    assert d3 == {"w": ["inf", "inf"], "member": True, "witness": {}}


def test_fourier_motzkin_row_bound_is_a_capability_error():
    rows = [(Fraction(1), Fraction(k)) for k in range(20001)]
    with pytest.raises(CapabilityError, match="bound of 20000 rows"):
        _fm_strict_point(rows, 2)


def test_chernikov_rule_bounds_the_eliminated_rows(monkeypatch):
    """Eleven strict rows over five free coordinates have no solution.
    Without pruning, the third elimination leaves 5075 rows and the search
    takes seconds to answer None; with Chernikov's rule no level holds
    more than 60 rows."""
    F = Fraction
    rows = [
        (3, 1, F(-5, 2), -3, -2), (1, 1, -1, 1, F(-4, 3)), (-3, F(1, 2), 0, -2, 2),
        (-2, -1, 0, 2, -5), (-1, 1, -1, F(-2, 3), -2), (3, -1, 2, 3, 3),
        (-2, 2, 0, F(-3, 2), -3), (F(5, 3), -1, -3, 2, 3), (3, -3, F(3, 4), 0, 0),
        (3, 0, 4, F(3, 2), 1), (F(-3, 2), 1, 3, -1, 1),
    ]
    sizes = []
    search = linalg._fm_strict_point

    def counting_search(rows, dim, *rest):
        sizes.append(len(rows))
        return search(rows, dim, *rest)

    monkeypatch.setattr(linalg, "_fm_strict_point", counting_search)
    assert find_strict_point([], rows, 5) is None
    assert sizes == [11, 26, 34, 60, 55]


# -- the strict-point search on Fractions, as it ran before the integer kernels


def _ref_nullspace(rows, ncols):
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        hit = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if hit is None:
            continue
        mat[rank], mat[hit] = mat[hit], mat[rank]
        mat[rank] = [x / mat[rank][col] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                mat[i] = [a - mat[i][col] * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, piv in enumerate(pivots):
            vec[piv] = -mat[i][free]
        basis.append(tuple(vec))
    return basis


def _ref_fm_strict_point(rows, dim):
    if len(rows) > 20000:
        raise CapabilityError("inequality elimination beyond the bound of 20000 rows")
    if dim == 0:
        return () if not rows else None
    pos = [r for r in rows if r[dim - 1] > 0]
    neg = [r for r in rows if r[dim - 1] < 0]
    combined = [r[: dim - 1] for r in rows if r[dim - 1] == 0]
    for p in pos:
        for q in neg:
            cp, cq = p[dim - 1], q[dim - 1]
            new = tuple(cp * qa - cq * pa for pa, qa in zip(p[: dim - 1], q[: dim - 1]))
            if all(x == 0 for x in new):
                return None
            combined.append(new)
    inner = _ref_fm_strict_point(combined, dim - 1)
    if inner is None:
        return None
    bounds = [
        (-sum(a * y for a, y in zip(r[: dim - 1], inner)) / r[dim - 1], r in pos)
        for r in pos + neg
    ]
    lower = max((b for b, up in bounds if up), default=None)
    upper = min((b for b, up in bounds if not up), default=None)
    if lower is not None and upper is not None:
        if not lower < upper:
            return None
        last = (lower + upper) / 2
    elif lower is not None:
        last = lower + 1
    elif upper is not None:
        last = upper - 1
    else:
        last = Fraction(1)
    return inner + (last,)


def _ref_find_strict_point(eq_rows, strict_rows, ncols, drop_degenerate=True):
    eqs = [tuple(Fraction(x) for x in r) for r in eq_rows]
    stricts = [tuple(Fraction(x) for x in r) for r in strict_rows]
    if eqs:
        basis = _ref_nullspace(eqs, ncols)
    else:
        basis = [
            tuple(Fraction(1 if j == i else 0) for j in range(ncols))
            for i in range(ncols)
        ]
    if not basis:
        return None if stricts else tuple(Fraction(0) for _ in range(ncols))
    projected = []
    for s in stricts:
        row = tuple(sum(a * b for a, b in zip(s, vec)) for vec in basis)
        if all(x == 0 for x in row):
            if drop_degenerate:
                continue
            return None
        projected.append(row)
    inner = _ref_fm_strict_point(projected, len(basis))
    if inner is None:
        return None
    point = [Fraction(0)] * ncols
    for coeff, vec in zip(inner, basis):
        for j in range(ncols):
            point[j] += coeff * vec[j]
    return tuple(point)


def _outcome(search, *args):
    try:
        return search(*args)
    except CapabilityError:
        return "capability"


def test_integer_strict_point_search_matches_the_fraction_search():
    """The strict-point search on primitive integer rows returns the
    Fraction point, or None, that the search on Fractions returns, and
    raises where it raises.  Half of the systems are made feasible by
    turning each strict row positive at a hidden point of the equalities'
    nullspace.  Twelve strict rows over four or more free coordinates can
    take the Fraction search tens of seconds to reach the row bound, so
    those systems get at most eight."""
    rng = random.Random(2207)

    def entry():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.randint(-3, 3)

    found = {}
    for trial in range(400):
        n = rng.randint(2, 5)
        eqs = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, 3))]
        top = 12 if n - len(eqs) < 4 else 8
        stricts = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(1, top))]
        if rng.random() < 0.3:  # orthant rows, as the cone searches add them
            stricts += [tuple(int(i == j) for j in range(n)) for i in range(n)]
            stricts = stricts[:top]
        if trial % 4 < 2:
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            basis = _ref_nullspace(eqs, n)
            hidden = [sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(n)]
            stricts = [
                tuple(-x for x in r) if sum(a * y for a, y in zip(r, hidden)) < 0 else r
                for r in stricts
            ]
        drop = trial % 2 == 0
        if eqs:
            den, basis = _int_nullspace(eqs, n)
            assert [tuple(Fraction(v, den) for v in vec) for vec in basis] == (
                _ref_nullspace(eqs, n)
            )
        got = _outcome(find_strict_point, eqs, stricts, n, drop)
        want = _outcome(_ref_find_strict_point, eqs, stricts, n, drop)
        assert got == want, (eqs, stricts, drop)
        if isinstance(got, tuple):
            assert all(isinstance(x, Fraction) for x in got)
            got = "point"
        found[got] = found.get(got, 0) + 1
    assert found["point"] >= 100 and found[None] >= 100, found
