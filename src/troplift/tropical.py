"""Local tropical varieties: membership, hypersurfaces, enumeration.

A positive weight vector (entries may be +infinity) belongs to the local
tropical variety of an ideal exactly when the corresponding initial
ideal contains no monomial.  Infinite coordinates are handled by setting
those variables to zero first.  On top of the membership test sit two
geometric views: the cone decomposition of a hypersurface, and a
breadth-first walk through the weight fan of a general ideal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapabilityError, UsageError
from .ideals import IdealPresentation, contains_monomial, presentation
from .linalg import find_strict_point
from .polyring import INF, Polynomial, poly_str, restrict
from .scalars import as_value
from .valfan import GroebnerCone, InitialData, _cone_rows, groebner_cone, initial_ideal


@dataclass(frozen=True)
class TropQuery:
    """A candidate point: one positive (or infinite) value per variable."""

    entries: tuple

    def __init__(self, entries):
        normalized = tuple(as_value(x) for x in entries)
        for x in normalized:
            if x is INF:
                continue
            if x.sign() <= 0:
                raise UsageError("weight entries must be positive")
        object.__setattr__(self, "entries", normalized)

    def finite_indices(self):
        return tuple(i for i, x in enumerate(self.entries) if x is not INF)

    def infinite_indices(self):
        return tuple(i for i, x in enumerate(self.entries) if x is INF)


@dataclass(frozen=True)
class TropMembership:
    """Outcome of a membership test, with the evidence that decided it."""

    member: bool
    query: TropQuery
    initial: InitialData | None
    witness_monomial: Polynomial | None

    def to_json_dict(self):
        witness = {}
        if self.member:
            if self.initial is not None:
                witness["initial"] = [poly_str(g) for g in self.initial.generators]
        elif self.witness_monomial is not None:
            witness["monomial"] = poly_str(self.witness_monomial)
        return {
            "w": [str(x) for x in self.query.entries],
            "member": self.member,
            "witness": witness,
        }


def trop_member(I, query):
    """Decide whether a query point lies in the local tropical variety.

    Variables with infinite entries are set to zero; the initial ideal
    of the image at the finite entries is then tested for monomials.  A
    monomial witness certifies non-membership.
    """
    if not isinstance(I, IdealPresentation):
        raise UsageError("expected an ideal presentation")
    if not isinstance(query, TropQuery):
        query = TropQuery(tuple(query))
    n = I.ring.nvars()
    if len(query.entries) != n:
        raise UsageError("query length does not match the ring")
    inf_idx = query.infinite_indices()
    fin_idx = query.finite_indices()
    if not fin_idx:
        return TropMembership(True, query, None, None)
    weights = tuple(query.entries[i] for i in fin_idx)
    J = I
    if inf_idx:
        zeroed = {i: Fraction(0) for i in inf_idx}
        small, gens, _ = restrict(I.generators, I.ring, zeroed)
        J = presentation(small, gens, "local", weights)
    if J.is_zero_ideal():
        return TropMembership(True, query, None, None)
    data = initial_ideal(J, weights)
    flag, witness = contains_monomial(data.presentation)
    return TropMembership(not flag, query, data, witness if flag else None)


@dataclass(frozen=True)
class TropCone:
    """One cone of a tropical set, with a sample weight and evidence."""

    cone: GroebnerCone
    sample: tuple
    member: bool
    witness: InitialData | None

    def to_json_dict(self):
        out = self.cone.to_json_dict()
        out["sample"] = [str(x) for x in self.sample]
        out["member"] = self.member
        if self.witness is not None:
            out["initial"] = [poly_str(g) for g in self.witness.generators]
        return out


_MAX_SUPPORT = 18


def trop_hypersurface(f):
    """All cones of weights where the minimum in f is attained twice.

    Works through the subsets of the support of f: each subset of size
    at least two spans a candidate cone, kept when some strictly
    positive weight achieves the minimum exactly on that subset.  The
    union of the returned cones is the local tropical hypersurface.
    """
    if not isinstance(f, Polynomial) or f.is_zero:
        raise UsageError("expected a nonzero polynomial")
    ring = f.ring
    n = ring.nvars()
    if (0,) * n in f.coeffs:
        raise UsageError("the polynomial must have zero constant term")
    support = sorted(f.coeffs)
    s = len(support)
    if s > _MAX_SUPPORT:
        raise CapabilityError(
            "support has %d monomials; enumeration handles at most %d"
            % (s, _MAX_SUPPORT)
        )
    cones = []
    for mask in range(1, 1 << s):
        chosen = [support[i] for i in range(s) if mask >> i & 1]
        if len(chosen) < 2:
            continue
        anchor = chosen[0]
        eq_rows = [
            tuple(a - b for a, b in zip(anchor, mono)) for mono in chosen[1:]
        ]
        strict_rows = [
            tuple(b - a for a, b in zip(anchor, support[i]))
            for i in range(s)
            if not mask >> i & 1
        ]
        strict_rows += [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]
        sample = find_strict_point(eq_rows, strict_rows, n, drop_degenerate=False)
        if sample is None:
            continue
        # the argmin at the sample is the subset: no two subsets share a cone
        J = presentation(ring, [f], "local", sample)
        data = initial_ideal(J, sample)
        cones.append(TropCone(GroebnerCone(*_cone_rows(data)), sample, True, data))
    cones.sort(key=lambda c: (c.cone.eq, c.cone.ineq))
    return cones


def _start_weight(n, seed):
    rng = random.Random(f"fan:{seed}")
    return tuple(Fraction(rng.randint(1, 997)) for _ in range(n))


def _step_off(point, direction):
    """point - eps * direction for the first eps in 1, 1/2, ..., 2^-63 that
    keeps every entry positive, or None."""
    eps = Fraction(1)
    for _ in range(64):
        moved = tuple(p - eps * c for p, c in zip(point, direction))
        if all(x > 0 for x in moved):
            return moved
        eps /= 2
    return None


def trop_enumerate(I, budget=128, seed=0):
    """Walk the weight fan of I inside the open positive orthant.

    Starting from a seeded weight, repeatedly passes through cone facets
    to reach neighbouring cones and their shared faces.  Each discovered
    cone is labelled by a membership test at an interior sample.
    Returns (cones, truncated): the flag is set when a cone beyond the
    budget was encountered and the walk stopped early.
    """
    if not isinstance(I, IdealPresentation):
        raise UsageError("expected an ideal presentation")
    n = I.ring.nvars()
    start = _start_weight(n, seed)
    queue = [start]
    popped = set()
    seen = {}
    truncated = False
    while queue:
        w = queue.pop(0)
        # a weight met before has its cone in seen already
        if w in popped:
            continue
        popped.add(w)
        Iw = I.local_at(w)
        cone = groebner_cone(Iw, w)
        key = (cone.eq, cone.ineq)
        if key in seen:
            continue
        if len(seen) >= budget:
            truncated = True
            break
        # w > 0 meets its own cone's rows strictly: a positive sample exists
        sample = cone.interior_point()
        # a sample equal to w reuses the basis of the cone
        result = trop_member(Iw, TropQuery(sample))
        seen[key] = TropCone(cone, sample, result.member, result.initial)
        if w is start:
            # a start on a lower-dimensional cone has no facet leading to
            # the full-dimensional cones around it: step off each equality
            for e in cone.eq:
                for direction in (e, tuple(-c for c in e)):
                    off = _step_off(sample, direction)
                    if off is not None:
                        queue.append(off)
        for h in cone.ineq:
            face_point = find_strict_point(
                list(cone.eq) + [h],
                [row for row in cone.ineq if row != h],
                n,
                drop_degenerate=True,
            )
            if face_point is None:
                continue
            if any(x <= 0 for x in face_point):
                continue
            queue.append(face_point)
            crossing = _step_off(face_point, h)
            if crossing is not None:
                queue.append(crossing)
    cones = sorted(seen.values(), key=lambda c: (c.cone.eq, c.cone.ineq))
    return cones, truncated
