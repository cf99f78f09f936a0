"""Exact linear algebra over the rationals.

Small dense routines used for weight-cone geometry: row reduction, rank,
nullspaces, linear solves, and a Fourier-Motzkin search for points that
satisfy a mix of linear equalities and strict inequalities.  Everything
works on tuples of Fraction and never leaves exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CapabilityError


def _frac_row(row):
    return [Fraction(x) for x in row]


def primitive_row(row):
    """The primitive integer row on the ray of a rational row: scaled by the
    lcm of its denominators, then divided by the gcd of its entries.  A
    zero row stays zero."""
    den = lcm(*(v.denominator for v in row))
    ints = [int(v * den) for v in row]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns).  Zero rows are dropped.
    """
    mat = [_frac_row(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]], pivots


def mat_rank(rows, ncols):
    reduced, _ = rref(rows, ncols)
    return len(reduced)


def nullspace(rows, ncols):
    """Basis of the right kernel as a list of Fraction tuples."""
    reduced, pivots = rref(rows, ncols)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, piv in enumerate(pivots):
            vec[piv] = -reduced[i][free]
        basis.append(tuple(vec))
    return basis


def solve_linear(rows, rhs, ncols):
    """One exact solution of the system rows * x = rhs, or None."""
    aug = [list(_frac_row(r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for i, piv in enumerate(pivots):
        sol[piv] = reduced[i][ncols]
    return tuple(sol)


_FM_ROW_LIMIT = 20000


def _fm_strict_point(rows, dim):
    """A point y with <row, y> > 0 for every row, or None.

    Classic Fourier-Motzkin elimination on homogeneous strict
    inequalities, eliminating the last coordinate at each level.
    """
    if len(rows) > _FM_ROW_LIMIT:
        raise CapabilityError(
            f"inequality elimination beyond the bound of {_FM_ROW_LIMIT} rows"
            f" (got {len(rows)})"
        )
    if dim == 0:
        return () if not rows else None
    pos, neg, rest = [], [], []
    for row in rows:
        c = row[dim - 1]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            rest.append(row[: dim - 1])
    combined = list(rest)
    for p in pos:
        for q in neg:
            cp, cq = p[dim - 1], q[dim - 1]
            new = tuple(cp * qa - cq * pa for pa, qa in zip(p[: dim - 1], q[: dim - 1]))
            if all(x == 0 for x in new):
                # 0 > 0 after a strict combination: the band is empty.
                return None
            combined.append(new)
    inner = _fm_strict_point(combined, dim - 1)
    if inner is None:
        return None
    lower = None
    for p in pos:
        bound = -sum(a * y for a, y in zip(p[: dim - 1], inner)) / p[dim - 1]
        if lower is None or bound > lower:
            lower = bound
    upper = None
    for q in neg:
        bound = -sum(a * y for a, y in zip(q[: dim - 1], inner)) / q[dim - 1]
        if upper is None or bound < upper:
            upper = bound
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


def find_strict_point(eq_rows, strict_rows, ncols, drop_degenerate=True):
    """A rational point with <e, y> = 0 on eq_rows and <s, y> > 0 on strict_rows.

    The equalities are eliminated first by passing to their nullspace.  A
    strict row that vanishes identically on that nullspace is dropped when
    drop_degenerate is set (relative-interior semantics) and makes the
    search fail otherwise (exact-face semantics).  Returns a Fraction
    tuple or None.
    """
    eqs = [tuple(Fraction(x) for x in r) for r in eq_rows]
    stricts = [tuple(Fraction(x) for x in r) for r in strict_rows]
    if eqs:
        basis = nullspace(eqs, ncols)
    else:
        basis = [
            tuple(Fraction(1 if j == i else 0) for j in range(ncols))
            for i in range(ncols)
        ]
    if not basis:
        if stricts:
            return None
        return tuple(Fraction(0) for _ in range(ncols))
    projected = []
    for s in stricts:
        row = tuple(sum(a * b for a, b in zip(s, vec)) for vec in basis)
        if all(x == 0 for x in row):
            if drop_degenerate:
                continue
            return None
        projected.append(row)
    inner = _fm_strict_point(projected, len(basis))
    if inner is None:
        return None
    point = [Fraction(0)] * ncols
    for coeff, vec in zip(inner, basis):
        for j in range(ncols):
            point[j] += coeff * vec[j]
    return tuple(point)
