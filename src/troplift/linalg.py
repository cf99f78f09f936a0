"""Exact linear algebra over the rationals.

Small dense routines used for weight-cone geometry: row reduction, rank,
nullspaces, linear solves, and a Fourier-Motzkin search for points that
satisfy a mix of linear equalities and strict inequalities.  Rational
input rows become primitive integer rows, and row reduction and the
strict-point search run on those ints; a Fraction is built only for an
entry of an answer.  Nothing leaves exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CapabilityError


def _scaled(values):
    """(den, ints): the lcm of the denominators of rational values and the
    values times it, as ints."""
    # a list: unpacking a generator grows a tuple by resizing, which fragments the heap
    den = lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def primitive_row(row):
    """The primitive integer row on the ray of a rational row: scaled by the
    lcm of its denominators, then divided by the gcd of its entries.  A
    zero row stays zero."""
    _, ints = _scaled(row)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def rref(rows, ncols):
    """Reduced row echelon form, kept over the integers.

    Returns (reduced_rows, pivot_columns).  Each reduced row is a primitive
    int row with a positive entry in its pivot column and zeros in the
    other pivot columns, so row / row[pivot] is the reduced row echelon
    form (Gauss-Jordan elimination without fractions).  Zero rows are
    dropped.
    """
    mat = [primitive_row(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        if mat[rank][col] < 0:
            mat[rank] = tuple([-x for x in mat[rank]])
        piv = mat[rank]
        a = piv[col]
        for i in range(len(mat)):
            b = mat[i][col]
            if i != rank and b != 0:
                row = [a * x - b * y for x, y in zip(mat[i], piv)]
                g = gcd(*row)
                mat[i] = tuple([x // g for x in row]) if g > 1 else tuple(row)
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def mat_rank(rows, ncols):
    reduced, _ = rref(rows, ncols)
    return len(reduced)


def _int_nullspace(rows, ncols):
    """(den, basis): a basis of the right kernel times den, the lcm of its
    denominators, as int tuples.  For each free column the basis vector is
    1 there, 0 at the other free columns and minus that column of the
    reduced row echelon form at the pivots.  Reduced rows are primitive, so
    den is the lcm of their pivot entries."""
    reduced, pivots = rref(rows, ncols)
    den = lcm(*[row[piv] for row, piv in zip(reduced, pivots)])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = den
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[free] * (den // row[piv])
        basis.append(tuple(vec))
    return den, basis


def solve_linear(rows, rhs, ncols):
    """One exact solution of the system rows * x = rhs, or None."""
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for row, piv in zip(reduced, pivots):
        sol[piv] = Fraction(row[ncols], row[piv])
    return tuple(sol)


_FM_ROW_LIMIT = 20000


def _fm_strict_point(rows, dim, sources=None, eliminated=0):
    """A point y with <row, y> > 0 for every integer row, or None.

    Classic Fourier-Motzkin elimination on homogeneous strict
    inequalities, eliminating the last coordinate at each level.  A
    combined row is divided by the gcd of its entries; scaling a row by a
    positive number changes neither the rows' solutions nor the bounds
    back-substitution takes from it, so the point found is the one the
    unscaled rows give.  Chernikov's rule prunes the combined rows: each
    row carries the set of input rows it combines (sources, as bit masks),
    and a row of elimination k whose set has more than k + 1 members is
    implied by the rows kept, so dropping it changes neither the solutions
    at any level nor any bound, and the point is the one found without it.
    """
    if len(rows) > _FM_ROW_LIMIT:
        raise CapabilityError(
            f"inequality elimination beyond the bound of {_FM_ROW_LIMIT} rows"
            f" (got {len(rows)})"
        )
    if dim == 0:
        return () if not rows else None
    if sources is None:
        sources = [1 << k for k in range(len(rows))]
    pos, neg, combined, combined_sources = [], [], [], []
    for row, src in zip(rows, sources):
        c = row[dim - 1]
        if c > 0:
            pos.append((row, src))
        elif c < 0:
            neg.append((row, src))
        else:
            combined.append(row[: dim - 1])
            combined_sources.append(src)
    for p, sp in pos:
        for q, sq in neg:
            cp, cq = p[dim - 1], q[dim - 1]
            new = [cp * qa - cq * pa for pa, qa in zip(p[: dim - 1], q[: dim - 1])]
            g = gcd(*new)
            if not g:
                # 0 > 0 after a strict combination: the band is empty.
                return None
            if (sp | sq).bit_count() <= eliminated + 2:
                combined.append(tuple([x // g for x in new]))
                combined_sources.append(sp | sq)
    inner = _fm_strict_point(combined, dim - 1, combined_sources, eliminated + 1)
    if inner is None:
        return None
    # the bound of a row is -<row, inner> / row[-1]: over the common
    # denominator den of inner, one Fraction per row
    den, nums = _scaled(inner)
    lower = upper = None
    for p, _ in pos:
        bound = Fraction(-sum([a * y for a, y in zip(p, nums)]), p[dim - 1] * den)
        if lower is None or bound > lower:
            lower = bound
    for q, _ in neg:
        bound = Fraction(-sum([a * y for a, y in zip(q, nums)]), q[dim - 1] * den)
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

    The equalities are eliminated first by passing to their nullspace,
    whose basis is scaled to ints by the lcm of its denominators; each
    strict row is taken as its primitive integer row and projected onto
    that basis.  A strict row that vanishes identically on the nullspace
    is dropped when drop_degenerate is set (relative-interior semantics)
    and makes the search fail otherwise (exact-face semantics).  Returns a
    Fraction tuple or None.
    """
    den, basis = _int_nullspace(eq_rows, ncols)
    if not basis:
        if strict_rows:
            return None
        return tuple(Fraction(0) for _ in range(ncols))
    projected = []
    for s in strict_rows:
        s = primitive_row(s)
        row = tuple([sum([a * b for a, b in zip(s, vec)]) for vec in basis])
        if not any(row):
            if drop_degenerate:
                continue
            return None
        projected.append(row)
    inner = _fm_strict_point(projected, len(basis))
    if inner is None:
        return None
    common, nums = _scaled(inner)
    den *= common
    return tuple(
        Fraction(sum([y * vec[j] for y, vec in zip(nums, basis)]), den)
        for j in range(ncols)
    )
