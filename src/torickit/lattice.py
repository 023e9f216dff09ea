"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision integers or `fractions.Fraction`;
no floating point is used anywhere. All rational elimination (solving,
rank and nullspace) goes through one fraction-free Gauss-Jordan core,
`_fraction_free_rref`, which works on integer rows only and divides
exactly; rows holding fractions are scaled to integers first. The exact
simplex `_lex_min` pivots with the same step, `_pivot`. Smith normal forms
live in `smith`, so a job that validates a fan and reads its primitive
collections compiles none of them.

The common-face LP that validation needs is stated here once, on plain
vector lists: `_meet_only_in` (one `_lex_min` call).

The paths the fan checks, the Cox data and degree completion run stay in
integers: `_lex_min` returns numerators over the basis determinant and
`complete_degrees` reads its verdict off the scaled RREF. `fractions` is
imported only by the helpers that return or accept `Fraction`s
(`rational_solve`, `rational_nullspace`, and `_integer_row` on a
non-integer row, which `clear_denominators` also calls), so a job that
never calls them does not load it.
"""

from __future__ import annotations

import operator
from math import gcd, lcm

from ._record import record
from .errors import (
    DimensionMismatchError,
    InconsistentError,
    NonIntegralError,
    NonPositiveError,
    UnderdeterminedError,
    ZeroVectorError,
)

LatticeVector = tuple[int, ...]


@record
class IntegerMatrix:
    """Immutable integer matrix with row-major entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("entry rows do not match declared row count")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("entry row length does not match column count")
            for e in row:
                if not isinstance(e, int):
                    raise TypeError("entries must be exact integers")

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, cols) -> "IntegerMatrix":
        cols = [tuple(map(operator.index, c)) for c in cols]
        if not cols:
            return cls(0, 0, ())
        nrows = len(cols[0])
        return cls.from_rows(tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.from_rows(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        rows = []
        for i in range(self.rows):
            a = self.entries[i]
            rows.append(
                tuple(
                    sum(a[k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                )
            )
        return IntegerMatrix(self.rows, other.cols, tuple(rows))

    def apply(self, vector) -> tuple[int, ...]:
        """Matrix-vector product over the integers."""
        vec = tuple(vector)
        if len(vec) != self.cols:
            raise DimensionMismatchError(
                f"vector of length {len(vec)} against {self.rows}x{self.cols} matrix"
            )
        return tuple(sum(row[k] * vec[k] for k in range(self.cols)) for row in self.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def positive_kernel_vector(n_matrix: IntegerMatrix):
    """Some integer vector D with N D = 0 and every entry >= 1, or None.

    The witness is the point of {x : N x = 0, x >= 1} of minimal entry sum,
    ties broken lexicographically, with denominators cleared (which keeps
    both constraints). The set contains no line and x >= 1 bounds the sum
    below, so its minimal-sum face is a polytope whose lexicographic
    minimum is a vertex: one `_lex_min` call in y = x - 1 finds it.
    """
    r = n_matrix.cols
    objectives = [[1] * r] + [[int(i == j) for j in range(r)] for i in range(r)]
    vertex = _lex_min(n_matrix.entries, [-sum(row) for row in n_matrix.entries], objectives)
    if vertex is None:
        return None
    # x = 1 + y = (den + y_num) / den; dividing the numerators by their gcd
    # with den is the same as clearing the reduced denominators.
    y_num, den = vertex
    x_num = [den + yk for yk in y_num]
    g = gcd(den, *x_num)
    return tuple(xk // g for xk in x_num)


def complete_degrees(n_matrix: IntegerMatrix, partial: dict) -> tuple[int, ...]:
    """Unique positive integer kernel vector extending a partial assignment.

    Raises UNDERDETERMINED if the pinned coordinates leave more than one
    rational kernel extension, INCONSISTENT if they leave none, and
    NON_INTEGRAL / NON_POSITIVE when the unique extension fails those
    checks. Pins are 0-based; every pin index must be an integer (else
    TypeError) and is checked against the range before any value, and the
    ValueError for a bad pin numbers it from 1, as fan documents and the
    CLI number rays.
    """
    r = n_matrix.cols
    for idx in partial:
        if not 0 <= operator.index(idx) < r:
            raise ValueError(f"pin index {idx + 1} out of range 1..{r}")
    for idx, value in partial.items():
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"pinned value at index {idx + 1} must be a positive integer")

    # [N | 0] plus one row [e_i | d_i] per pin; a zero row keeps the column
    # count when N has no rows and nothing is pinned. In the scaled RREF a
    # pivot in the last column means no solution, fewer than r pivots more
    # than one, and r pivots the unique x_k = m[k][r] / last.
    rows = [[*row, 0] for row in n_matrix.entries]
    rows += [[int(k == i) for k in range(r)] + [partial[i]] for i in sorted(partial)]
    m, pivots, last, _ = _fraction_free_rref(rows or [[0] * (r + 1)])
    if pivots and pivots[-1] == r:
        raise InconsistentError("pinned values admit no kernel extension")
    if len(pivots) < r:
        kernel_rank = r - rational_rank(n_matrix.entries)
        raise UnderdeterminedError(
            f"kernel rank {kernel_rank} exceeds what {len(partial)} pinned coordinates determine"
        )
    if any(row[r] % last for row in m[:r]):
        raise NonIntegralError("unique kernel extension is not integral")
    x = tuple(row[r] // last for row in m[:r])
    if any(xk < 1 for xk in x):
        raise NonPositiveError("unique kernel extension has an entry below 1")
    return x


# -- exact rational elimination -------------------------------------------


def _integer_row(row) -> list[int]:
    """The row as Python ints: as they are if it is all-int, else scaled by
    the lcm of its denominators (which leaves the row space alone). A numpy
    integer becomes an int, so the elimination cannot overflow."""
    if all(isinstance(e, int) for e in row):
        return list(map(int, row))
    from fractions import Fraction

    pairs = [(int(f.numerator), int(f.denominator)) for f in map(Fraction, row)]
    scale = lcm(*(d for _, d in pairs))
    return [n * (scale // d) for n, d in pairs]


def _pivot(m, row, col, prev):
    """Fraction-free pivot on m[row][col], in place; returns the pivot.

    Every other row r becomes (pivot * r - r[col] * m[row]) / prev, exact
    when `prev` is the pivot before this one (1 at the start)."""
    top = m[row]
    piv = top[col]
    for i, other in enumerate(m):
        if i != row:
            factor = other[col]
            m[i] = [(piv * a - factor * b) // prev for a, b in zip(other, top)]
    return piv


def _fraction_free_rref(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968).

    Rows may hold ints or Fractions; see `_integer_row`. Returns (m,
    pivots, last, sign): `m` is the reduced row echelon form scaled by
    `last`, so pivot row i holds `last` in column pivots[i] and 0 in every
    other pivot column, and rows past the rank are zero. `last` is the final
    pivot (1 if there is none) and `sign` the parity of the row swaps, so a
    nonsingular square input has determinant sign * last. The pivot of each
    column is its first nonzero entry at or below the current row.

    After k pivots every entry is a minor of the input of order k or k + 1
    (Sylvester's identity), which is why each division by the previous
    pivot is exact.
    """
    m = [_integer_row(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = sign = 1
    for col in range(ncols):
        rank = len(pivots)
        sel = next((i for i in range(rank, nrows) if m[i][col]), None)
        if sel is None:
            continue
        if sel != rank:
            m[rank], m[sel] = m[sel], m[rank]
            sign = -sign
        prev = _pivot(m, rank, col, prev)
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return m, pivots, prev, sign


def rational_solve(rows, rhs):
    """Solve A y = b over the rationals.

    Returns ("unique", y), ("inconsistent", None) or ("underdetermined",
    None). `rows` is a list of coefficient rows; an empty system is
    uniquely solved by [].
    """
    from fractions import Fraction

    ncols = len(rows[0]) if rows else 0
    m, pivots, last, _ = _fraction_free_rref(
        [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    )
    if pivots and pivots[-1] == ncols:
        return "inconsistent", None
    if len(pivots) < ncols:
        return "underdetermined", None
    return "unique", [Fraction(row[ncols], last) for row in m[:ncols]]


def rational_rank(rows) -> int:
    """Rank of a rational matrix."""
    return len(_fraction_free_rref(rows)[1])


def rational_nullspace(rows) -> list[list[Fraction]]:
    """Basis of the right nullspace of a rational matrix.

    One vector per free column: 1 on its own free column, 0 on the others.
    """
    from fractions import Fraction

    ncols = len(rows[0]) if rows else 0
    m, pivots, last, _ = _fraction_free_rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = Fraction(-m[i][free], last)
        basis.append(vec)
    return basis


def _lex_min(rows, rhs, objectives):
    """Lexicographic minimum of the objectives over {y >= 0 : A y = b}.

    Returns the minimiser as (numerators, den), y_j = numerators[j] / den
    with integer numerators and den >= 1, or None if the set is empty; each
    objective must be bounded below on it (with none, some feasible point).
    Two-phase simplex with Bland's rule, which cannot cycle, on an integer
    tableau: `den` (the basis determinant, positive since every pivot is)
    times the true one, updated by `_pivot`. `den` cancels in a ratio of
    two scaled entries, so the ratio test compares ratios by
    cross-multiplying; ties go to the lowest basic variable. Phase one is
    the first objective, the sum of one artificial variable per row; their
    columns are not stored, as none re-enters the basis. After each
    objective the nonbasic columns of positive reduced cost are dropped:
    they are zero on its optimal face, where the next one is minimised.
    Past phase one that face is the feasible set, so a basic artificial
    stays zero: the ratio test takes a zero step before it could grow.
    """
    nvars = len((rows or objectives)[0])
    tab = []
    for row, b in zip(rows, rhs):
        line = _integer_row(list(row) + [b])
        tab.append([-e for e in line] if line[-1] < 0 else line)
    m = len(tab)
    tab.append([-sum(col) for col in zip(*tab)] or [0] * (nvars + 1))
    tab.extend(_integer_row(c) + [0] for c in objectives)
    basis = list(range(nvars, nvars + m))
    live = [True] * nvars
    den = 1
    for z in range(m, len(tab)):
        while True:
            col = next((j for j in range(nvars) if live[j] and tab[z][j] < 0), None)
            if col is None:
                break
            row = None
            for i in range(m):
                a = tab[i][col]
                if a <= 0:
                    continue
                if row is None:
                    row = i
                    continue
                # b_i / a against b_row / a_row, both denominators positive.
                left, right = tab[i][-1] * tab[row][col], tab[row][-1] * a
                if left < right or (left == right and basis[i] < basis[row]):
                    row = i
            den = _pivot(tab, row, col, den)
            basis[row] = col
        if z == m and tab[m][-1]:
            return None
        live = [alive and tab[z][j] <= 0 for j, alive in enumerate(live)]
    numerators = [0] * nvars
    for i, j in enumerate(basis):
        if j < nvars:
            numerators[j] = tab[i][-1]
    return tuple(numerators), den


def _meet_only_in(dim: int, a_gens, b_gens, common) -> bool:
    """Whether the cones on independent vectors a_gens and b_gens meet only
    in the cone on `common`, a set of vectors listed in both. Coefficients
    are unique, so iff no common point has a positive coefficient off
    `common`: iff the LP alpha, beta >= 0, sum alpha_i u_i == sum beta_j v_j
    with the coefficients off `common` summing to 1 is infeasible. Its Farkas
    alternative is the separation lemma (Cox-Little-Schenck, Toric
    Varieties, §1.2). Positive scaling or reordering keeps the answer."""
    gens = [*a_gens, *b_gens]
    signs = [1] * len(a_gens) + [-1] * len(b_gens)
    rows = [[sign * g[i] for sign, g in zip(signs, gens)] for i in range(dim)]
    rows.append([int(g not in common) for g in gens])
    return _lex_min(rows, [0] * dim + [1], []) is None


def primitivize(vector) -> LatticeVector:
    """Divide an integer vector by the gcd of its entries."""
    vec = tuple(map(operator.index, vector))
    if not any(vec):
        raise ZeroVectorError("zero vector has no primitive generator")
    g = gcd(*vec)
    return tuple(e // g for e in vec)


def clear_denominators(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same ray); an
    empty or zero vector comes back unchanged."""
    ints = _integer_row(vec)
    g = gcd(*ints) or 1
    return tuple(e // g for e in ints)


# `perfbench/tracing.py` still looks these two names up here. The forwarder
# goes once ROADMAP item 6 re-points `TRACED` at `smith`.
def __getattr__(name: str):
    if name not in ("smith_normal_form", "kernel_basis"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import smith

    value = globals()[name] = getattr(smith, name)
    return value
