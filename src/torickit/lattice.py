"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision integers or `fractions.Fraction`;
no floating point is used anywhere. All rational elimination (solving,
rank, nullspace and determinant) goes through one fraction-free
Gauss-Jordan core, `_fraction_free_rref`, which works on integer rows only
and divides exactly; rows holding fractions are scaled to integers first.
The exact simplex `_lex_min` pivots with the same step, `_pivot`.
Smith normal form reduces one integer block, [A | I] over I, whose row
and column operations carry U and V along with S.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._record import record
from .errors import (
    DimensionMismatchError,
    InconsistentError,
    NonIntegralError,
    NonPositiveError,
    UnderdeterminedError,
)

# A rational vector is just a tuple of exact fractions; Fraction keeps itself
# in canonical reduced form with a nonzero denominator.
RationalVector = tuple[Fraction, ...]


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
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, cols) -> "IntegerMatrix":
        cols = [tuple(int(e) for e in c) for c in cols]
        if not cols:
            return cls(0, 0, ())
        nrows = len(cols[0])
        return cls.from_rows(tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.from_rows(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.cols))

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

    def determinant(self) -> int:
        """Exact determinant, from the final pivot of the elimination core."""
        if self.rows != self.cols:
            raise DimensionMismatchError("determinant needs a square matrix")
        _, pivots, last, sign = _fraction_free_rref(self.entries)
        return sign * last if len(pivots) == self.rows else 0

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.determinant()) == 1

    def rank(self) -> int:
        return rational_rank(self.entries)

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@record
class SmithDecomposition:
    """Unimodular U, V and diagonal S with U @ A @ V == S.

    The diagonal entries d1 | d2 | ... form the elementary-divisor chain;
    nonzero ones are positive and zeros trail.
    """

    U: IntegerMatrix
    S: IntegerMatrix
    V: IntegerMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.S.diagonal()

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def elementary_divisors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)


def smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    """Classical Smith normal form by row/column reduction of one block.

    The block is the rows [A | I_n] with I_r stacked below their first r
    columns. Row operations act on the top rows, [S | U], and column
    operations on the first r columns, S over V, so U @ A @ V == S holds
    exactly throughout. Pivot choice is deterministic: the nonzero entry of
    S of minimal absolute value in the working block, ties broken by lowest
    row then lowest column index.
    """
    n, r = a.rows, a.cols
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.entries)]
    m += [[int(i == j) for j in range(r)] for i in range(r)]

    t = 0
    limit = min(n, r)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, r):
                e = m[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
        if pivot is None:
            break

        pi, pj = pivot
        if pi != t:
            m[pi], m[t] = m[t], m[pi]
        if pj != t:
            for row in m:
                row[pj], row[t] = row[t], row[pj]
        if m[t][t] < 0:
            m[t] = [-e for e in m[t]]

        p = m[t][t]
        clean = True
        for i in range(t + 1, n):
            if m[i][t] != 0:
                q = m[i][t] // p
                if q:
                    m[i] = [e - q * f for e, f in zip(m[i], m[t])]
                if m[i][t] != 0:
                    clean = False
        for j in range(t + 1, r):
            if m[t][j] != 0:
                q = m[t][j] // p
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                if m[t][j] != 0:
                    clean = False
        if not clean:
            # Some remainder smaller than the pivot survives; reselect.
            continue

        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, r):
                if m[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[t] = [e + f for e, f in zip(m[t], m[offender])]
            continue
        t += 1

    return SmithDecomposition(
        U=IntegerMatrix.from_rows([row[r:] for row in m[:n]]),
        S=IntegerMatrix(n, r, tuple(tuple(row[:r]) for row in m[:n])),
        V=IntegerMatrix.from_rows(m[n:]),
    )


def spans_lattice(generators) -> bool:
    """True iff the integer span of the given vectors is the full lattice.

    Equivalent to the generator matrix having rank n with all elementary
    divisors equal to 1.
    """
    vectors = [tuple(int(e) for e in g) for g in generators]
    if not vectors:
        return False
    n = len(vectors[0])
    if any(len(vec) != n for vec in vectors):
        raise DimensionMismatchError("generators must share one ambient dimension")
    if n == 0:
        return True
    snf = smith_normal_form(IntegerMatrix.from_columns(vectors))
    divisors = snf.elementary_divisors
    return len(divisors) == n and all(d == 1 for d in divisors)


def kernel_basis(n_matrix: IntegerMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel lattice {v : N v = 0}.

    With U N V = S, the columns of V beyond the rank of S are killed by N,
    and because V is unimodular they form a basis of the full kernel
    lattice (every integer kernel vector is an integer combination).
    """
    snf = smith_normal_form(n_matrix)
    rank = snf.rank
    return [snf.V.column(j) for j in range(rank, n_matrix.cols)]


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
    y = _lex_min(n_matrix.entries, [-sum(row) for row in n_matrix.entries], objectives)
    if y is None:
        return None
    x = [1 + yk for yk in y]
    scale = lcm(*(xk.denominator for xk in x))
    return tuple(int(xk * scale) for xk in x)


def complete_degrees(n_matrix: IntegerMatrix, partial: dict) -> tuple[int, ...]:
    """Unique positive integer kernel vector extending a partial assignment.

    Raises UNDERDETERMINED if the pinned coordinates leave more than one
    rational kernel extension, INCONSISTENT if they leave none, and
    NON_INTEGRAL / NON_POSITIVE when the unique extension fails those
    checks.
    """
    r = n_matrix.cols
    for idx, value in partial.items():
        if not 0 <= idx < r:
            raise ValueError(f"index {idx} out of range for {r} coordinates")
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"pinned value at index {idx} must be a positive integer")

    # N x = 0 plus one unit row per pin; a zero row keeps the column count
    # when N has no rows and nothing is pinned.
    rows = [list(row) for row in n_matrix.entries]
    rows += [[int(k == i) for k in range(r)] for i in sorted(partial)]
    rhs = [0] * n_matrix.rows + [partial[i] for i in sorted(partial)]
    kind, x = rational_solve(rows or [[0] * r], rhs or [0])
    if kind == "inconsistent":
        raise InconsistentError("pinned values admit no kernel extension")
    if kind == "underdetermined":
        m = r - rational_rank(n_matrix.entries)
        raise UnderdeterminedError(
            f"kernel rank {m} exceeds what {len(partial)} pinned coordinates determine"
        )
    if any(xk.denominator != 1 for xk in x):
        raise NonIntegralError("unique kernel extension is not integral")
    if any(xk < 1 for xk in x):
        raise NonPositiveError("unique kernel extension has an entry below 1")
    return tuple(int(xk) for xk in x)


# -- exact rational elimination -------------------------------------------


def _integer_row(row) -> list[int]:
    """The row as integers: unchanged if it is all-int, else scaled by the
    lcm of its denominators (which leaves the row space alone)."""
    if all(isinstance(e, int) for e in row):
        return list(row)
    fractions = [Fraction(e) for e in row]
    scale = lcm(*(f.denominator for f in fractions))
    return [f.numerator * (scale // f.denominator) for f in fractions]


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

    Returns the minimiser as a tuple of Fractions, or None if the set is
    empty; each objective must be bounded below on it (with none, some
    feasible point). Two-phase simplex with Bland's rule, which cannot
    cycle, on an integer tableau: `den` (the basis determinant, positive
    since every pivot is) times the true one, updated by `_pivot`. Phase
    one is the first objective, the sum of one artificial variable per row;
    their columns are not stored, as none re-enters the basis. After each
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
            blocking = [i for i in range(m) if tab[i][col] > 0]
            row = min(blocking, key=lambda i: (Fraction(tab[i][-1], tab[i][col]), basis[i]))
            den = _pivot(tab, row, col, den)
            basis[row] = col
        if z == m and tab[m][-1]:
            return None
        live = [alive and tab[z][j] <= 0 for j, alive in enumerate(live)]
    value = {j: Fraction(tab[i][-1], den) for i, j in enumerate(basis)}
    return tuple(value.get(j, Fraction(0)) for j in range(nvars))


def clear_denominators(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same ray)."""
    fractions = [Fraction(e) for e in vec]
    scale = lcm(*(f.denominator for f in fractions)) if fractions else 1
    ints = [int(f * scale) for f in fractions]
    g = gcd(*ints) if any(ints) else 1
    if g > 1:
        ints = [e // g for e in ints]
    return tuple(ints)
