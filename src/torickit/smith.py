"""Smith normal forms over the integers.

One Smith reduction, `_smith_reduce`, runs on [A | I] over I for
`smith_normal_form`, carrying U and V along with S, and on A alone for
`_elementary_divisors`. The Z-basis test `_extends_to_basis`, which the
smoothness checks of `fans` and `cones` call on plain vector lists, is one
divisor reduction. The Cox data, smoothness and `subfans` run this module;
`holcheck` and `stabilize` never do.
"""

from __future__ import annotations

from ._record import record
from .lattice import IntegerMatrix


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
    """Classical Smith normal form: `_smith_reduce` on the rows [A | I_n]
    with I_r stacked below their first r columns, whose row operations build
    U beside S and column operations V below it, so U @ A @ V == S."""
    n, r = a.rows, a.cols
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.entries)]
    m += [[int(i == j) for j in range(r)] for i in range(r)]
    _smith_reduce(m, n, r)
    return SmithDecomposition(
        U=IntegerMatrix.from_rows([row[r:] for row in m[:n]]),
        S=IntegerMatrix(n, r, tuple(tuple(row[:r]) for row in m[:n])),
        V=IntegerMatrix.from_rows(m[n:]),
    )


def _elementary_divisors(a: IntegerMatrix) -> tuple[int, ...]:
    """The elementary divisors of A as `smith_normal_form` finds them, with
    no U or V built: their entries can grow far past those of S."""
    return _smith_reduce([list(row) for row in a.entries], a.rows, a.cols)


def _smith_reduce(m, n: int, r: int) -> tuple[int, ...]:
    """Reduce the top-left n x r block of the rows m to Smith form in place;
    return its elementary divisors. Row operations act on the first n rows
    in full and column operations on the first r columns of every row, so
    attached blocks follow. The pivot is the working block's nonzero entry
    of least absolute value, ties to the lowest row, then lowest column."""
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
    return tuple(m[i][i] for i in range(t))


def _extends_to_basis(vectors) -> bool:
    """Whether the vectors extend to a Z-basis of the lattice: the matrix
    with them as columns has one elementary divisor per column, all 1."""
    return _elementary_divisors(IntegerMatrix.from_columns(vectors)) == (1,) * len(vectors)


def kernel_basis(n_matrix: IntegerMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel lattice {v : N v = 0}.

    With U N V = S, the columns of V beyond the rank of S are killed by N,
    and because V is unimodular they form a basis of the full kernel
    lattice (every integer kernel vector is an integer combination).
    """
    snf = smith_normal_form(n_matrix)
    rank = snf.rank
    return [snf.V.column(j) for j in range(rank, n_matrix.cols)]
