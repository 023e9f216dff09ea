"""Independent oracles used to cross-check package computations.

These deliberately avoid the code paths they check: membership is decided
through resultants (Sylvester determinants) rather than gcds, kernels and
positive vectors through exhaustive search, and root collisions through
floating-point root finding with a separation margin. The enumerations
that the library replaced by an exact LP (cone intersections by extreme
rays, the positive kernel vector by basic solutions) are kept here
verbatim as cross-checks, as are the angular completeness test for plane
fans and the quadratic definition of maximal faces. Both earlier routes
to the jump sums of `replay` are kept too: the enumeration of jump
sequences and the subset sum over jump lengths, which the library
replaced by the lemma that t distinct positive lengths sum to exactly the
integers s >= t(t+1)/2. So are the primitive collections and the
SIMPLICIALITY witnesses computed over the materialised face lattice,
which the library replaced by reasoning on the maximal cones alone, and
the fan isomorphism search over every ordered tuple of target rays with
its pairwise classification, which the library replaced by rejection on
invariants and a search over rays of matching profile. The INTERSECTION
loop and smoothness test that build a `SimplicialCone` for every cone
they look at are kept as well; the library now reads the generators
through the index sets instead. So is the recursive subfan enumeration,
which decides every non-singleton face in or out in one call per face and
tests every subset of it; the library replaced it by one capped pass that
adds each face, smallest first, to the ideals holding its facets. The
pseudomanifold completeness test with its walk over the adjacency graph of
the maximal cones is kept too; the library replaced it by the ridge counts
alone. The library has no determinant: unimodularity checks use
`integer_determinant` here, a plain elimination over `Fraction`. The exact
simplex as it was when its ratio test compared `Fraction`s and it returned
a `Fraction` per variable is kept too (`fraction_lex_min`), with the
positive kernel vector and the degree completion built on `Fraction`s
(`fraction_positive_kernel_vector`, `fraction_complete_degrees`); the
library now compares ratios by cross-multiplication and stays in integers.
The Gaussian rational as a pair of `Fraction`s is kept too
(`FractionGaussianRational`, with its constructor and its wire-form parser
and printer); the library now stores (a + b*i)/d as a reduced integer
triple. So is the exact Euclidean gcd fold (`euclid_multi_gcd`, with
`euclid_gcd`, `poly_monic` and `poly_scale`); the library now takes every
gcd modulo as many primes as it needs, combined by the CRT.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm

from torickit._record import record
from torickit.gaussian import (
    _FRACTION_STRING,
    ONE,
    POLY_ZERO,
    ZERO,
    GaussianRational,
    Poly,
    gaussian,
    poly_degree,
    poly_divmod,
)
from torickit.cones import (
    SimplicialCone,
    cone_contains,
    halfspace_description,
    intersection_is_common_face,
    is_smooth_cone,
)
from torickit.errors import (
    DimensionMismatchError,
    InconsistentError,
    NonIntegralError,
    NonPositiveError,
    UnderdeterminedError,
)
from torickit.census import _integer_inverse, _scaled_inverse
from torickit.fans import Fan, Violation, _maximal
from torickit.lattice import (
    IntegerMatrix,
    _fraction_free_rref,
    _integer_row,
    _pivot,
    clear_denominators,
    rational_nullspace,
    rational_rank,
    rational_solve,
)
from torickit.smith import kernel_basis, smith_normal_form
from torickit.stability import ReplayResult


@record
class FractionGaussianRational:
    real: Fraction
    imag: Fraction

    def __post_init__(self):
        if not isinstance(self.real, Fraction) or not isinstance(self.imag, Fraction):
            raise TypeError("components must be fractions")

    def __add__(self, other: "FractionGaussianRational") -> "FractionGaussianRational":
        return FractionGaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "FractionGaussianRational") -> "FractionGaussianRational":
        return FractionGaussianRational(self.real - other.real, self.imag - other.imag)

    def __neg__(self) -> "FractionGaussianRational":
        return FractionGaussianRational(-self.real, -self.imag)

    def __mul__(self, other: "FractionGaussianRational") -> "FractionGaussianRational":
        return FractionGaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __truediv__(self, other: "FractionGaussianRational") -> "FractionGaussianRational":
        norm = other.real * other.real + other.imag * other.imag
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionGaussianRational(
            (self.real * other.real + self.imag * other.imag) / norm,
            (self.imag * other.real - self.real * other.imag) / norm,
        )

    @property
    def is_zero(self) -> bool:
        return self.real == 0 and self.imag == 0

    def abs_squared(self) -> Fraction:
        return self.real * self.real + self.imag * self.imag

    def __str__(self) -> str:
        if self.imag == 0:
            return str(self.real)
        if self.real == 0:
            return f"{self.imag}i"
        sign = "+" if self.imag > 0 else "-"
        return f"{self.real}{sign}{abs(self.imag)}i"


def fraction_gaussian(real, imag=0) -> FractionGaussianRational:
    """Build a Gaussian rational from ints, fractions or fraction strings."""
    return FractionGaussianRational(Fraction(real), Fraction(imag))


def fraction_gaussian_from_pair(pair) -> FractionGaussianRational:
    """Parse the wire form: a two-element [real, imaginary] fraction-string
    pair. Each part must be a string like "3", "-3/4" or "007"; any other
    form, a JSON number included, raises ValueError."""
    for part in pair:
        if not (isinstance(part, str) and _FRACTION_STRING.fullmatch(part)):
            raise ValueError(f"not a fraction string: {part!r}")
    real, imag = pair
    return FractionGaussianRational(Fraction(real), Fraction(imag))


def fraction_gaussian_to_pair(value: FractionGaussianRational) -> list[str]:
    return [str(value.real), str(value.imag)]


def poly_scale(a: Poly, factor: GaussianRational) -> Poly:
    if factor.is_zero:
        return POLY_ZERO
    return tuple(c * factor for c in a)


def poly_monic(p: Poly) -> Poly:
    if not p:
        return POLY_ZERO
    return poly_scale(p, ONE / p[-1])


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm.

    Remainders are renormalized to monic at every step, which keeps
    coefficient growth in check over Q(i).
    """
    a, b = poly_monic(a), poly_monic(b)
    while b:
        _, rem = poly_divmod(a, b)
        a, b = b, poly_monic(rem)
    return a


def euclid_multi_gcd(polys) -> Poly:
    """Monic gcd of the polynomials (the zero polynomial if all are zero) by
    the exact Euclidean fold in ascending index order, stopping once
    constant."""
    result = POLY_ZERO
    for p in polys:
        result = euclid_gcd(result, p)
        if poly_degree(result) == 0:
            break
    return result


def gaussian_determinant(rows) -> GaussianRational:
    n = len(rows)
    work = [list(r) for r in rows]
    det = ONE
    for col in range(n):
        pivot = next((i for i in range(col, n) if not work[i][col].is_zero), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = ONE / work[col][col]
        for i in range(col + 1, n):
            if work[i][col].is_zero:
                continue
            factor = work[i][col] * inv
            work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return det


def integer_determinant(m: IntegerMatrix) -> int:
    """Determinant of a square integer matrix by Gaussian elimination over
    Fraction, with row swaps for zero pivots."""
    assert m.rows == m.cols, "determinant needs a square matrix"
    work = [[Fraction(e) for e in row] for row in m.entries]
    det = Fraction(1)
    for col in range(m.rows):
        pivot = next((i for i in range(col, m.rows) if work[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for i in range(col + 1, m.rows):
            factor = work[i][col] / work[col][col]
            work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return int(det)


def is_unimodular(m: IntegerMatrix) -> bool:
    return m.rows == m.cols and abs(integer_determinant(m)) == 1


def sylvester_resultant(f: Poly, g: Poly, declared_degree: int) -> GaussianRational:
    """Resultant of f and g with g treated as having the declared degree.

    For monic f this equals the true resultant even when g's actual degree
    is lower (the correction factor is a power of f's leading coefficient).
    """
    n = poly_degree(f)
    m = declared_degree
    assert n >= 1 and m >= 1 and len(g) <= m + 1
    f_desc = list(reversed(f))
    g_desc = [ZERO] * (m + 1 - len(g)) + list(reversed(g))
    size = n + m
    rows = []
    for shift in range(m):
        rows.append([ZERO] * shift + f_desc + [ZERO] * (size - shift - n - 1))
    for shift in range(n):
        rows.append([ZERO] * shift + g_desc + [ZERO] * (size - shift - m - 1))
    return gaussian_determinant(rows)


def collection_has_common_root(polys: list[Poly]) -> bool:
    """Resultant-based detection of a common root of a whole collection.

    A common root of monic f1, ..., fs exists iff the resultant of f1
    against the generic combination f2 + t*f3 + ... vanishes identically
    in t; that polynomial in t has degree at most deg(f1)*(s-2), so
    vanishing at deg(f1)*(s-2)+1 integer points settles it exactly.
    """
    first, rest = polys[0], polys[1:]
    declared = max(poly_degree(p) for p in rest)
    if len(rest) == 1:
        return sylvester_resultant(first, rest[0], declared).is_zero
    t_degree = poly_degree(first) * (len(rest) - 1)
    for t_value in range(t_degree + 1):
        t = gaussian(t_value)
        combined = [ZERO] * (declared + 1)
        weight = ONE
        for p in rest:
            for k, coeff in enumerate(p):
                combined[k] = combined[k] + weight * coeff
            weight = weight * t
        while combined and combined[-1].is_zero:
            combined.pop()
        if not combined:
            continue
        if not sylvester_resultant(first, tuple(combined), declared).is_zero:
            return False
    return True


def resultant_is_member(tup, fan) -> bool:
    from torickit.fans import primitive_collections

    for collection in primitive_collections(fan):
        if collection_has_common_root([tup.polys[i] for i in sorted(collection)]):
            return False
    return True


def numeric_is_member(tup, fan, tol: float = 1e-6) -> bool:
    """Floating-point root finding with interval separation."""
    import numpy as np
    from torickit.fans import primitive_collections

    root_sets = []
    for p in tup.polys:
        coeffs = [complex(float(c.real), float(c.imag)) for c in reversed(p)]
        root_sets.append(np.roots(coeffs))
    for collection in primitive_collections(fan):
        indices = sorted(collection)
        for candidate in root_sets[indices[0]]:
            if all(
                min(abs(candidate - other) for other in root_sets[i]) < tol
                for i in indices[1:]
            ):
                return False
    return True


def brute_force_positive_vector(matrix: IntegerMatrix, bound: int):
    """Exhaustive search for a kernel vector with entries in [1, bound]."""
    for candidate in itertools.product(range(1, bound + 1), repeat=matrix.cols):
        if not any(matrix.apply(candidate)):
            return candidate
    return None


def brute_force_kernel_vectors(matrix: IntegerMatrix, bound: int):
    """All kernel vectors with entries in [-bound, bound]."""
    found = []
    for candidate in itertools.product(range(-bound, bound + 1), repeat=matrix.cols):
        if not any(matrix.apply(candidate)):
            found.append(candidate)
    return found


def extreme_rays(equalities, inequalities, dim):
    """Extreme rays of {x : Ex = 0, Lx >= 0}, or None if the set has a line.

    Works in coordinates on the subspace E x = 0: a direction spanning the
    nullspace of a rank (p-1) subset of inequality rows is extreme iff it
    satisfies all inequalities (possibly after a sign flip).
    """
    if equalities:
        sub_basis = rational_nullspace(equalities)
    else:
        sub_basis = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    p = len(sub_basis)
    if p == 0:
        return []

    reduced = [
        [sum(w[i] * b[i] for i in range(dim)) for b in sub_basis]
        for w in inequalities
    ]
    # A nontrivial common zero of every inequality is a line in the cone.
    if not reduced or rational_rank(reduced) < p:
        return None

    rays = set()
    for subset in itertools.combinations(range(len(reduced)), p - 1):
        rows = [reduced[i] for i in subset]
        null = rational_nullspace(rows) if rows else rational_nullspace([[0] * p])
        if len(null) != 1:
            continue
        direction = null[0]
        values = [sum(row[j] * direction[j] for j in range(p)) for row in reduced]
        if all(val >= 0 for val in values):
            sign = 1
        elif all(val <= 0 for val in values):
            sign = -1
        else:
            continue
        ambient = [
            sign * sum(direction[j] * sub_basis[j][i] for j in range(p))
            for i in range(dim)
        ]
        if any(ambient):
            rays.add(clear_denominators(ambient))
    return sorted(rays)


def enumerated_common_face(
    a: SimplicialCone, b: SimplicialCone, shared: SimplicialCone
) -> bool:
    """Decide a ∩ b == shared as point sets.

    Both halfspace systems are stacked and the extreme rays of the
    intersection are enumerated exactly; the intersection equals `shared`
    iff every extreme ray lies in `shared` and every generator of `shared`
    lies in both a and b.
    """
    if not (a.dim == b.dim == shared.dim):
        raise DimensionMismatchError("cones live in different ambient spaces")

    for g in shared.generators:
        if not (cone_contains(a, g) and cone_contains(b, g)):
            return False

    eq_a, ineq_a = halfspace_description(a)
    eq_b, ineq_b = halfspace_description(b)
    rays = extreme_rays(eq_a + eq_b, ineq_a + ineq_b, a.dim)
    if rays is None:
        # The intersection contains a line; a simplicial cone never does.
        return False
    return all(cone_contains(shared, ray) for ray in rays)


def enumerated_positive_kernel_vector(n_matrix: IntegerMatrix):
    """Some integer vector D with N D = 0 and every entry >= 1, or None.

    The feasible set {x : Nx = 0, x >= 1} is a pointed rational polyhedron
    (the kernel lattice is free, so there are no lines), hence nonempty iff
    it has a vertex. Vertices are enumerated as basic solutions in kernel
    coordinates; the witness is the vertex of minimal entry sum (ties
    broken lexicographically) with denominators cleared, which preserves
    both constraints.
    """
    r = n_matrix.cols
    if r == 0:
        return ()
    basis = kernel_basis(n_matrix)
    m = len(basis)
    if m == 0:
        return None

    ineq_rows = [[basis[j][k] for j in range(m)] for k in range(r)]

    best = None
    for subset in itertools.combinations(range(r), m):
        kind, y = rational_solve([ineq_rows[i] for i in subset], [1] * m)
        if kind != "unique":
            continue
        x = [sum(basis[j][k] * y[j] for j in range(m)) for k in range(r)]
        if all(xk >= 1 for xk in x):
            key = (sum(x), tuple(x))
            if best is None or key < best[0]:
                best = (key, x)
    if best is None:
        return None
    x = best[1]
    scale = lcm(*(xk.denominator for xk in x))
    return tuple(int(xk * scale) for xk in x)


def fraction_lex_min(rows, rhs, objectives):
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


def fraction_positive_kernel_vector(n_matrix: IntegerMatrix):
    """`positive_kernel_vector` on `fraction_lex_min`: the minimal-sum point
    of {x : N x = 0, x >= 1}, ties broken lexicographically, with its
    reduced denominators cleared."""
    r = n_matrix.cols
    objectives = [[1] * r] + [[int(i == j) for j in range(r)] for i in range(r)]
    y = fraction_lex_min(n_matrix.entries, [-sum(row) for row in n_matrix.entries], objectives)
    if y is None:
        return None
    x = [1 + yk for yk in y]
    scale = lcm(*(xk.denominator for xk in x))
    return tuple(int(xk * scale) for xk in x)


def fraction_complete_degrees(n_matrix: IntegerMatrix, partial: dict) -> tuple[int, ...]:
    """`complete_degrees` by one `rational_solve` and checks on the
    `Fraction` solution; pins are 0-based and assumed in range and
    positive."""
    r = n_matrix.cols
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


def enumerated_replay(rmin: int, dmin: int) -> ReplayResult:
    """Brute-force replay of the page-by-page comparison argument.

    The unknown region is seeded on the column just past d_min at and above
    the vanishing line; on page t it has propagated to the set A_t of
    positions (u, v) reachable along differentials, described by strictly
    increasing jump lengths l_1 < ... < l_t with u + sum(l_j) = d_min + 1
    and v + sum(l_j - 1) >= (2*r_min - 2)*d_min. A_t is enumerated
    literally from those inequalities inside the grid k in [0, d_min+1],
    s in [0, (2*r_min-2)*d_min + d_min + 4]; the jump-length budget
    sum(l_j) <= d_min + 1 caps the page count at O(sqrt(d_min)).

    The returned dimension is the largest diagonal untouched by every A_t
    (with the proof's one-dimension safety margin) combined with the
    column-vanishing clause for k >= d_min + 1; any divergence from the
    closed form would surface as a report mismatch, not get patched here.
    """
    if rmin < 2:
        raise ValueError("r_min must be at least 2")
    if dmin < 1:
        raise ValueError("d_min must be at least 1")

    threshold = (2 * rmin - 2) * dmin
    k_range = range(0, dmin + 2)
    s_range = range(0, threshold + dmin + 5)

    page_minima = []
    t = 1
    while t * (t + 1) // 2 <= dmin + 1:
        jump_sums = {
            sum(seq)
            for seq in itertools.combinations(range(1, dmin + 2), t)
            if sum(seq) <= dmin + 1
        }
        best = None
        for k in k_range:
            total = dmin + 1 - k
            if total not in jump_sums:
                continue
            for s in s_range:
                if s + total - t >= threshold:
                    diagonal = s - k
                    if best is None or diagonal < best:
                        best = diagonal
        if best is not None:
            page_minima.append((t, best))
        t += 1

    min_unknown = min(a for _, a in page_minima)
    region_dim = min_unknown - 2
    column_clause = threshold - 1 - (dmin + 1)
    return ReplayResult(
        stable_dim=min(region_dim, column_clause),
        min_unknown_diagonal=min_unknown,
        page_minima=tuple(page_minima),
    )


def subset_sum_replay(rmin: int, dmin: int) -> ReplayResult:
    """Replay of the page-by-page comparison argument.

    The unknown region is seeded on the column just past d_min at and above
    the vanishing line; on page t it has propagated to the set A_t of
    positions (u, v) reachable along differentials, described by strictly
    increasing jump lengths l_1 < ... < l_t with u + sum(l_j) = d_min + 1
    and v + sum(l_j - 1) >= (2*r_min - 2)*d_min. A_t is read off literally
    from those inequalities inside the grid k in [0, d_min+1],
    s in [0, (2*r_min-2)*d_min + d_min + 4]; the jump-length budget
    sum(l_j) <= d_min + 1 caps the page count at O(sqrt(d_min)). The
    reachable (page, jump sum) pairs come from one subset sum over the
    lengths 1..d_min+1; the set holds O(d_min^1.5) pairs and is rebuilt
    once per length, so the replay costs O(d_min^2.5) set operations
    (about 0.5 s at d_min = 400 on a 2 vCPU machine). The diagonal s - k
    grows with s, so each reachable column k contributes only its least
    admissible row s, which is read off directly.

    The returned dimension is the largest diagonal untouched by every A_t
    (with the proof's one-dimension safety margin) combined with the
    column-vanishing clause for k >= d_min + 1; any divergence from the
    closed form would surface as a report mismatch, not get patched here.
    """
    if rmin < 2:
        raise ValueError("r_min must be at least 2")
    if dmin < 1:
        raise ValueError("d_min must be at least 1")

    threshold = (2 * rmin - 2) * dmin
    budget = dmin + 1
    reachable = {(0, 0)}
    for length in range(1, budget + 1):
        reachable |= {(t + 1, s + length) for t, s in reachable if s + length <= budget}

    page_minima = []
    t = 1
    while t * (t + 1) // 2 <= budget:
        # The least row of column k in A_t; t <= budget keeps it in the grid.
        diagonals = [
            max(0, threshold - (budget - k) + t) - k
            for k in range(budget + 1)
            if (t, budget - k) in reachable
        ]
        if diagonals:
            page_minima.append((t, min(diagonals)))
        t += 1

    min_unknown = min(a for _, a in page_minima)
    region_dim = min_unknown - 2
    column_clause = threshold - 1 - (dmin + 1)
    return ReplayResult(
        stable_dim=min(region_dim, column_clause),
        min_unknown_diagonal=min_unknown,
        page_minima=tuple(page_minima),
    )


def closure(fan: Fan) -> frozenset:
    """Every face of the fan: the empty set and each subset of a cone."""
    faces = {frozenset()}
    for cone in fan.cones:
        for size in range(1, len(cone) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(sorted(cone), size))
    return frozenset(faces)


def face_lattice_primitive_collections(fan: Fan) -> frozenset:
    """Minimal non-faces of the complex.

    Every minimal non-face is a face plus one extra vertex, so candidates
    are generated that way instead of scanning all subsets.
    """
    faces = closure(fan)
    r = fan.ray_count
    found = set()
    for face in faces:
        for j in range(r):
            if j in face:
                continue
            candidate = face | {j}
            if candidate in faces or candidate in found:
                continue
            if all(
                frozenset(sub) in faces
                for sub in itertools.combinations(sorted(candidate), len(candidate) - 1)
            ):
                found.add(candidate)
    return frozenset(found)


def face_lattice_simpliciality(fan: Fan) -> list:
    """Every face that no independent maximal face contains and that is
    maximal or has dependent generators, by a loop over every face.
    `validate_fan` reports the inclusion-maximal ones as its SIMPLICIALITY
    witnesses: exactly the maximal faces with dependent generators."""
    faces = closure(fan)

    def independent(face):
        return rational_rank([fan.generators[i] for i in sorted(face)]) == len(face)

    maximal = brute_force_maximal_faces(fan)
    spanning = [m for m in maximal if independent(m)]
    witnesses = []
    for face in faces:
        if not face or any(face <= m for m in spanning):
            continue
        if face in maximal or not independent(face):
            witnesses.append((tuple(sorted(face)),))
    return sorted(witnesses)


def cone_object_intersection_violations(fan: Fan) -> list:
    """The INTERSECTION violations of `validate_fan`, in pair order, from a
    `SimplicialCone` for each cone of every pair of maximal cones and for
    their common face. The fan must pass every earlier check of
    `validate_fan`."""
    violations = []
    for a, b in itertools.combinations(fan.maximal_faces(), 2):
        shared = a & b
        if not intersection_is_common_face(
            SimplicialCone.from_generators(fan.dim, [fan.generators[i] for i in sorted(a)]),
            SimplicialCone.from_generators(fan.dim, [fan.generators[i] for i in sorted(b)]),
            SimplicialCone.from_generators(fan.dim, [fan.generators[i] for i in sorted(shared)]),
        ):
            violations.append(
                Violation("INTERSECTION", (tuple(sorted(a)), tuple(sorted(b))))
            )
    return violations


def cone_object_is_smooth(fan: Fan) -> bool:
    """`is_smooth` of a valid fan from a `SimplicialCone` for each maximal
    cone."""
    return all(
        is_smooth_cone(
            SimplicialCone.from_generators(fan.dim, [fan.generators[i] for i in sorted(face)])
        )
        for face in fan.maximal_faces()
    )


def brute_force_maximal_faces(fan: Fan):
    """Nonempty faces contained in no other face, by comparing every pair."""
    faces = [f for f in closure(fan) if f]
    maximal = [f for f in faces if not any(f < g for g in faces)]
    return sorted(maximal, key=lambda f: (len(f), sorted(f)))


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _angular_order(vectors) -> list[int]:
    """Indices sorted counterclockwise starting from the positive x-axis."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def compare(i, j):
        u, v = vectors[i], vectors[j]
        if half(u) != half(v):
            return -1 if half(u) < half(v) else 1
        c = _cross(u, v)
        if c != 0:
            return -1 if c > 0 else 1
        return -1 if i < j else (0 if i == j else 1)

    return sorted(range(len(vectors)), key=functools.cmp_to_key(compare))


def angular_is_complete(fan: Fan) -> bool:
    """Completeness of a plane fan by the exact angular test: consecutive
    rays in angular order must bound a 2-cone of the fan and each sector
    must be strictly less than a half-plane."""
    assert fan.dim == 2
    if fan.ray_count < 3:
        return False
    order = _angular_order(fan.generators)
    faces = closure(fan)
    for a, b in zip(order, order[1:] + order[:1]):
        if _cross(fan.generators[a], fan.generators[b]) <= 0:
            return False
        if frozenset({a, b}) not in faces:
            return False
    return True


def pseudomanifold_is_complete(fan: Fan) -> bool:
    """Whether the support of the fan is all of R^n.

    The fan must be valid (see `validate_fan`); the answer on an invalid fan
    is unspecified. For n >= 1 this is the pseudomanifold criterion: pure
    top dimension, every ridge in exactly two top cones, and a connected
    top-cone adjacency graph. The zero-dimensional fan is complete.
    """
    n = fan.dim
    if n == 0:
        return True
    maximal = fan.maximal_faces()
    if not maximal or any(len(face) != n for face in maximal):
        return False
    ridge_count: dict[frozenset, list[int]] = {}
    for idx, face in enumerate(maximal):
        for sub in itertools.combinations(sorted(face), n - 1):
            ridge_count.setdefault(frozenset(sub), []).append(idx)
    if any(len(owners) != 2 for owners in ridge_count.values()):
        return False
    adjacency = {i: set() for i in range(len(maximal))}
    for owners in ridge_count.values():
        a, b = owners
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(maximal)


def permutation_search_isomorphism(a: Fan, b: Fan):
    """A unimodular matrix carrying fan a onto fan b, or None.

    The generator lattices are first reduced to coordinates on the
    saturation of their spans (so rank-deficient fans are handled), then
    a frame of independent rays of a is matched against every ordered
    tuple of rays of b; each candidate linear map is accepted iff it is
    integral, maps the ray set bijectively and carries the cones of a
    exactly onto the cones of b.
    """
    if a.dim != b.dim or a.ray_count != b.ray_count:
        return None
    r = a.ray_count
    if r == 0:
        return IntegerMatrix.identity(a.dim)

    snf_a = smith_normal_form(a.generator_matrix())
    snf_b = smith_normal_form(b.generator_matrix())
    rank = snf_a.rank
    # The rays span sublattices with these elementary divisors in the
    # saturation coordinates below, and a unimodular map preserves them.
    # Once they agree, an integral W that maps the rays of a bijectively
    # onto those of b carries one sublattice onto the other, so
    # |det W| = 1 follows and needs no test per candidate.
    if snf_a.elementary_divisors != snf_b.elementary_divisors:
        return None

    # Coordinates of every generator on the saturation of its span: the
    # first `rank` entries of U g (the rest vanish because UGV = S).
    coords_a = [snf_a.U.apply(g)[:rank] for g in a.generators]
    coords_b = [snf_b.U.apply(g)[:rank] for g in b.generators]

    lookup = {}
    for idx, vec in enumerate(coords_b):
        if vec in lookup:
            return None
        lookup[vec] = idx

    # The first independent rays of a: the pivot columns of its coordinates.
    frame = _fraction_free_rref([[v[k] for v in coords_a] for k in range(rank)])[1]

    # W F = T for the frame matrix F (columns coords_a[frame]) and each
    # target matrix T, so W = T (last F^-1) / last with F inverted once.
    last, scaled_inverse = _scaled_inverse(
        [[coords_a[i][k] for i in frame] for k in range(rank)]
    )
    for target in itertools.permutations(range(r), rank):
        product = [
            [
                sum(coords_b[t][k] * scaled_inverse[c][j] for c, t in enumerate(target))
                for j in range(rank)
            ]
            for k in range(rank)
        ]
        if any(x % last for row in product for x in row):
            continue
        w = IntegerMatrix.from_rows([[x // last for x in row] for row in product])
        permutation = [lookup.get(w.apply(v)) for v in coords_a]
        if None in permutation or len(set(permutation)) != r:
            continue
        mapped = frozenset(frozenset(permutation[i] for i in cone) for cone in a.cones)
        if mapped == b.cones:
            n = a.dim
            block = [
                [
                    w.entries[i][j] if i < rank and j < rank else (1 if i == j else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            return _integer_inverse(snf_b.U) @ IntegerMatrix.from_rows(block) @ snf_a.U
    return None


def pairwise_isomorphism_classes(fans: list[Fan]) -> list[list[int]]:
    """Group fans into GL(n,Z)-equivalence classes (lists of input indices)."""
    classes: list[list[int]] = []
    for idx, fan in enumerate(fans):
        for group in classes:
            if permutation_search_isomorphism(fans[group[0]], fan) is not None:
                group.append(idx)
                break
        else:
            classes.append([idx])
    return classes


def _subsets(cone, smallest: int):
    """The subsets of a cone with at least `smallest` elements."""
    for size in range(smallest, len(cone) + 1):
        for sub in itertools.combinations(sorted(cone), size):
            yield frozenset(sub)


def recursive_subfans(fan: Fan) -> list[Fan]:
    """All proper subfans with the same rays.

    Subfans correspond to proper order ideals of the poset of non-singleton
    faces (downward-closed subfamilies containing every singleton); any
    such subfamily of a valid fan automatically satisfies the intersection
    axiom.
    """
    non_singleton = sorted(
        {face for cone in fan.cones for face in _subsets(cone, 2)},
        key=lambda f: (len(f), sorted(f)),
    )
    ideals: list[frozenset] = []

    def extend(pos: int, chosen: set):
        if pos == len(non_singleton):
            ideals.append(frozenset(chosen))
            return
        face = non_singleton[pos]
        extend(pos + 1, chosen)
        if all(sub in chosen for sub in _subsets(face, 2) if sub != face):
            chosen.add(face)
            extend(pos + 1, chosen)
            chosen.remove(face)

    extend(0, set())
    full = frozenset(non_singleton)
    rays = [frozenset({k}) for k in range(fan.ray_count)]
    # Every subfan has the same faces of size <= 1, so the ideal alone orders them.
    ideals = sorted(
        (ideal for ideal in ideals if ideal != full),
        key=lambda ideal: sorted((len(face), sorted(face)) for face in ideal),
    )
    return [Fan(fan.dim, fan.generators, _maximal([*ideal, *rays])) for ideal in ideals]
