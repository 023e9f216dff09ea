import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    brute_force_kernel_vectors,
    brute_force_positive_vector,
    enumerated_positive_kernel_vector,
    fraction_complete_degrees,
    fraction_lex_min,
    fraction_positive_kernel_vector,
    is_unimodular,
)
import torickit.fans
import torickit.lattice
from torickit.catalog import c2_fan, cp_fan, hirzebruch_fan, load_catalog
from torickit.cox import _complete_degrees as complete_degrees
from torickit.cox import cox_report, positive_kernel_vector
from torickit.errors import (
    InconsistentError,
    NonIntegralError,
    NonPositiveError,
    UnderdeterminedError,
)
from torickit.census import _integer_inverse
from torickit.fans import Fan, is_smooth
from torickit.lattice import (
    IntegerMatrix,
    _fraction_free_rref,
    _lex_min,
    clear_denominators,
    primitivize,
    rational_nullspace,
    rational_rank,
    rational_solve,
)
from torickit.smith import _elementary_divisors, kernel_basis, smith_normal_form


def hirzebruch_matrix(k):
    return IntegerMatrix.from_rows([[1, 0, -1, 0], [0, 1, k, -1]])


def cp_matrix(n):
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    cols.append([-1] * n)
    return IntegerMatrix.from_columns(cols)


def check_decomposition(matrix, snf):
    assert (snf.U @ matrix @ snf.V).entries == snf.S.entries
    assert is_unimodular(snf.U)
    assert is_unimodular(snf.V)
    assert all(e == 0 for i, row in enumerate(snf.S.entries) for j, e in enumerate(row) if i != j)
    diag = snf.S.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0


def in_lattice(basis, vector):
    """Is `vector` an integer combination of the basis vectors?"""
    if not basis:
        return not any(vector)
    rows = [[Fraction(b[i]) for b in basis] for i in range(len(vector))]
    kind, coeffs = rational_solve(rows, [Fraction(v) for v in vector])
    return kind == "unique" and all(c.denominator == 1 for c in coeffs)


class TestSmithNormalForm:
    def test_identity(self):
        eye = IntegerMatrix.identity(2)
        snf = smith_normal_form(eye)
        assert snf.S.entries == eye.entries
        assert snf.U.entries == eye.entries
        assert snf.V.entries == eye.entries

    def test_diag_2_3(self):
        m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        snf = smith_normal_form(m)
        assert snf.diagonal == (1, 6)
        check_decomposition(m, snf)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_hirzebruch_divisors(self, k):
        m = hirzebruch_matrix(k)
        assert smith_normal_form(m).elementary_divisors == (1, 1)
        # Independent check: the gcd of all 2x2 minors must be 1.
        minors = [
            abs(m.entries[0][a] * m.entries[1][b] - m.entries[0][b] * m.entries[1][a])
            for a, b in itertools.combinations(range(4), 2)
        ]
        assert gcd(*minors) == 1

    def test_non_square_and_zero(self):
        for rows in ([[0, 0, 0]], [[4, 6], [10, 14], [2, 2]], [[0]]):
            m = IntegerMatrix.from_rows(rows)
            check_decomposition(m, smith_normal_form(m))

    def test_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(150):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
            )
            check_decomposition(m, smith_normal_form(m))


def spans_lattice(generators) -> bool:
    """The span condition as `cox_report` decides it from its elementary divisors."""
    return cox_report(Fan.from_maximal(generators, [])).condition_span


class TestSpansLattice:
    def test_standard_basis(self):
        assert spans_lattice([(1, 0), (0, 1)])

    def test_index_two_sublattice(self):
        assert not spans_lattice([(2, 0), (0, 1)])

    def test_hirzebruch_rays(self):
        assert spans_lattice([(1, 0), (0, 1), (-1, 1), (0, -1)])


class TestKernelBasis:
    def test_c2_trivial(self):
        assert kernel_basis(IntegerMatrix.identity(2)) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_lattice(self, k):
        basis = kernel_basis(hirzebruch_matrix(k))
        assert len(basis) == 2
        expected = [(1, 0, 1, k), (0, 1, 0, 1)]
        for vec in expected:
            assert in_lattice(basis, vec)
        for vec in basis:
            assert in_lattice(expected, vec)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cp_rank_one(self, n):
        basis = kernel_basis(cp_matrix(n))
        assert len(basis) == 1
        assert in_lattice(basis, (1,) * (n + 1))

    def test_random_kernels(self):
        rng = random.Random(77)
        for _ in range(100):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            )
            basis = kernel_basis(m)
            for vec in basis:
                assert not any(m.apply(vec))
            assert len(basis) == cols - rational_rank(m.entries)
            # Saturation: every small kernel vector is an integer combination.
            for vec in brute_force_kernel_vectors(m, 2):
                assert in_lattice(basis, vec)


class TestPositiveKernelVector:
    def test_c2_absent(self):
        assert positive_kernel_vector(IntegerMatrix.identity(2)) is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_witness(self, k):
        assert positive_kernel_vector(hirzebruch_matrix(k)) == (1, 1, 1, k + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cp_all_ones(self, n):
        assert positive_kernel_vector(cp_matrix(n)) == (1,) * (n + 1)

    def test_brute_force_equivalence(self):
        rng = random.Random(4242)
        for _ in range(100):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            )
            ours = positive_kernel_vector(m)
            if ours is None:
                assert brute_force_positive_vector(m, 12) is None
            else:
                assert not any(m.apply(ours))
                assert min(ours) >= 1
                # Box sized to cover the witness, so the search is exact.
                assert brute_force_positive_vector(m, max(ours)) is not None

    def test_small_matrix_can_need_a_large_witness(self):
        # Counterexample to any fixed small search box: this rank-3 matrix
        # with entries in [-3,3] has a rank-1 kernel forcing entries up
        # to 25 in the unique minimal positive kernel vector.
        m = IntegerMatrix.from_rows([[-2, 0, -3, 3], [3, 1, -2, -3], [1, -2, 2, 0]])
        assert positive_kernel_vector(m) == (24, 21, 9, 25)
        assert brute_force_positive_vector(m, 12) is None
        assert brute_force_positive_vector(m, 25) == (24, 21, 9, 25)

    def test_twenty_rays(self):
        # Hirzebruch blocks k = 1..5 on their own coordinates: a rank-10
        # kernel in 20 coordinates, where enumerating basic solutions would
        # solve C(20, 10) = 184,756 systems.
        rows = [
            [0] * (4 * k - 4) + list(row) + [0] * (20 - 4 * k)
            for k in range(1, 6)
            for row in hirzebruch_matrix(k).entries
        ]
        expected = tuple(e for k in range(1, 6) for e in (1, 1, 1, k + 1))
        assert positive_kernel_vector(IntegerMatrix.from_rows(rows)) == expected


class TestCompleteDegrees:
    @pytest.mark.parametrize("k,d1,d2", [(1, 1, 1), (2, 3, 5), (3, 2, 7)])
    def test_hirzebruch_completion(self, k, d1, d2):
        got = complete_degrees(hirzebruch_matrix(k), {0: d1, 1: d2})
        assert got == (d1, d2, d1, k * d1 + d2)

    @pytest.mark.parametrize("n,d", [(1, 4), (2, 1), (3, 6)])
    def test_cp_completion(self, n, d):
        assert complete_degrees(cp_matrix(n), {0: d}) == (d,) * (n + 1)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            complete_degrees(hirzebruch_matrix(1), {0: 1})

    def test_inconsistent(self):
        # Third coordinate is forced equal to the first.
        with pytest.raises(InconsistentError):
            complete_degrees(hirzebruch_matrix(1), {0: 1, 2: 2})

    def test_non_integral(self):
        m = IntegerMatrix.from_rows([[1, -2]])
        with pytest.raises(NonIntegralError):
            complete_degrees(m, {0: 1})

    def test_non_positive(self):
        m = IntegerMatrix.from_rows([[1, 1, 0]])
        with pytest.raises(NonPositiveError):
            complete_degrees(m, {0: 1, 2: 1})

    def test_bad_pins_rejected(self):
        with pytest.raises(ValueError):
            complete_degrees(hirzebruch_matrix(1), {7: 1})
        with pytest.raises(ValueError):
            complete_degrees(hirzebruch_matrix(1), {0: 0, 1: 1})

    def test_bad_pins_are_numbered_from_one(self):
        m = hirzebruch_matrix(1)
        # Every index is checked against the range before any value.
        with pytest.raises(ValueError, match=r"^pin index 9 out of range 1\.\.4$"):
            complete_degrees(m, {1: 0, 8: 3})
        with pytest.raises(ValueError, match=r"^pin index 0 out of range 1\.\.4$"):
            complete_degrees(m, {-1: 3})
        with pytest.raises(ValueError, match=r"^pinned value at index 3 must be a positive integer$"):
            complete_degrees(m, {0: 2, 2: 0, 1: -1})

    def test_pin_indices_must_be_integers(self):
        with pytest.raises(TypeError):
            complete_degrees(hirzebruch_matrix(1), {0: 3, 1.5: 5})

    def test_output_extends_and_lies_in_kernel(self):
        m = hirzebruch_matrix(2)
        got = complete_degrees(m, {0: 4, 1: 9})
        assert not any(m.apply(got))
        assert got[0] == 4 and got[1] == 9

    def test_pin_on_trivial_kernel_is_inconsistent(self):
        with pytest.raises(InconsistentError):
            complete_degrees(IntegerMatrix.identity(2), {0: 1})


class TestIntegerInputs:
    @pytest.mark.parametrize("bad", [1.0, 1.5, Fraction(3, 2)])
    def test_non_integers_are_refused(self, bad):
        for build in (IntegerMatrix.from_rows, IntegerMatrix.from_columns):
            with pytest.raises(TypeError):
                build([[1, bad], [0, 1]])
        with pytest.raises(TypeError):
            primitivize((bad, 5))

    def test_bools_and_numpy_integers_become_ints(self):
        import numpy

        rows = IntegerMatrix.from_rows([[True, numpy.int64(2)]]).entries
        cols = IntegerMatrix.from_columns([[numpy.int32(3)], [False]]).entries
        assert rows == ((1, 2),) and cols == ((3, 0),)
        assert all(type(e) is int for e in rows[0] + cols[0])
        assert primitivize((numpy.int64(4), 6)) == (2, 3)
        cleared = clear_denominators((True, numpy.int64(6), 4))
        assert cleared == (1, 6, 4) and all(type(e) is int for e in cleared)

    # int64 products of these entries overflow: the elimination must run on
    # Python ints, with or without a Fraction in the row.
    @pytest.mark.parametrize(
        "rows",
        [
            [[2**62, Fraction(1, 3), 1], [3**39, 7, Fraction(1, 2)]],
            [[2**62, 3, 1], [3**39, 7, 5]],
        ],
        ids=["numpy-and-fractions", "numpy-only"],
    )
    def test_numpy_rows_eliminate_like_int_rows(self, rows):
        import numpy

        numpy_rows = [[numpy.int64(e) if type(e) is int else e for e in row] for row in rows]
        assert rational_nullspace(numpy_rows) == rational_nullspace(rows)
        assert rational_solve(numpy_rows, [1, 2]) == rational_solve(rows, [1, 2])
        assert rational_rank(numpy_rows) == rational_rank(rows)

    @pytest.mark.parametrize(
        "vec, cleared",
        [
            ((4, -6, 0), (2, -3, 0)),
            ((Fraction(-3, 4), 5, Fraction(1, 6)), (-9, 60, 2)),
            (("1/2", "-3", Fraction(0)), (1, -6, 0)),
        ],
    )
    def test_clear_denominators_gives_the_primitive_ray(self, vec, cleared):
        assert clear_denominators(vec) == cleared


class TestDegenerateShapes:
    def test_zero_matrix(self):
        z = IntegerMatrix.from_rows([(0, 0, 0), (0, 0, 0)])
        snf = smith_normal_form(z)
        assert snf.diagonal == (0, 0)
        assert (snf.U @ z @ snf.V).entries == snf.S.entries
        assert len(kernel_basis(z)) == 3
        assert positive_kernel_vector(z) == (1, 1, 1)
        assert clear_denominators((0, Fraction(0), "0")) == (0, 0, 0)

    def test_empty_matrix(self):
        e = IntegerMatrix.from_rows([])
        assert smith_normal_form(e).S.entries == ()
        assert kernel_basis(e) == []
        assert positive_kernel_vector(e) == ()
        assert clear_denominators(()) == ()


# -- property tests of the elimination core ---------------------------------

# Fixed examples on every run, and no example database left behind.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

SMALL_INT = st.integers(-4, 4)
SMALL_RATIONAL = st.one_of(
    SMALL_INT, st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


@st.composite
def matrices(draw):
    """Integer or rational, up to 4x4, including zero-row and zero-column
    shapes; with three or more rows the last may combine the first two."""
    entries = draw(st.sampled_from([SMALL_INT, SMALL_RATIONAL]))
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 4))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        a, b = draw(SMALL_INT), draw(SMALL_INT)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


SQUARE_INT_MATRICES = st.integers(0, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def times(rows, vec):
    return [sum(Fraction(a) * b for a, b in zip(row, vec)) for row in rows]


def leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


@st.composite
def unimodular(draw):
    """Products of elementary row operations: additions, swaps, negations."""
    n = draw(st.integers(1, 4))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(st.integers(-3, 3))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-a for a in m[i]]
    return IntegerMatrix.from_rows(m)


class TestEliminationCore:
    @PROPERTY
    @given(st.data())
    def test_unique_solutions_solve_the_system(self, data):
        rows = data.draw(matrices())
        rhs = data.draw(st.lists(SMALL_RATIONAL, min_size=len(rows), max_size=len(rows)))
        kind, y = rational_solve(rows, rhs)
        if kind == "unique":
            assert len(y) == (len(rows[0]) if rows else 0)
            assert times(rows, y) == [Fraction(b) for b in rhs]
        else:
            assert y is None

    @PROPERTY
    @given(matrices())
    def test_nullspace_basis(self, rows):
        ncols = len(rows[0]) if rows else 0
        basis = rational_nullspace(rows)
        rank = rational_rank(rows)
        assert len(basis) == ncols - rank
        # Free columns are those that do not raise the rank of the columns
        # to their left.
        prefix_ranks = [rational_rank([row[:j] for row in rows]) for j in range(ncols + 1)]
        free = [j for j in range(ncols) if prefix_ranks[j + 1] == prefix_ranks[j]]
        assert len(free) == len(basis)
        for i, vec in enumerate(basis):
            assert not any(times(rows, vec))
            assert [vec[j] for j in free] == [int(i == k) for k in range(len(free))]

    @PROPERTY
    @given(SQUARE_INT_MATRICES)
    def test_determinant_matches_leibniz(self, rows):
        # A nonsingular square input has determinant sign * last.
        _, pivots, last, sign = _fraction_free_rref(rows)
        assert (sign * last if len(pivots) == len(rows) else 0) == leibniz(rows)

    @PROPERTY
    @given(unimodular())
    def test_integer_inverse(self, m):
        assert (_integer_inverse(m) @ m).entries == IntegerMatrix.identity(m.rows).entries


@st.composite
def kernel_problems(draw):
    """Integer matrices with up to 3 rows and 6 columns, zero sizes included."""
    nrows = draw(st.integers(0, 3))
    ncols = draw(st.integers(0, 6))
    rows = tuple(
        tuple(draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)))
        for _ in range(nrows)
    )
    return IntegerMatrix(nrows, ncols, rows)


class TestExactSimplex:
    @PROPERTY
    @given(kernel_problems())
    def test_positive_kernel_vector_matches_vertex_enumeration(self, m):
        witness = positive_kernel_vector(m)
        assert witness == enumerated_positive_kernel_vector(m)
        if witness is not None:
            assert not any(m.apply(witness))
            assert all(d >= 1 for d in witness)


def random_lp(rng, kind):
    """(rows, rhs, objectives) of a seeded LP over {y >= 0 : A y = b}.

    "feasible": b = A y0 for a nonnegative integer y0 with zeros in it;
    "infeasible": b = A y0 with one row made negative on every y >= 0 (a
    row of nonnegative entries, at least one positive, against b < 0);
    "ties": a feasible system with a row repeated at twice its scale, so
    every ratio test that blocks on one of the two rows ties with the other.
    Objectives are nonnegative, so each is bounded below.
    """
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    y0 = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
    rhs = [sum(a * y for a, y in zip(row, y0)) for row in rows]
    if kind == "infeasible":
        row = [rng.randint(0, 3) for _ in range(n)]
        row[rng.randrange(n)] = rng.randint(1, 3)
        rows.append(row)
        rhs.append(-rng.randint(1, 3))
    elif kind == "ties":
        i = rng.randrange(m)
        rows.append([2 * a for a in rows[i]])
        rhs.append(2 * rhs[i])
    objectives = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    objectives += [[int(i == j) for j in range(n)] for i in range(n)]
    return rows, rhs, objectives


class TestIntegerSimplex:
    """`_lex_min` against the Fraction-based simplex it replaced."""

    def run_both(self, monkeypatch, problem):
        """Both minimisers and the (row, column) of each pivot they made."""
        results, pivots = [], []
        for module, solve in ((torickit.lattice, _lex_min), (oracles, fraction_lex_min)):
            seen = []
            original = module._pivot

            def recording(m, row, col, prev, _seen=seen, _original=original):
                _seen.append((row, col))
                return _original(m, row, col, prev)

            monkeypatch.setattr(module, "_pivot", recording)
            results.append(solve(*problem))
            pivots.append(seen)
        return results, pivots

    @pytest.mark.parametrize("kind", ["feasible", "infeasible", "ties"])
    def test_same_vertex_and_pivots_on_seeded_lps(self, kind, monkeypatch):
        rng = random.Random(f"lex-min-{kind}")
        empty = 0
        for _ in range(300):
            (ours, theirs), (our_pivots, their_pivots) = self.run_both(
                monkeypatch, random_lp(rng, kind)
            )
            assert our_pivots == their_pivots
            if theirs is None:
                assert ours is None
                empty += 1
                continue
            numerators, den = ours
            assert den >= 1 and all(type(e) is int for e in numerators)
            assert tuple(Fraction(e, den) for e in numerators) == theirs
        assert empty == (300 if kind == "infeasible" else 0)

    def test_ties_occur_in_the_ratio_test(self):
        # The repeated row blocks with the same ratio as its original on the
        # first pivot of phase one: both rows read (2, 1) against (4, 2).
        rows, rhs = [[1, 1], [2, 2]], [2, 4]
        assert _lex_min(rows, rhs, [[1, 0]]) == ((0, 2), 1)
        assert fraction_lex_min(rows, rhs, [[1, 0]]) == (Fraction(0), Fraction(2))

    def test_feasibility_only(self):
        assert _lex_min([[1, -1]], [0], []) == ((0, 0), 1)
        assert _lex_min([[1, 1]], [-1], []) is None


def oracle_fans():
    catalog = [entry.fan for entry in load_catalog()]
    return catalog + [cp_fan(n) for n in range(1, 7)] + [hirzebruch_fan(k) for k in range(1, 7)] + [c2_fan()]


# The pin sets of the CLI, cox, stability and lattice tests.
PIN_SETS = [{}, {0: 1}, {1: 4}, {0: 5}, {0: 3, 1: 5}, {0: 2, 1: 3}, {0: 1, 2: 2}, {0: 6, 1: 2}, {0: 4, 1: 9}, {0: 1, 1: 1}, {0: 2, 1: 2}]


def verdict(complete, n_matrix, pins):
    try:
        return complete(n_matrix, pins)
    except tuple(VERDICTS) as error:
        return VERDICTS[type(error)], str(error)


class TestFractionOracles:
    def test_positive_kernel_vector_on_every_oracle_fan(self):
        for fan in oracle_fans():
            n_matrix = fan.generator_matrix()
            assert positive_kernel_vector(n_matrix) == fraction_positive_kernel_vector(n_matrix)

    def test_complete_degrees_on_every_oracle_fan_and_pin_set(self):
        checked = 0
        for fan in oracle_fans():
            n_matrix = fan.generator_matrix()
            witness = positive_kernel_vector(n_matrix) or ()
            pin_sets = PIN_SETS + [
                {i: 3 * d for i, d in enumerate(witness[:k])} for k in range(len(witness) + 1)
            ]
            for pins in pin_sets:
                if all(i < fan.ray_count for i in pins):
                    ours = verdict(complete_degrees, n_matrix, pins)
                    assert ours == verdict(fraction_complete_degrees, n_matrix, pins)
                    checked += all(isinstance(e, int) for e in ours)
        assert checked > 20  # unique positive completions occur


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 5x5, built directly so that zero-row shapes keep
    their declared column count."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    bound = draw(st.sampled_from([1, 4, 30]))
    rows = tuple(
        tuple(draw(st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols)))
        for _ in range(nrows)
    )
    return IntegerMatrix(nrows, ncols, rows)


class TestSmithProperties:
    @PROPERTY
    @given(integer_matrices())
    def test_decomposition(self, a):
        snf = smith_normal_form(a)
        check_decomposition(a, snf)
        assert (snf.U.rows, snf.V.rows) == (a.rows, a.cols)
        assert snf.rank == rational_rank(a.entries)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(integer_matrices())
    def test_elementary_divisors_match_the_smith_form(self, a):
        assert _elementary_divisors(a) == smith_normal_form(a).elementary_divisors

    def test_elementary_divisors_of_a_large_entry_matrix(self):
        # 50-digit entries: U and V of the full Smith form would reach
        # thousands of digits, while the divisors multiply to |det|.
        rng = random.Random(50)
        rows = [[rng.randrange(-(10**50) + 1, 10**50) for _ in range(20)] for _ in range(20)]
        divisors = _elementary_divisors(IntegerMatrix.from_rows(rows))
        _, pivots, last, _ = _fraction_free_rref(rows)
        assert len(pivots) == len(divisors) == 20
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        assert prod(divisors) == abs(last)

    def test_cox_data_and_smoothness_build_no_smith_form(self, monkeypatch):
        calls = []
        original = torickit.smith.smith_normal_form

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(torickit.smith, "smith_normal_form", counted)
        monkeypatch.setattr(torickit.census, "smith_normal_form", counted)
        fan = cp_fan(5)
        assert cox_report(fan).condition_span and is_smooth(fan)
        assert calls == []

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, rows, cols):
        a = IntegerMatrix(rows, cols, ((0,) * cols,) * rows)
        snf = smith_normal_form(a)
        assert snf.U.entries == IntegerMatrix.identity(rows).entries
        assert snf.V.entries == IntegerMatrix.identity(cols).entries
        assert snf.diagonal == ()

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (2, 4)])
    def test_s_has_the_shape_of_a(self, rows, cols):
        a = IntegerMatrix(rows, cols, ((0,) * cols,) * rows)
        snf = smith_normal_form(a)
        assert (snf.S.rows, snf.S.cols) == (rows, cols)
        assert (snf.V.rows, snf.V.cols) == (cols, cols)


VERDICTS = {
    UnderdeterminedError: "underdetermined",
    InconsistentError: "inconsistent",
    NonIntegralError: "non_integral",
    NonPositiveError: "non_positive",
}


def reference_completion(n_matrix, pins):
    """The verdict of degree completion from a kernel lattice basis: the
    pinned rows of the basis must determine the coefficients."""
    basis = kernel_basis(n_matrix)
    if pins:
        kind, y = rational_solve(
            [[b[i] for b in basis] for i in sorted(pins)], [pins[i] for i in sorted(pins)]
        )
    else:
        kind, y = ("underdetermined", None) if basis else ("unique", [])
    if kind != "unique":
        return kind
    x = [sum(Fraction(b[k]) * c for b, c in zip(basis, y)) for k in range(n_matrix.cols)]
    if any(xk.denominator != 1 for xk in x):
        return "non_integral"
    if any(xk < 1 for xk in x):
        return "non_positive"
    return tuple(int(xk) for xk in x)


@st.composite
def completion_problems(draw):
    """A kernel problem and pins, half of them read off a positive kernel
    vector so that unique positive completions occur."""
    m = draw(kernel_problems())
    pinned = draw(st.sets(st.integers(0, max(m.cols - 1, 0)), max_size=m.cols))
    witness = positive_kernel_vector(m)
    if witness is not None and draw(st.booleans()):
        return m, {i: witness[i] for i in pinned}
    return m, {i: draw(st.integers(1, 6)) for i in pinned}


class TestCompletionProperties:
    @PROPERTY
    @given(completion_problems())
    def test_matches_the_kernel_basis_reference(self, problem):
        m, pins = problem
        try:
            got = complete_degrees(m, pins)
        except tuple(VERDICTS) as error:
            got = VERDICTS[type(error)]
        assert got == reference_completion(m, pins)
        if isinstance(got, tuple):
            assert not any(m.apply(got))
            assert all(got[i] == v for i, v in pins.items())

    def test_zero_row_matrix(self):
        with pytest.raises(UnderdeterminedError, match="kernel rank 3 exceeds what 0 pinned"):
            complete_degrees(IntegerMatrix(0, 3, ()), {})
        assert complete_degrees(IntegerMatrix(0, 2, ()), {0: 2, 1: 5}) == (2, 5)
        assert complete_degrees(IntegerMatrix(0, 0, ()), {}) == ()
