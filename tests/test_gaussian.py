import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torickit.gaussian as gaussian_module
from oracles import (
    euclid_gcd,
    euclid_multi_gcd,
    fraction_gaussian,
    fraction_gaussian_from_pair,
    fraction_gaussian_to_pair,
    poly_scale,
)
from torickit.gaussian import (
    ONE,
    POLY_ONE,
    POLY_ZERO,
    ZERO,
    _PRIMES,
    gaussian,
    gaussian_from_pair,
    gaussian_to_pair,
    poly,
    poly_divmod,
    poly_from_roots,
    poly_gcd,
    poly_mul,
    poly_multi_gcd,
)

P0, P1 = _PRIMES[0][0], _PRIMES[1][0]
Z = (ZERO, ONE)
TALL_ROOT = (Fraction(3**70, 7), Fraction(-5, 11**30))
OTHER_TALL_ROOT = (Fraction(-(7**39), 2), Fraction(13**28, 3))


def roots(*values):
    return poly_from_roots([(gaussian(*v), 1) for v in values])


@pytest.fixture
def primes_used(monkeypatch):
    """Counts the primes a gcd reduces its inputs modulo, skipped ones too,
    and fails a gcd that has not ended after 64 of them."""
    calls = []
    original = gaussian_module._images

    def counted(*args):
        calls.append(1)
        assert len(calls) <= 64, "no gcd after 64 primes"
        return original(*args)

    monkeypatch.setattr(gaussian_module, "_images", counted)
    return calls


# name -> (polynomials, the number of primes the gcd uses)
EDGE_CASES = {
    # z - p0 = z (mod p0): the candidate z fails trial division.
    "unlucky_prime": ([Z, (gaussian(-P0), ONE)], 2),
    # p0 sees z(z - 1); the second prime sees z - 1 and starts over.
    "restart": ([roots((0,), (1,)), roots((1,), (P0,))], 2),
    # i - s0 = 0 (mod p0, i - s0) only: p0's two images differ in degree.
    "images_differ": ([Z, roots((-_PRIMES[0][1], 1))], 2),
    # p0 divides a denominator: the second prime decides.
    "denominator_p0_coprime": ([roots((Fraction(1, P0),)), roots((-1,))], 2),
    "denominator_p0_shared": ([roots((Fraction(1, P0),), (2,)), roots((-1,), (2,))], 2),
    # p0 * p1 divides a denominator: the third prime decides.
    "denominator_p0_p1_coprime": ([roots((Fraction(1, P0 * P1),)), roots((-1,))], 3),
    "denominator_p0_p1_shared": (
        [roots((Fraction(1, P0 * P1),), (2,)), roots((-1,), (2,))],
        3,
    ),
    # p0 divides a leading coefficient: the second prime decides.
    "leading_p0": ([(ONE, gaussian(P0)), roots((1,))], 2),
    "double_root": (
        [
            poly_mul(roots((Fraction(1, 3), 2), (Fraction(1, 3), 2)), roots((1,))),
            poly_mul(roots((Fraction(1, 3), 2), (Fraction(1, 3), 2)), roots((-1, 5))),
        ],
        1,
    ),
    # 2^40 / 3^25 is beyond the reconstruction bound sqrt(p0 / 2) < 2^31,
    # but the cofactor z - 1 of the first input is not: the first input
    # over it is the gcd.
    "beyond_reconstruction": (
        [roots((Fraction(2**40, 3**25), 1), (1,)), roots((Fraction(2**40, 3**25), 1), (-1,))],
        1,
    ),
    # The cofactors are too tall for two primes as well: the gcd
    # reconstructs modulo p0 * p1 and is tried once p2 gives it again.
    "confirmed_by_next_prime": (
        [roots((Fraction(2**40, 3**25), 1), TALL_ROOT), roots((Fraction(2**40, 3**25), 1), OTHER_TALL_ROOT)],
        3,
    ),
    # Components near 2^111 and 2^104 need p0 * ... * p3 > 2^223, and p4
    # confirms; the cofactors are as tall.
    "beyond_three_primes": (
        [roots(TALL_ROOT, OTHER_TALL_ROOT), roots(TALL_ROOT, (-1, OTHER_TALL_ROOT[0]))],
        5,
    ),
    # p0 sees the gcd alone, p1 sees z too and is skipped, and the CRT goes
    # on over p0, p2, p3 and p4; p5 confirms.
    "unlucky_after_lucky": (
        [
            poly_mul(roots(TALL_ROOT, OTHER_TALL_ROOT), Z),
            poly_mul(roots(TALL_ROOT, (-1, OTHER_TALL_ROOT[0])), roots((P1,))),
        ],
        6,
    ),
    # The gcd is a whole input: its cofactor 1 settles it at p0.
    "equal_tall": ([roots(TALL_ROOT, OTHER_TALL_ROOT)] * 2, 1),
    "dividing_tall": ([poly_mul(roots(TALL_ROOT), Z), roots(TALL_ROOT)], 1),
    "non_monic": (
        [
            poly_scale(roots((5, -1), (1,)), gaussian(0, 3)),
            poly_scale(roots((5, -1), (2,)), gaussian(Fraction(1, 2))),
            poly_scale(roots((5, -1), (Fraction(-7, 2), 1)), gaussian(-2, 1)),
        ],
        1,
    ),
    "constants": ([(gaussian(3),), roots((1,))], 1),
    "empty": ([], 0),
    "zero": ([POLY_ZERO], 0),
    "zeros": ([POLY_ZERO, POLY_ZERO], 0),
    "zero_first": ([POLY_ZERO, roots((2, 3))], 1),
    "zero_last": ([poly_scale(roots((2, 3)), gaussian(4)), POLY_ZERO], 1),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_matches_euclid_fold(name, primes_used):
    polys, primes = EDGE_CASES[name]
    result = poly_multi_gcd(polys)
    assert len(primes_used) == primes
    assert result == euclid_multi_gcd(polys)


@pytest.mark.parametrize(
    "name", ["confirmed_by_next_prime", "beyond_three_primes", "unlucky_after_lucky"]
)
def test_several_primes_cost_few_trial_divisions(name, monkeypatch):
    """A candidate is tried at the first prime of its degree, then only when
    the next prime gives it again: a gcd over several primes fails at most
    two trial divisions (gcd and cofactor at the first prime) before the
    one per input that succeeds."""
    polys = EDGE_CASES[name][0]
    calls = []
    original = gaussian_module.poly_divmod

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(gaussian_module, "poly_divmod", counted)
    poly_multi_gcd(polys)
    assert len(polys) <= len(calls) <= len(polys) + 2


def test_edge_case_results():
    assert poly_multi_gcd(EDGE_CASES["unlucky_prime"][0]) == POLY_ONE
    assert poly_multi_gcd(EDGE_CASES["restart"][0]) == roots((1,))
    assert poly_multi_gcd(EDGE_CASES["denominator_p0_shared"][0]) == roots((2,))
    assert poly_multi_gcd(EDGE_CASES["denominator_p0_p1_coprime"][0]) == POLY_ONE
    assert poly_multi_gcd(EDGE_CASES["denominator_p0_p1_shared"][0]) == roots((2,))
    assert poly_multi_gcd(EDGE_CASES["double_root"][0]) == roots(
        (Fraction(1, 3), 2), (Fraction(1, 3), 2)
    )
    assert poly_multi_gcd(EDGE_CASES["beyond_reconstruction"][0]) == roots(
        (Fraction(2**40, 3**25), 1)
    )
    assert poly_multi_gcd(EDGE_CASES["confirmed_by_next_prime"][0]) == roots(
        (Fraction(2**40, 3**25), 1)
    )
    assert poly_multi_gcd(EDGE_CASES["beyond_three_primes"][0]) == roots(TALL_ROOT)
    assert poly_multi_gcd(EDGE_CASES["unlucky_after_lucky"][0]) == roots(TALL_ROOT)
    assert poly_multi_gcd(EDGE_CASES["equal_tall"][0]) == roots(TALL_ROOT, OTHER_TALL_ROOT)
    assert poly_multi_gcd(EDGE_CASES["dividing_tall"][0]) == roots(TALL_ROOT)
    assert poly_multi_gcd(EDGE_CASES["non_monic"][0]) == roots((5, -1))
    assert poly_multi_gcd(EDGE_CASES["empty"][0]) == POLY_ZERO
    assert poly_multi_gcd(EDGE_CASES["zeros"][0]) == POLY_ZERO


def test_division_by_the_zero_polynomial_is_refused():
    for a in (POLY_ZERO, POLY_ONE, poly_from_roots([(gaussian(2), 3)])):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            poly_divmod(a, POLY_ZERO)


def test_accepts_a_generator():
    polys = [roots((1,), (2,)), roots((2,), (3,))]
    assert poly_multi_gcd(p for p in polys) == roots((2,))


# name -> (root, multiplicity) pairs
PRODUCTS = {
    "empty": [],
    "zero_root": [(ZERO, 1), (gaussian(1, 2), 1)],
    "multiplicities_0_and_3": [(gaussian(2, -1), 0), (gaussian(Fraction(1, 2), 3), 3)],
    # The real part over 6 and the imaginary part over 4.
    "different_denominators": [(gaussian(Fraction(1, 6), Fraction(-5, 4)), 2)],
    "two_prime_denominator": [(gaussian(Fraction(1, P0 * P1)), 1), (gaussian(-3, 1), 1)],
    "tall_root": [(gaussian(*TALL_ROOT), 2), (gaussian(*OTHER_TALL_ROOT), 1)],
}


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_poly_from_roots_matches_the_linear_factor_product(name):
    expected = POLY_ONE
    for root, multiplicity in PRODUCTS[name]:
        for _ in range(multiplicity):
            expected = poly_mul(expected, (-root, ONE))
    assert poly_from_roots(PRODUCTS[name]) == expected


GAUSSIAN_RATIONALS = st.builds(
    gaussian,
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def gcd_inputs(draw):
    """2-4 polynomials with 0-3 planted shared roots of multiplicity 1-2,
    each times a random cofactor with Gaussian rational coefficients."""
    shared = draw(
        st.lists(st.tuples(GAUSSIAN_RATIONALS, st.integers(1, 2)), min_size=0, max_size=3)
    )
    common = poly_from_roots(shared)
    polys = []
    for _ in range(draw(st.integers(2, 4))):
        cofactor = poly(draw(st.lists(GAUSSIAN_RATIONALS, min_size=1, max_size=4)))
        polys.append(poly_mul(common, cofactor))
    return polys


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gcd_inputs())
def test_matches_euclid_fold(polys):
    assert poly_multi_gcd(polys) == euclid_multi_gcd(polys)
    assert poly_gcd(polys[0], polys[1]) == euclid_gcd(polys[0], polys[1])


# Components: small, zero, and numerators and denominators far past one
# machine word.
COMPONENTS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


def agree(value, oracle_value):
    """The integer triple and the Fraction pair print and read the same."""
    pair = gaussian_to_pair(value)
    assert pair == fraction_gaussian_to_pair(oracle_value)
    assert (value.real, value.imag) == (oracle_value.real, oracle_value.imag)
    assert str(value) == str(oracle_value)
    assert value.is_zero == oracle_value.is_zero
    assert gaussian_from_pair(pair) == value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(COMPONENTS, COMPONENTS, COMPONENTS, COMPONENTS)
def test_integer_triples_match_the_fraction_pair_oracle(a, b, c, e):
    x, y = gaussian(a, b), gaussian(c, e)
    ox, oy = fraction_gaussian(a, b), fraction_gaussian(c, e)
    agree(x, ox)
    agree(y, oy)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        if op == "__truediv__" and oy.is_zero:
            with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
                x / y
            continue
        agree(getattr(x, op)(y), getattr(ox, op)(oy))
    agree(-x, -ox)
    assert x.abs_squared() == ox.abs_squared()
    assert (x == y) == (ox == oy)
    # Equal values hash alike however they were reached.
    for same in (x + y - y, gaussian_from_pair(fraction_gaussian_to_pair(ox))):
        assert same == x and hash(same) == hash(x)
    if not y.is_zero:
        assert x * y / y == x and hash(x * y / y) == hash(x)


@pytest.mark.parametrize(
    "pair",
    [["1/0", "0"], ["0", "-3/0"], ["-3/0", "0"], ["007/0", "0"], ["-0/0", "1/0"], ["5/0", "x"]]
    + [["1" * 5000, "0"], ["0", "1/" + "2" * 5000], ["1/0", "1" * 5000]],
)
def test_parse_errors_match_the_fraction_pair_oracle(pair):
    with pytest.raises((ValueError, ZeroDivisionError)) as theirs:
        fraction_gaussian_from_pair(pair)
    with pytest.raises(theirs.type) as ours:
        gaussian_from_pair(pair)
    assert str(ours.value) == str(theirs.value)


# psi_12: the least composite that passes the strong test to the first
# twelve prime bases.
PSI_12 = 318665857834031151167461


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below PSI_12."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, twos = n - 1, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_misclassifies_psi_12():
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(PSI_12)


PRIME_SEQUENCE = list(itertools.islice(gaussian_module._primes(), 6))


@pytest.mark.parametrize("p, s", PRIME_SEQUENCE)
def test_primes_carry_a_square_root_of_minus_one(p, s):
    assert p < PSI_12 and is_prime(p)
    assert p % 4 == 1 and s * s % p == p - 1


def test_primes_run_down_from_2_61_without_a_gap():
    """Every prime p = 1 (mod 4) below 2^61 in turn, starting from the two
    precomputed pairs."""
    assert PRIME_SEQUENCE[:2] == list(_PRIMES)
    last = PRIME_SEQUENCE[-1][0]
    assert [p for p, _ in PRIME_SEQUENCE] == [
        n for n in range(2**61 - 3, last - 1, -4) if is_prime(n)
    ]


def test_submodule_import_binds_the_module():
    import torickit.gaussian as module

    assert module.poly_multi_gcd is poly_multi_gcd
