import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torickit.gaussian as gaussian_module
from oracles import fraction_gaussian, fraction_gaussian_from_pair, fraction_gaussian_to_pair
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
    poly_from_roots,
    poly_gcd,
    poly_mul,
    poly_multi_gcd,
    poly_scale,
)

P0 = _PRIMES[0][0]
Z = (ZERO, ONE)


def euclid_fold(polys):
    return functools.reduce(poly_gcd, polys, POLY_ZERO)


def roots(*values):
    return poly_from_roots([(gaussian(*v), 1) for v in values])


@pytest.fixture
def gcd_calls(monkeypatch):
    """Counts calls of the exact Euclid, which only the fallback makes."""
    calls = []
    original = gaussian_module.poly_gcd

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(gaussian_module, "poly_gcd", counted)
    return calls


# name -> (polynomials, which path decides: a prime, the Euclid fallback, or
# the fold alone because no input is nonzero)
EDGE_CASES = {
    # z - p0 = z (mod p0): the candidate z fails trial division.
    "unlucky_prime": ([Z, (gaussian(-P0), ONE)], "euclid"),
    # p0 divides a denominator: the second prime decides.
    "denominator_p0_coprime": ([roots((Fraction(1, P0),)), roots((-1,))], "prime"),
    "denominator_p0_shared": ([roots((Fraction(1, P0),), (2,)), roots((-1,), (2,))], "prime"),
    # p0 divides a leading coefficient: the second prime decides.
    "leading_p0": ([(ONE, gaussian(P0)), roots((1,))], "prime"),
    "double_root": (
        [
            poly_mul(roots((Fraction(1, 3), 2), (Fraction(1, 3), 2)), roots((1,))),
            poly_mul(roots((Fraction(1, 3), 2), (Fraction(1, 3), 2)), roots((-1, 5))),
        ],
        "prime",
    ),
    # 2^40 / 3^25 is beyond the reconstruction bound sqrt(p0 / 2) < 2^31.
    "beyond_reconstruction": (
        [roots((Fraction(2**40, 3**25), 1), (1,)), roots((Fraction(2**40, 3**25), 1), (-1,))],
        "euclid",
    ),
    "non_monic": (
        [
            poly_scale(roots((5, -1), (1,)), gaussian(0, 3)),
            poly_scale(roots((5, -1), (2,)), gaussian(Fraction(1, 2))),
            poly_scale(roots((5, -1), (Fraction(-7, 2), 1)), gaussian(-2, 1)),
        ],
        "prime",
    ),
    "constants": ([(gaussian(3),), roots((1,))], "prime"),
    "empty": ([], "fold"),
    "zero": ([POLY_ZERO], "fold"),
    "zeros": ([POLY_ZERO, POLY_ZERO], "fold"),
    "zero_first": ([POLY_ZERO, roots((2, 3))], "prime"),
    "zero_last": ([poly_scale(roots((2, 3)), gaussian(4)), POLY_ZERO], "prime"),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_matches_euclid_fold(name, gcd_calls):
    polys, path = EDGE_CASES[name]
    result = poly_multi_gcd(polys)
    if path == "prime":
        assert not gcd_calls
    elif path == "euclid":
        assert gcd_calls
    assert result == euclid_fold(polys)


def test_edge_case_results():
    assert poly_multi_gcd(EDGE_CASES["unlucky_prime"][0]) == POLY_ONE
    assert poly_multi_gcd(EDGE_CASES["denominator_p0_shared"][0]) == roots((2,))
    assert poly_multi_gcd(EDGE_CASES["double_root"][0]) == roots(
        (Fraction(1, 3), 2), (Fraction(1, 3), 2)
    )
    assert poly_multi_gcd(EDGE_CASES["beyond_reconstruction"][0]) == roots(
        (Fraction(2**40, 3**25), 1)
    )
    assert poly_multi_gcd(EDGE_CASES["non_monic"][0]) == roots((5, -1))
    assert poly_multi_gcd(EDGE_CASES["empty"][0]) == POLY_ZERO
    assert poly_multi_gcd(EDGE_CASES["zeros"][0]) == POLY_ZERO


def test_accepts_a_generator():
    polys = [roots((1,), (2,)), roots((2,), (3,))]
    assert poly_multi_gcd(p for p in polys) == roots((2,))


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
    assert poly_multi_gcd(polys) == euclid_fold(polys)


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


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
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


@pytest.mark.parametrize("p, s", _PRIMES)
def test_primes_carry_a_square_root_of_minus_one(p, s):
    assert p < 3 * 10**24 and is_prime(p)
    assert p % 4 == 1 and s * s % p == p - 1


def test_submodule_import_binds_the_module():
    import torickit.gaussian as module

    assert module.poly_multi_gcd is poly_multi_gcd
