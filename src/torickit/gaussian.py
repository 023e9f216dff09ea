"""Gaussian rational scalars and univariate polynomials over them.

Q(i) replaces floating complex numbers everywhere: a common root of
polynomials with coefficients in Q(i) exists over C iff their gcd computed
over Q(i) has positive degree, so membership questions become exact gcd
degree checks with no tolerances.

`poly_multi_gcd` decides that degree modulo primes p = 1 (mod 4), where
i has the two images +s and -s (s^2 = -1 mod p). A constant gcd mod p
proves a constant gcd over Q(i); a non-constant one and its cofactor in
the shortest input are combined over as many primes as it takes by the
CRT, reconstructed as rationals and checked by exact trial division.

A Gaussian rational (a + b*i)/d is stored as the integer triple (a, b, d)
with d > 0 and gcd(a, b, d) = 1, so that equality and hashing compare
fields. The arithmetic runs on plain ints with `math.gcd`: a pair of
`Fraction`s cost most of a membership job's compute, and importing
`fractions` (with `decimal` and `numbers`) about 3 ms of each CLI
process. `fractions` loads only when a caller asks for a component as a
`Fraction` or passes `gaussian` something other than ints.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

import re
from math import gcd, isqrt

from ._record import record


@record
class GaussianRational:
    """The Gaussian rational (a + b*i)/d, kept reduced: d > 0 and
    gcd(a, b, d) = 1, so equal values have equal fields. The constructor
    takes such a triple; `gaussian` builds one from rationals."""

    a: int
    b: int
    d: int

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return _sum(self.a, self.b, self.d, other.a, other.b, other.d)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return _sum(self.a, self.b, self.d, -other.a, -other.b, other.d)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        c, e, f = other.a, other.b, other.d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self.a, self.b
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * norm)

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    # The components as `Fraction`s, for callers outside the membership
    # path; `fractions` (with `decimal` and `numbers`) loads on first use.
    @property
    def real(self):
        from fractions import Fraction

        return Fraction(self.a, self.d)

    @property
    def imag(self):
        from fractions import Fraction

        return Fraction(self.b, self.d)

    def abs_squared(self):
        from fractions import Fraction

        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _fraction_string(a, d)
        imag = _fraction_string(abs(b), d) + "i"
        if not a:
            return "-" + imag if b < 0 else imag
        return _fraction_string(a, d) + ("-" if b < 0 else "+") + imag


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d). `math.gcd`
    skips the rest of its arguments once the running gcd is 1, so the
    denominator, usually the shortest of the three, goes first."""
    if d == 1:
        return GaussianRational(a, b, 1)
    g = gcd(d, a, b)
    return GaussianRational(a // g, b // g, d // g)


def _from_parts(n: int, d: int, m: int, e: int) -> GaussianRational:
    """n/d + (m/e)*i for d, e > 0."""
    return _reduced(n * e, m * d, d * e)


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """(a + b*i)/d + (c + e*i)/f for reduced triples. As in `fractions`,
    only a prime of g = gcd(d, f) can divide all of the result, so the
    final gcd is taken with g, not with the full denominator."""
    g = gcd(d, f)
    if g == 1:
        return GaussianRational(a * f + c * d, b * f + e * d, d * f)
    s, t = d // g, f // g
    re, im = a * t + c * s, b * t + e * s
    h = gcd(g, re, im)
    return GaussianRational(re // h, im // h, s * (f // h))


def _fraction_string(n: int, d: int) -> str:
    """n/d in lowest terms as `str(Fraction(n, d))` prints it, for d > 0."""
    g = gcd(n, d)
    if g == d:
        return str(n // g)
    return f"{n // g}/{d // g}"


ZERO = GaussianRational(0, 0, 1)
ONE = GaussianRational(1, 0, 1)
I = GaussianRational(0, 1, 1)


def gaussian(real, imag=0) -> GaussianRational:
    """Build a Gaussian rational from ints, fractions or fraction strings."""
    if not (isinstance(real, int) and isinstance(imag, int)):
        from fractions import Fraction

        real, imag = Fraction(real), Fraction(imag)
    return _from_parts(real.numerator, real.denominator, imag.numerator, imag.denominator)


_FRACTION_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_fraction(text: str) -> tuple[int, int]:
    """Numerator and denominator of a string that matches _FRACTION_STRING;
    a zero denominator raises the ZeroDivisionError `Fraction` raises."""
    numerator, _, denominator = text.partition("/")
    numerator = int(numerator)
    denominator = int(denominator or "1")
    if not denominator:
        raise ZeroDivisionError(f"Fraction({numerator}, 0)")
    return numerator, denominator


def gaussian_from_pair(pair) -> GaussianRational:
    """Parse the wire form: a two-element [real, imaginary] fraction-string
    pair. Each part must be a string like "3", "-3/4" or "007"; any other
    form, a JSON number included, raises ValueError."""
    for part in pair:
        if not (isinstance(part, str) and _FRACTION_STRING.fullmatch(part)):
            raise ValueError(f"not a fraction string: {part!r}")
    real, imag = pair
    return _from_parts(*_parse_fraction(real), *_parse_fraction(imag))


def gaussian_to_pair(value: GaussianRational) -> list[str]:
    return [_fraction_string(value.a, value.d), _fraction_string(value.b, value.d)]


# -- polynomials ------------------------------------------------------------

Poly = tuple[GaussianRational, ...]

POLY_ZERO: Poly = ()
POLY_ONE: Poly = (ONE,)


def poly(coefficients) -> Poly:
    """Normalize a coefficient sequence: strip trailing zeros."""
    coeffs = list(coefficients)
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def poly_is_monic(p: Poly) -> bool:
    return bool(p) and p[-1] == ONE


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return POLY_ZERO
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return poly(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    remainder = list(a)
    quotient = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = ONE / b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        coeff = remainder[shift + len(b) - 1] * inv_lead
        if coeff.is_zero:
            continue
        quotient[shift] = coeff
        for k, cb in enumerate(b):
            remainder[shift + k] = remainder[shift + k] - coeff * cb
    return poly(quotient), poly(remainder)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials (see poly_multi_gcd)."""
    return poly_multi_gcd((a, b))


def poly_multi_gcd(polys) -> Poly:
    """Monic gcd of the polynomials (the zero polynomial if all are zero).

    Let g be the true monic gcd, f the shortest nonzero input and c = f/g.
    The inputs are mapped modulo primes p = 1 (mod 4) under i -> s and
    i -> -s (see _primes), skipping a prime that divides a denominator or
    an image of a leading coefficient. Each input over its leading
    coefficient is monic and integral at (p, i - s), so is its factor g
    (Gauss's lemma), and the image of g divides the monic gcd g_p of the
    images. So deg g <= deg g_p, a constant g_p proves g = 1, and at
    deg g_p = deg g, g_p and f_p/g_p are the images of g and c.

    The parts re = (x1 + x2)/2 and im = (x1 - x2)/(2s) of the coefficients
    of g_p and f_p/g_p (x1 under s, x2 under -s) are combined by the CRT
    over the primes of the least degree seen (a prime whose two images
    differ in degree is skipped) and rationally reconstructed. A candidate
    g, or f over a candidate c (which settles a tall g with a short c, as
    for equal inputs), is tried at the first prime of its degree and then
    when the next prime gives it again; if it divides every input, it
    divides g, and its degree deg g_p makes it g.

    The loop ends: only finitely many primes are skipped or see a degree
    above deg g, each dividing a nonzero integer fixed by the inputs (a
    denominator, a leading coefficient's norm, or a denominator of Bezout
    cofactors for the inputs over g). Past them every prime gives the
    images of g, and once their product exceeds twice the square of every
    numerator and denominator in g, every prime reconstructs g.
    """
    polys = tuple(polys)
    if not any(polys):
        return POLY_ZERO
    f = min((e for e in polys if e), key=len)
    at, size, previous = polys.index(f), len(f) + 1, [None, None]
    others = polys[:at] + polys[at + 1 :]
    for p, s in _primes():
        images = _images(polys, p, s)
        if images is None:
            continue
        g = _fold_mod(images[0], p)
        if len(g) == 1:
            return POLY_ONE
        h = _fold_mod(images[1], p)
        if len(h) != len(g) or len(g) > size:
            continue
        if len(g) < size:
            size, modulus, residues = len(g), 1, [0] * (2 * len(f) + 2)
        g += _divmod_mod(images[0][at], g, p)[0]
        h += _divmod_mod(images[1][at], h, p)[0]
        half, half_s, lift = pow(2, -1, p), pow(2 * s, -1, p), pow(modulus, -1, p)
        values = [x for x1, x2 in zip(g, h) for x in ((x1 + x2) * half, (x1 - x2) * half_s)]
        residues = [r + modulus * ((v - r) * lift % p) for r, v in zip(residues, values)]
        modulus *= p
        for k, part in enumerate((residues[: 2 * size], residues[2 * size :])):
            lifted = _reconstruct(part, modulus)
            if lifted is not None and (modulus == p or lifted == previous[k]):
                quotient, rest = poly_divmod(f, lifted)
                candidate = quotient if k else lifted
                if not rest and not any(poly_divmod(e, candidate)[1] for e in others):
                    return candidate
            previous[k] = lifted


# Primes p = 1 (mod 4) with s^2 = -1 (mod p): the first two that _primes
# yields, precomputed because the search costs about 0.5 ms a prime.
_PRIMES = ((2**61 - 31, 583529827753931384), (2**61 - 259, 966685122347009555))


def _primes():
    """(p, s) for the primes p = 1 (mod 4) below 2^61, largest first, with
    s = c^((p - 1)/4) mod p for the least quadratic non-residue c, so that
    s^2 = -1 (mod p)."""
    yield from _PRIMES
    p = _PRIMES[-1][0]
    while True:
        p -= 4
        if _is_prime(p):
            c = 2
            while pow(c, (p - 1) // 2, p) != p - 1:
                c += 1
            yield p, pow(c, (p - 1) // 4, p)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for odd
    37 < n < 318665857834031151167461."""
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # 2^twos exactly divides n - 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(b, (n - 1) >> twos, n)
        if x != 1 and all(pow(x, 2**k, n) != n - 1 for k in range(twos)):
            return False
    return True


def _images(polys, p: int, s: int):
    """Coefficient lists of the polynomials under i -> s and i -> -s mod p,
    or None if p divides a denominator or either image of a leading
    coefficient is zero. The denominator d of (a + b*i)/d is the lcm of
    those of the real and imaginary parts, so p divides it exactly when
    p divides one of them."""
    plus, minus = [], []
    for f in polys:
        f_plus, f_minus = [], []
        for c in f:
            if c.d % p == 0:
                return None
            inverse = pow(c.d, -1, p)
            re, im = c.a * inverse, c.b * inverse * s
            f_plus.append((re + im) % p)
            f_minus.append((re - im) % p)
        if f and not (f_plus[-1] and f_minus[-1]):
            return None
        plus.append(f_plus)
        minus.append(f_minus)
    return plus, minus


def _fold_mod(polys, p: int) -> list[int]:
    """Monic gcd over F_p of coefficient lists, stopping once constant."""
    g: list[int] = []
    for f in polys:
        while f:
            lead = pow(f[-1], -1, p)
            f = [c * lead % p for c in f]
            g, f = f, _divmod_mod(g, f, p)[1]
        if len(g) == 1:
            break
    return g


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b over F_p."""
    rem, quotient, n = list(a), [], len(b) - 1
    for top in range(len(rem) - 1, n - 1, -1):
        q = rem.pop()
        quotient.append(q)
        if q:
            base = top - n
            for j in range(n):
                rem[base + j] = (rem[base + j] - q * b[j]) % p
    while rem and not rem[-1]:
        rem.pop()
    return quotient[::-1], rem


def _reconstruct(residues: list[int], modulus: int) -> Poly | None:
    """The polynomial with these (re, im) coefficient residues, each part
    the reduced fraction n/d = u (mod modulus) with |n|, d <=
    sqrt(modulus/2) (Wang's half-extended Euclid; such a fraction is
    unique), or None at the first residue without one."""
    bound, parts = isqrt(modulus // 2), []
    for u in residues:
        r0, r1, t0, t1 = modulus, u, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if abs(t1) > bound or gcd(r1, t1) != 1:
            return None
        parts.append((r1, t1) if t1 > 0 else (-r1, -t1))
    return tuple(_from_parts(*parts[k], *parts[k + 1]) for k in range(0, len(parts), 2))


def poly_from_roots(roots) -> Poly:
    """Monic polynomial with the given (root, multiplicity) pairs: the
    product over Z[i] of the factors d*z - a - b*i for the roots
    (a + b*i)/d, held as integer real and imaginary coefficient lists and
    divided once by the product of the d's."""
    re, im, den = [1], [0], 1
    for root, multiplicity in roots:
        a, b, d = root.a, root.b, root.d
        for _ in range(multiplicity):
            re, im = (
                [d * x - a * u + b * v for x, u, v in zip([0, *re], [*re, 0], [*im, 0])],
                [d * y - a * v - b * u for y, u, v in zip([0, *im], [*re, 0], [*im, 0])],
            )
            den *= d
    return tuple(_reduced(x, y, den) for x, y in zip(re, im))
