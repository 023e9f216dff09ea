"""Gaussian rational scalars and univariate polynomials over them.

Q(i) replaces floating complex numbers everywhere: a common root of
polynomials with coefficients in Q(i) exists over C iff their gcd computed
over Q(i) has positive degree, so membership questions become exact gcd
degree checks with no tolerances.

`poly_multi_gcd` decides that degree modulo a fixed prime p = 1 (mod 4),
where i has the two images +s and -s (s^2 = -1 mod p). A constant gcd mod
p proves a constant gcd over Q(i); a non-constant one is lifted back by
rational reconstruction and accepted only after exact trial division.
The exact Euclidean fold remains the fallback for every case the prime
cannot settle.

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


def poly_scale(a: Poly, factor: GaussianRational) -> Poly:
    if factor.is_zero:
        return POLY_ZERO
    return tuple(c * factor for c in a)


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


def poly_monic(p: Poly) -> Poly:
    if not p:
        return POLY_ZERO
    return poly_scale(p, ONE / p[-1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm.

    Remainders are renormalized to monic at every step, which keeps
    coefficient growth in check over Q(i).
    """
    a, b = poly_monic(a), poly_monic(b)
    while b:
        _, rem = poly_divmod(a, b)
        a, b = b, poly_monic(rem)
    return a


def poly_multi_gcd(polys) -> Poly:
    """Monic gcd of the polynomials (the zero polynomial if all are zero).

    Modular first: the inputs are reduced modulo a prime p = 1 (mod 4)
    under i -> s and i -> -s, skipping to a second prime when p divides a
    denominator or the image of a leading coefficient. Let g be the true
    monic gcd and g_p the gcd of the images under i -> s.

    - Constant case: each input divided by its leading coefficient is
      monic with coefficients integral at the prime (p, i - s), so its
      monic factor g is integral there too (Gauss's lemma), and the image
      of g divides every image with degree deg g. Hence deg g <= deg g_p,
      and a constant g_p proves g = 1.
    - Verified case: the coefficients of g_p and of the gcd under i -> -s
      give re = (x1 + x2)/2 and im = (x1 - x2)/(2s) mod p, which are
      rationally reconstructed into a monic candidate c of degree deg g_p.
      If c divides every input exactly, then c divides g, so
      deg g_p = deg c <= deg g <= deg g_p and c = g.

    Anything else (the two images disagree in degree, a coefficient does
    not reconstruct, a trial division leaves a remainder) falls back to
    the exact Euclidean fold in ascending index order, stopping once
    constant.
    """
    polys = tuple(polys)
    if any(polys):
        candidate = _modular_gcd(polys)
        if candidate is not None:
            return candidate
    result = POLY_ZERO
    for p in polys:
        result = poly_gcd(result, p)
        if poly_degree(result) == 0:
            break
    return result


# Primes p = 1 (mod 4) with s^2 = -1 (mod p). The second is used only when
# the first divides a denominator or a leading coefficient of the input.
_PRIMES = (
    (2**61 - 31, 583529827753931384),
    (2**61 - 259, 966685122347009555),
)


def _modular_gcd(polys) -> Poly | None:
    """The monic gcd when one prime settles it, else None (see poly_multi_gcd)."""
    for p, s in _PRIMES:
        images = _images(polys, p, s)
        if images is not None:
            break
    else:
        return None
    plus, minus = images
    g = _fold_mod(plus, p)
    if len(g) == 1:
        return POLY_ONE
    h = _fold_mod(minus, p)
    if len(h) != len(g):
        return None
    half, half_s = pow(2, -1, p), pow(2 * s, -1, p)
    candidate = []
    for x1, x2 in zip(g, h):
        real = _reconstruct((x1 + x2) * half % p, p)
        imag = _reconstruct((x1 - x2) * half_s % p, p)
        if real is None or imag is None:
            return None
        candidate.append(_from_parts(*real, *imag))
    candidate = tuple(candidate)
    if any(poly_divmod(f, candidate)[1] for f in polys):
        return None
    return candidate


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
            g, f = f, _rem_mod(g, f, p)
        if len(g) == 1:
            break
    return g


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by the monic b over F_p."""
    rem = list(a)
    n = len(b) - 1
    for top in range(len(rem) - 1, n - 1, -1):
        q = rem.pop()
        if q:
            base = top - n
            for j in range(n):
                rem[base + j] = (rem[base + j] - q * b[j]) % p
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _reconstruct(u: int, p: int) -> tuple[int, int] | None:
    """The reduced fraction n/d = u (mod p) with |n|, d <= sqrt(p/2), as
    (n, d) with d > 0, if one exists (Wang's half-extended Euclid; such a
    fraction is unique)."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def poly_eval(p: Poly, z: GaussianRational) -> GaussianRational:
    value = ZERO
    for coeff in reversed(p):
        value = value * z + coeff
    return value


def poly_from_roots(roots) -> Poly:
    """Monic polynomial with the given (root, multiplicity) pairs."""
    result = POLY_ONE
    for root, multiplicity in roots:
        factor = (-root, ONE)
        for _ in range(multiplicity):
            result = poly_mul(result, factor)
    return result
