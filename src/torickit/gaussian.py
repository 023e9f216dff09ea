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

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ._record import record


@record
class GaussianRational:
    real: Fraction
    imag: Fraction

    def __post_init__(self):
        if not isinstance(self.real, Fraction) or not isinstance(self.imag, Fraction):
            raise TypeError("components must be fractions")

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        norm = other.real * other.real + other.imag * other.imag
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
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


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
I = GaussianRational(Fraction(0), Fraction(1))


def gaussian(real, imag=0) -> GaussianRational:
    """Build a Gaussian rational from ints, fractions or fraction strings."""
    return GaussianRational(Fraction(real), Fraction(imag))


def gaussian_from_pair(pair) -> GaussianRational:
    """Parse the wire form: a two-element [real, imaginary] fraction-string pair."""
    re, im = pair
    return GaussianRational(Fraction(str(re)), Fraction(str(im)))


def gaussian_to_pair(value: GaussianRational) -> list[str]:
    return [str(value.real), str(value.imag)]


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
        candidate.append(GaussianRational(real, imag))
    candidate = tuple(candidate)
    if any(poly_divmod(f, candidate)[1] for f in polys):
        return None
    return candidate


def _images(polys, p: int, s: int):
    """Coefficient lists of the polynomials under i -> s and i -> -s mod p,
    or None if p divides a denominator or either image of a leading
    coefficient is zero."""
    plus, minus = [], []
    for f in polys:
        f_plus, f_minus = [], []
        for c in f:
            re_den, im_den = c.real.denominator, c.imag.denominator
            if re_den % p == 0 or im_den % p == 0:
                return None
            re = c.real.numerator * pow(re_den, -1, p)
            im = c.imag.numerator * pow(im_den, -1, p) * s
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


def _reconstruct(u: int, p: int) -> Fraction | None:
    """The fraction n/d = u (mod p) with |n|, d <= sqrt(p/2), if one exists
    (Wang's half-extended Euclid; such a fraction is unique)."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


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
