"""The worst-case corpus: CLI runs at or just past each size cap.

No input within the documented caps may run for minutes, and an input
past a cap must be refused with its error code. Each row of `ROWS` is one
fresh `python -X dev -W error -m torickit.cli` process: a name, a seeded
builder that returns {file name: JSON object}, the argv (file names the
builder returns stand for their paths), the expected exit code and a
predicate on the JSON body. `DIGESTS` pins the sha256 of every input
file, and the two census rows pin the sha256 of their whole body.

    python tests/worst_cases.py OUT_DIR

writes each row's inputs under OUT_DIR, checks their digests, runs the
row under `BUDGET_S` seconds, requires the exit code and the predicate,
prints one line per row and exits 1 if any row failed.
`tests/test_worst_cases.py` checks the table and every digest in tier-1
without running the rows. The CLI tests take the cp1^k builder, the
10^3000 plane fan and the documents above the caps from here, and every
test that starts a fresh process takes `fresh_env` and `CLI` from here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import torickit
from torickit.catalog import cp_fan
from torickit.document import document_from_fan, document_to_obj, poly_tuple_to_obj
from torickit.fans import Fan
from torickit.gaussian import gaussian, poly_from_roots
from torickit.holmap import PolyTuple

BUDGET_S = 30

# A fresh CLI process under CI's warning settings: a ResourceWarning or
# DeprecationWarning fails it.
DEV_PYTHON = (sys.executable, "-X", "dev", "-W", "error")
CLI = (*DEV_PYTHON, "-m", "torickit.cli")


def fresh_env():
    """The environment of a fresh process with the imported torickit's `src` first on PYTHONPATH."""
    src = str(Path(torickit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class Row(NamedTuple):
    name: str
    build: Callable[[], dict]
    argv: tuple[str, ...]
    exit: int
    check: Callable[[dict], bool]


def fan_doc(name, fan, **fields):
    """The fan document of `fan` called `name`, with `fields` replaced."""
    obj = document_to_obj(document_from_fan(fan, name))
    obj.update(fields)
    return {f"{name}.json": obj}


def cp(n):
    return fan_doc(f"cp{n}", cp_fan(n))


def _raw(gens, cones):
    """A fan document with no name, as a hand-written one would be."""
    return {"schema_version": 1, "dimension": len(gens[0]), "generators": gens, "maximal_cones": cones}


def cp1_power(k):
    """cp1^k: the rays +-e_i, one maximal cone per sign pattern (2^k)."""
    gens = [[s * int(i == j) for j in range(k)] for i in range(k) for s in (1, -1)]
    cones = [[2 * i + s + 1 for i, s in enumerate(p)] for p in itertools.product((0, 1), repeat=k)]
    return _raw(gens, cones)


def _digits50():
    rng = random.Random(50)
    gens = [[rng.randrange(-10**50 + 1, 10**50) for _ in range(20)] for _ in range(20)]
    return {"digits50.json": _raw(gens, [[k] for k in range(1, 21)])}


# A valid plane fan whose witness degree (Q^2, 1, Q) has an entry of 6,001
# digits, above CPython's 4,300-digit limit for printing an integer.
Q = 10**3000
LONG_INTEGER = _raw([[1, 0], [0, Q], [-Q, -1]], [[1, 2], [2, 3], [3, 1]])

# Each above one document cap: 1,024 maximal cones; dimension 3,000; 21 rays.
ABOVE_CAPS = {
    "cp1-10.json": cp1_power(10),
    **fan_doc(
        "cp5-padded", cp_fan(5), dimension=3000, generators=[[*g] + [0] * 2995 for g in cp_fan(5).generators]
    ),
    **cp(20),
}


def _cp2xcp1():
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [(a, b, c) for a, b in ((0, 1), (1, 2), (0, 2)) for c in (3, 4)]
    return fan_doc("cp2xcp1", Fan.from_maximal(rays, cones))


def _part(rng, top, den, sign):
    num = sign * rng.randint(1, top) if sign else rng.randint(-top, top)
    return Fraction(num, rng.randint(1, den))


def _roots(rng, count, top=9, den=4, sign=0):
    """`count` seeded Gaussian rationals x + y i. The numerators of x and y
    lie in [-top, top], or x's in sign * [1, top] when `sign` is nonzero;
    the denominators lie in [1, den]."""
    return [gaussian(_part(rng, top, den, sign), _part(rng, top, den, 0)) for _ in range(count)]


def _poly(roots):
    return poly_from_roots([(z, 1) for z in roots])


def _tuple(name, *polys):
    return {f"{name}.json": poly_tuple_to_obj(PolyTuple.from_polys(polys))}


# One continuing stream draws the shared root, then the tuple at degree
# 320 (holmap.MAX_DEGREE), then the one at 319; three rows share the build.
@cache
def _near_degree_cap():
    rng = random.Random(320)
    shared = _roots(rng, 1)
    return {
        **cp(4),
        **_tuple("cp4-degree-cap", *[_poly(shared + _roots(rng, 319)) for _ in range(5)]),
        **_tuple("cp4-degree-below-cap", *[_poly(shared + _roots(rng, 318)) for _ in range(5)]),
    }


def _tall_root():
    """A shared root past one prime's reconstruction bound."""
    rng = random.Random(320)
    shared = [gaussian(Fraction(2**40, 3**25), Fraction(-5**20, 7**13))]
    return {**cp(4), **_tuple("cp4-tall-root", *[_poly(shared + _roots(rng, 319)) for _ in range(5)])}


def _two_prime_denominator():
    """Both precomputed primes divide one root's denominator; the other roots
    lie in opposite half-planes."""
    rng = random.Random(320)
    tiny = gaussian(Fraction(1, (2**61 - 31) * (2**61 - 259)))
    first = _poly([tiny] + _roots(rng, 319, sign=1))
    return {**cp(1), **_tuple("cp1-two-prime-denominator", first, _poly(_roots(rng, 320, sign=-1)))}


def _equal():
    """A gcd equal to a whole input, thousands of bits tall."""
    f = _poly(_roots(random.Random(320), 320, 2**12, 2**12))
    return {**cp(1), **_tuple("cp1-equal", f, f)}


def _tall_divisor():
    """A degree-160 divisor g of f = g h at degree 320 (exact trial division)."""
    rng = random.Random(320)
    g, h = (_roots(rng, 160, 2**12, 2**12) for _ in range(2))
    return {**cp(1), **_tuple("cp1-tall-divisor", _poly(g + h), _poly(g))}


def _error(code):
    return lambda r: r["error"] == code


def _digest(body):
    """The sha256 of the body as `json.dumps` writes it back."""
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def _verdict(member, *violated):
    return lambda r: r["member"] is member and r["violated_collections"] == list(violated)


CP19_RAYS = list(range(1, 21))

ROWS = (
    # 20 rays: document.MAX_RAYS.
    Row("cp19-analyze", lambda: cp(19), ("analyze", "cp19.json"), 0, lambda r: r["r_min"] == 20),
    # Any 19 of the 20 rays are a basis, so the one cone is the only dependent face.
    Row(
        "cp19-one-cone-analyze",
        lambda: fan_doc("cp19-one-cone", cp_fan(19), maximal_cones=[CP19_RAYS]),
        ("analyze", "cp19-one-cone.json"),
        2,
        lambda r: r["violations"] == [{"axiom": "SIMPLICIALITY", "witness": [CP19_RAYS]}],
    ),
    Row(
        "digits50-analyze",
        _digits50,
        ("analyze", "digits50.json"),
        0,
        lambda r: r["cox"]["condition_positive_degree"] is False,
    ),
    Row(
        "long-integer-analyze",
        lambda: {"long-integer.json": LONG_INTEGER},
        ("analyze", "long-integer.json"),
        3,
        _error("VALUE_ERROR"),
    ),
    # d_min at stability.MAX_D_MIN and one above it, written out so that a
    # moved cap fails a row (so are the degrees at holmap.MAX_DEGREE).
    Row(
        "cp2-stability",
        lambda: cp(2),
        ("stability", "cp2.json", "--degrees", "15000,15000,15000"),
        0,
        lambda r: r["oracle_dim"] == r["stability_dim"],
    ),
    Row(
        "cp2-above-cap",
        lambda: cp(2),
        ("stability", "cp2.json", "--degrees", "15001,15001,15001"),
        3,
        _error("D_MIN_ABOVE_CAP"),
    ),
    Row(
        "cp4-holcheck",
        _near_degree_cap,
        ("holcheck", "cp4.json", "cp4-degree-cap.json"),
        0,
        _verdict(False, [1, 2, 3, 4, 5]),
    ),
    Row(
        "cp4-stabilize",
        _near_degree_cap,
        ("stabilize", "cp4.json", "cp4-degree-below-cap.json", "--increment", "1,1,1,1,1"),
        0,
        lambda r: r["member"] is False and r["degrees_after"] == [320] * 5,
    ),
    Row(
        "cp4-above-cap",
        _near_degree_cap,
        ("stabilize", "cp4.json", "cp4-degree-cap.json", "--increment", "1,1,1,1,1"),
        3,
        _error("DEGREE_ABOVE_CAP"),
    ),
    Row(
        "cp4-tall-root-holcheck",
        _tall_root,
        ("holcheck", "cp4.json", "cp4-tall-root.json"),
        0,
        _verdict(False, [1, 2, 3, 4, 5]),
    ),
    Row(
        "cp1-two-prime-denominator-holcheck",
        _two_prime_denominator,
        ("holcheck", "cp1.json", "cp1-two-prime-denominator.json"),
        0,
        _verdict(True),
    ),
    Row("cp1-equal-holcheck", _equal, ("holcheck", "cp1.json", "cp1-equal.json"), 0, _verdict(False, [1, 2])),
    Row(
        "cp1-tall-divisor-holcheck",
        _tall_divisor,
        ("holcheck", "cp1.json", "cp1-tall-divisor.json"),
        0,
        _verdict(False, [1, 2]),
    ),
    # 45 and 190 edges: far more than census.MAX_SUBFANS proper subfans.
    Row("cp9-subfans", lambda: cp(9), ("subfans", "cp9.json"), 3, _error("SUBFAN_COUNT_ABOVE_CAP")),
    Row("cp19-subfans", lambda: cp(19), ("subfans", "cp19.json"), 3, _error("SUBFAN_COUNT_ABOVE_CAP")),
    *(
        Row(
            f"{name[:-5]}-analyze", lambda n=name: {n: ABOVE_CAPS[n]}, ("analyze", name), 1, _error("DOCUMENT_ERROR")
        )
        for name in ABOVE_CAPS
    ),
    # 1,194 subfans in 157 classes. The whole body is pinned, so a change in
    # a class's members or in the order of the classes fails the row.
    Row(
        "cp2xcp1-classes",
        _cp2xcp1,
        ("subfans", "cp2xcp1.json", "--classify"),
        0,
        lambda r: r["classes"]["count"] == 157
        and _digest(r) == "d5507d817ccfe4e12970287920c2bf9c3f73c78b397ccd0736762dc537d98e17",
    ),
    # 12,642 subfans in 401 classes: ten times the census above.
    Row(
        "cp1x3-classes",
        lambda: {"cp1x3.json": cp1_power(3)},
        ("subfans", "cp1x3.json", "--classify"),
        0,
        lambda r: r["count"] == 12642
        and r["classes"]["count"] == 401
        and _digest(r) == "0b5b67b49297829f68c28668f9fd9cbaeed12f60ff320639262d5289f1b6e903",
    ),
)

DIGESTS = {
    "cp1-10.json": "bfdb4b0deb9e6fd0a42a64fc0a07bddf5fe26aea291086b742917123e0eb39cc",
    "cp1-equal.json": "ef88787392df7b823ae3a91593c1aafb5d4055701f79fa9a0da0661c96342747",
    "cp1-tall-divisor.json": "1037aa6abb5ba289e7f09cd8b31dd205ce039ef6e27e25fb0887dcb04d9002d4",
    "cp1-two-prime-denominator.json": "9cc708c990f98b16a67474c57efb4ed683bafcdb956119582f37300622ae3464",
    "cp1.json": "c6c23d0792dd4bac0ac63c795a941d9c3cd500800ce4b5beee54b09ca8c65543",
    "cp19-one-cone.json": "f0b6068df6b9450a4e2fcdc7ba566a256638919a12f10e07c436ce87060442d8",
    "cp19.json": "75f35634cb8724c8a2783885e5b12979d6a3b4321a973df6ffad5876e2656ca8",
    "cp1x3.json": "f6539e7964529b2da1b0b02f0d143b6eaabee07d4566cf856f2ecd843d67f6fd",
    "cp2.json": "1eef7b29550d2eba7a00ffb4b7922f244b30eee67f45ad895ef95991e0c670ed",
    "cp20.json": "cead9072a709ff3022327c64bf1de78ed937cc5d97ef7970c6df3ca8ea8f711b",
    "cp2xcp1.json": "6aba22ea45ee461b8a85eeb529ff79a4704c10b562169e91142b0295fffaa6d6",
    "cp4-degree-below-cap.json": "2ba4460681ef500281608aa6daed3b17f46e318192ee9055ba89633c94608611",
    "cp4-degree-cap.json": "fa85ac5c253dc4106971fff2dfbf9e935ef7c2f2a17a77bdbfdecf777c171ebd",
    "cp4-tall-root.json": "5faecb9abacbf95baa379b5a68f49d85e83928ee699326ba63901ee2fea77a90",
    "cp4.json": "8f763d21e0fa5b959adcb66ea09087e2bb7e58e95de39762f0f184e1ab7a588b",
    "cp5-padded.json": "94deb85150d909b250245ec57d49c3049e506b85c4d32681f4a3b4776cac495e",
    "cp9.json": "be5597571e61797d3b460aa04d4ce710293f38666a20442135689f279f3e7c30",
    "digits50.json": "74e6cf752914b16f106798f31ba490cf8edf6c2f865770758ee74a3692cda602",
    "long-integer.json": "b0339bc126a848e649938f6fab6fb8e9875b15a8cf0aa2f892822dc69614808f",
}


def _outcome(row, out):
    """Whether `row` passes, and what its process did or why it failed."""
    files = row.build()
    for name, obj in files.items():
        data = json.dumps(obj).encode()
        if hashlib.sha256(data).hexdigest() != DIGESTS.get(name):
            return False, f"{name} does not match its pinned digest"
        (out / name).write_bytes(data)
    argv = [str(out / a) if a in files else a for a in row.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run([*CLI, *argv], stdout=subprocess.PIPE, env=fresh_env(), timeout=BUDGET_S)
    except subprocess.TimeoutExpired:
        return False, f"no exit within {BUDGET_S} s"
    took = f"exit {proc.returncode} in {time.perf_counter() - start:.1f} s"
    if proc.returncode != row.exit:
        return False, f"{took}, expected exit {row.exit}"
    try:
        body = json.loads(proc.stdout)
        passed = isinstance(body, dict) and row.check(body)
    except (ValueError, LookupError, TypeError):
        passed = False
    return passed, took if passed else f"{took}, but the body fails the check"


def run(out, rows=ROWS):
    """Run `rows` with their inputs under `out`, print one line per row and
    return whether every row passed."""
    out.mkdir(parents=True, exist_ok=True)
    passed = True
    for row in rows:
        ok, detail = _outcome(row, out)
        print(f"{'ok  ' if ok else 'FAIL'} {row.name}: {detail}", flush=True)
        passed = passed and ok
    return passed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/worst_cases.py OUT_DIR")
    sys.exit(0 if run(Path(sys.argv[1])) else 1)
