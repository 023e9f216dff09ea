"""Seeded job lists and input documents for the torickit benchmark.

    PYTHONPATH=src python3 perfbench/gen.py --workload NAME --seed N --out DIR

writes the fan and tuple documents into DIR/inputs and the job list into
DIR/jobs.json. Each job is a CLI argument vector plus the answer it must
produce. Documents are built only from the public constructors (`cp_fan`,
`hirzebruch_fan`, `c2_fan`, `poly_from_roots`) and serialisers; every
expected answer comes from the construction itself (closed forms per fan
family, set intersection of generated roots), never from torickit's own
computations.

The seed relabels rays, picks degree and root values and orders the jobs.
The size mix of every workload (fan sizes, d_min values, polynomial
degrees, member / non-member split) is fixed, so different seeds give
comparable amounts of work.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from torickit import c2_fan, cp_fan, hirzebruch_fan
from torickit.document import document_from_fan, document_to_obj, poly_tuple_to_obj
from torickit.fans import Fan
from torickit.gaussian import gaussian, poly_from_roots
from torickit.holmap import PolyTuple

WORKLOADS = ("analyze_census", "stability_sweep", "membership")


@dataclass(frozen=True)
class Built:
    """A fan with the answers its construction implies (0-based indices)."""

    name: str
    fan: Fan
    collections: tuple[frozenset, ...]  # primitive collections
    witness: tuple[int, ...] | None  # minimal-sum positive kernel vector
    complete: bool = True

    @property
    def r_min(self) -> int:
        return min(len(c) for c in self.collections)


def cp(n: int) -> Built:
    return Built(f"cp{n}", cp_fan(n), (frozenset(range(n + 1)),), (1,) * (n + 1))


def hirzebruch(k: int) -> Built:
    # Kernel vectors are (a, b, a, b + k*a); the minimal sum is at a = b = 1.
    return Built(
        f"hirzebruch{k}",
        hirzebruch_fan(k),
        (frozenset({0, 2}), frozenset({1, 3})),
        (1, 1, 1, k + 1),
    )


def c2() -> Built:
    return Built("c2", c2_fan(), (frozenset({0, 1}),), None, complete=False)


def product(*ns: int) -> Built:
    """cp_{n1} x cp_{n2} x ...: generators and cones of each `cp_fan` factor
    placed in their own block of coordinates."""
    factors = [cp_fan(n) for n in ns]
    dim = sum(f.dim for f in factors)
    gens, cones, collections, offset = [], [()], [], 0
    for f in factors:
        base = len(gens)
        gens += [(0,) * offset + g + (0,) * (dim - offset - f.dim) for g in f.generators]
        cones = [c + tuple(base + i for i in sorted(m)) for c in cones for m in f.maximal_faces()]
        collections.append(frozenset(range(base, len(gens))))
        offset += f.dim
    name = "x".join(f"cp{n}" for n in ns)
    return Built(name, Fan.from_maximal(gens, cones), tuple(collections), (1,) * len(gens))


def relabel(built: Built, perm: list[int]) -> Built:
    """The same fan with ray i renamed perm[i]."""
    fan = built.fan
    gens = [None] * fan.ray_count
    for i, g in enumerate(fan.generators):
        gens[perm[i]] = g
    cones = [[perm[i] for i in face] for face in fan.maximal_faces()]
    return Built(
        built.name,
        Fan.from_maximal(gens, cones),
        tuple(frozenset(perm[i] for i in c) for c in built.collections),
        None if built.witness is None else permute(built.witness, perm),
        built.complete,
    )


def permute(vector, perm: list[int]) -> tuple:
    out = [None] * len(vector)
    for i, value in enumerate(vector):
        out[perm[i]] = value
    return tuple(out)


def one_based(sets) -> list[list[int]]:
    return sorted(sorted(i + 1 for i in s) for s in sets)


class Jobs:
    """Collects input documents and jobs for one workload."""

    def __init__(self, out: str, seed: int):
        self.rng = random.Random(seed)
        self.inputs = os.path.join(out, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        self.jobs: list[dict] = []

    def perm(self, n: int) -> list[int]:
        return self.rng.sample(range(n), n)

    def shuffled(self, built: Built) -> tuple[Built, list[int]]:
        """The fan under a random relabelling of its rays, and that relabelling."""
        perm = self.perm(built.fan.ray_count)
        return relabel(built, perm), perm

    def write(self, stem: str, obj: dict) -> str:
        path = os.path.join(self.inputs, stem + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        return path

    def fan_file(self, stem: str, fan: Fan, name: str) -> str:
        return self.write(stem, document_to_obj(document_from_fan(fan, name)))

    def add(self, name: str, argv: list[str], expect: dict) -> None:
        self.jobs.append({"name": name, "kind": argv[0], "argv": argv, "expect": expect})


# -- analyze_census ---------------------------------------------------------


def valid_expectation(b: Built) -> dict:
    fan = b.fan
    rank = fan.dim  # every valid fan here spans R^n with unimodular cones
    return {
        "exit": 0,
        "fields": {
            "valid": True,
            "r_min": b.r_min,
            "primitive_collections": one_based(b.collections),
            "dimension": fan.dim,
            "ray_count": fan.ray_count,
            "smooth": True,
            "complete": b.complete,
            "cox.free_rank": fan.ray_count - rank,
            "cox.finite_part": [],
            "cox.condition_span": True,
            "cox.condition_positive_degree": b.witness is not None,
            "cox.witness_degree": None if b.witness is None else list(b.witness),
            "cox.pi2_rank": fan.ray_count - rank,
        },
    }


def invalid_fan(kind: str, n: int, rng: random.Random):
    """A cp_n variant breaking one axiom, with its exact violation set.

    overlap: ray v = e_i + e_j and the cone (e_l, l != i) + v, which lies
      inside cone(e_1..e_n). It meets that cone, and every cone of cp_n
      that drops some e_m with m not in {i, j}, in more than a common face.
    nonsimplicial: one cone on all n + 1 rays of cp_n.
    duplicate: a second copy of e_i as an extra ray.
    """
    base = cp_fan(n)
    gens = list(base.generators)
    cones = [tuple(sorted(f)) for f in base.maximal_faces()]
    basis_cone = tuple(range(n))
    if kind == "overlap":
        i, j = rng.sample(range(n), 2)
        gens.append(tuple(1 if t in (i, j) else 0 for t in range(n)))
        new = tuple(sorted([t for t in range(n) if t != i] + [n + 1]))
        cones.append(new)
        partners = [basis_cone] + [
            tuple(t for t in range(n + 1) if t != m) for m in range(n) if m not in (i, j)
        ]
        violations = [("INTERSECTION", (p, new)) for p in partners]
    elif kind == "nonsimplicial":
        cones.append(tuple(range(n + 1)))
        violations = [("SIMPLICIALITY", (tuple(range(n + 1)),))]
    else:
        i = rng.randrange(n)
        gens.append(gens[i])
        cones.append(tuple(sorted([t for t in range(n) if t != i] + [n + 1])))
        violations = [("DISTINCT_GENERATORS", ((i, n + 1),))]
    return gens, cones, violations


def analyze_census(jobs: Jobs) -> None:
    rng = jobs.rng
    valid = [cp(n) for n in range(2, 6)] + [hirzebruch(k) for k in range(1, 7)] + [c2()]
    # No cp3 x cp2: at about 4 s a job it made a pass too long for two
    # passes to fit in the run.
    valid += [product(*ns) for ns in ((1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (1, 1, 1, 1))]
    for b in valid:
        b, _ = jobs.shuffled(b)
        path = jobs.fan_file(b.name, b.fan, b.name)
        jobs.add(f"analyze/{b.name}", ["analyze", path], valid_expectation(b))

    # The cheap invalid fans also make small jobs a majority of the list, so
    # that job_p50_ms is the time of a typical small job and not of a job
    # at the edge between two cost groups.
    invalid = [("overlap", n) for n in (2, 3, 4)]
    invalid += [("nonsimplicial", n) for n in range(2, 7)] + [("duplicate", n) for n in range(2, 7)]
    for kind, n in invalid:
        gens, cones, violations = invalid_fan(kind, n, rng)
        perm = jobs.perm(len(gens))
        fan = Fan.from_maximal(permute(gens, perm), [[perm[i] for i in c] for c in cones])
        name = f"{kind}{n}"
        path = jobs.fan_file(name, fan, name)
        expected = [
            {"axiom": axiom, "witness": [sorted(perm[i] + 1 for i in group) for group in witness]}
            for axiom, witness in violations
        ]
        jobs.add(
            f"analyze/{name}",
            ["analyze", path],
            {"exit": 2, "fields": {"valid": False}, "violations": expected},
        )

    # Subfan census on canonical labels: the classification cost depends on
    # the ray order, so relabelling here would make seeds unequal in work.
    for b, count in ((hirzebruch(1), 15), (hirzebruch(2), 15), (hirzebruch(3), 15), (product(1, 1), 15), (cp(3), 112)):
        path = jobs.fan_file("subfans_" + b.name, b.fan, b.name)
        jobs.add(
            f"subfans/{b.name}",
            ["subfans", path, "--classify"],
            {"exit": 0, "fields": {"count": count}, "partition": True},
        )


# -- stability_sweep --------------------------------------------------------

D_LOW = 20
D_MAX = 28
# One job for each d_min in 1..D_LOW, nine each at d_min D_MAX - 1 and D_MAX,
# and six negatives: 44 jobs. The 26 jobs with d_min <= D_LOW or an error are
# a clear majority, so job_p50_ms is the fixed cost of one call. job_tail_ms,
# the 77th percentile of the 44 jobs, is the middle of the 18 jobs where
# replay takes most of the time, not their edge.
POSITIVE_JOBS = D_LOW + 18
PRODUCTS = ((1, 1), (2, 1))


def stability_expectation(b: Built, degrees: tuple[int, ...]) -> dict:
    r, d = b.r_min, min(degrees)
    dim = (2 * r - 3) * d - 2
    return {
        "exit": 0,
        "fields": {
            "degrees": list(degrees),
            "r_min": r,
            "d_min": d,
            "stability_dim": dim,
            "oracle_dim": dim,
            "kind": "HOMOTOPY" if r >= 3 else "HOMOLOGY",
            "connectivity": 2 * (r - 2),
            "vanishing_line": (2 * r - 2) * d - 1,
            "primitive_collections": one_based(b.collections),
        },
    }


def error_expectation(code: str) -> dict:
    return {"exit": 3, "fields": {"error": code}}


def stability_sweep(jobs: Jobs) -> None:
    """POSITIVE_JOBS jobs cycling the fan family through Hirzebruch, cp_n and
    products and d_min through 1..D_LOW, then through D_MAX - 1 and D_MAX,
    plus six negative jobs.

    The fan of each job depends on its index only, so every seed does the
    same validation and replay work; the seed picks labels and degrees."""
    rng = jobs.rng

    def other(d):  # the larger of two block degrees
        return d + rng.randint(0, 5)

    for index in range(POSITIVE_JOBS):
        d = index + 1 if index < D_LOW else D_MAX - index % 2
        slot = index % 3
        if slot == 0:
            k = index % 5 + 1
            b, perm = jobs.shuffled(hirzebruch(k))
            a, c = (d, other(d)) if rng.random() < 0.5 else (other(d), d)
            degrees = permute((a, c, a, c + k * a), perm)
            argv = ["--free", f"{perm[0] + 1}={a},{perm[1] + 1}={c}"]
        elif slot == 1:
            b, _ = jobs.shuffled(cp(index // 3 % 3 + 1))
            degrees = (d,) * b.fan.ray_count
            argv = ["--degrees", ",".join(map(str, degrees))]
        else:
            ns = PRODUCTS[index % 2]
            b, perm = jobs.shuffled(product(*ns))
            low, high = (d, other(d)) if rng.random() < 0.5 else (other(d), d)
            degrees = permute((low,) * (ns[0] + 1) + (high,) * (ns[1] + 1), perm)
            argv = ["--degrees", ",".join(map(str, degrees))]
        stem = f"{b.name}_d{d}_{index}"
        path = jobs.fan_file(stem, b.fan, b.name)
        jobs.add(f"stability/{stem}", ["stability", path] + argv, stability_expectation(b, degrees))

    for rep in range(2):
        path = jobs.fan_file(f"c2_{rep}", c2_fan(), "c2")
        argv = ["stability", path, "--degrees", f"{rng.randint(1, 9)},{rng.randint(1, 9)}"]
        jobs.add(f"stability/c2_{rep}", argv, error_expectation("CONDITION_2_FAILED"))

        b, _ = jobs.shuffled(cp(2))
        path = jobs.fan_file(f"cp2_nk_{rep}", b.fan, b.name)
        d = rng.randint(1, 9)
        degrees = [d, d, d]
        degrees[rng.randrange(3)] += rng.randint(1, 3)
        argv = ["stability", path, "--degrees", ",".join(map(str, degrees))]
        jobs.add(f"stability/cp2_nk_{rep}", argv, error_expectation("NOT_IN_KERNEL"))

        b, _ = jobs.shuffled(product(*PRODUCTS[rep]))
        path = jobs.fan_file(f"{b.name}_under_{rep}", b.fan, b.name)
        argv = ["stability", path, "--free", f"{rng.randint(1, b.fan.ray_count)}={rng.randint(1, 9)}"]
        jobs.add(f"stability/{b.name}_under_{rep}", argv, error_expectation("UNDERDETERMINED"))


# -- membership -------------------------------------------------------------

LEVELS = (4, 12, 20, 24)
# cp4 only at the top level: validating cp4 costs about seven times cp3, and
# at every level it would make validation, not the gcd, the workload's main
# cost.
FANS = ((hirzebruch, 1, LEVELS), (cp, 2, LEVELS), (cp, 3, LEVELS), (cp, 4, LEVELS[-1:]))


def membership(jobs: Jobs) -> None:
    """Per fan and degree level: a member and a non-member tuple, both
    checked by `holcheck`; `stabilize` runs on one of the two."""
    rng = jobs.rng
    used: set = set()

    def fresh_root():
        while True:
            z = (
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            )
            if z not in used:
                used.add(z)
                return z

    for build, n, levels in FANS:
        base = build(n)
        for position, level in enumerate(levels):
            r = base.fan.ray_count
            if base.name == "hirzebruch1":  # kernel vectors (a, c, a, a + c)
                a, c = level // 2, level - level // 2
                s, t = rng.randint(1, 2), rng.randint(1, 2)
                degrees, increment = (a, c, a, a + c), (s, t, s, s + t)
            else:
                degrees, increment = (level,) * r, (rng.randint(1, 2),) * r
            b, perm = jobs.shuffled(base)
            degrees, increment = permute(degrees, perm), permute(increment, perm)
            fan_path = jobs.fan_file(f"{b.name}_L{level}", b.fan, b.name)
            stabilized = position % 2  # alternate: members and non-members alike
            for member in (True, False):
                used.clear()
                roots = [[fresh_root() for _ in range(d)] for d in degrees]
                if not member:
                    shared = fresh_root()
                    for i in rng.choice(b.collections):
                        roots[i][0] = shared
                tup = PolyTuple.from_polys(
                    poly_from_roots([(gaussian(*z), 1) for z in slot]) for slot in roots
                )
                stem = f"{b.name}_L{level}_{'m' if member else 'n'}"
                tuple_path = jobs.write(stem, poly_tuple_to_obj(tup))
                violated = violated_collections(roots, b.collections)
                jobs.add(
                    f"holcheck/{stem}",
                    ["holcheck", fan_path, tuple_path],
                    {
                        "exit": 0,
                        "fields": {
                            "member": not violated,
                            "degrees": list(degrees),
                            "violated_collections": one_based(violated),
                        },
                    },
                )
                if member != bool(stabilized):
                    continue
                total = sum(degrees)
                points = [Fraction(total) + Fraction(j, r + 1) for j in range(1, r + 1)]
                grown = [slot + [(p, Fraction(0))] for slot, p in zip(roots, points)]
                jobs.add(
                    f"stabilize/{stem}",
                    ["stabilize", fan_path, tuple_path, "--increment", ",".join(map(str, increment))],
                    {
                        "exit": 0,
                        "fields": {
                            "member": not violated_collections(grown, b.collections),
                            "degrees_before": list(degrees),
                            "degrees_after": [d + e for d, e in zip(degrees, increment)],
                            "increment": list(increment),
                            "points": [[str(p), "0"] for p in points],
                        },
                    },
                )


def violated_collections(roots, collections) -> list[frozenset]:
    """Collections whose root sets share a point: the non-member witnesses."""
    return [
        c for c in collections if set.intersection(*(set(roots[i]) for i in c))
    ]


GENERATORS = {
    "analyze_census": analyze_census,
    "stability_sweep": stability_sweep,
    "membership": membership,
}


def generate(workload: str, seed: int, out: str) -> list[dict]:
    jobs = Jobs(out, seed)
    GENERATORS[workload](jobs)
    jobs.rng.shuffle(jobs.jobs)
    return jobs.jobs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    jobs = generate(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "jobs.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "jobs": jobs}, handle)


if __name__ == "__main__":
    main()
