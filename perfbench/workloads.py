"""The benchmark's workloads: seeded operation streams, their execution
against the package, and the answer checks.

Each workload is a closed loop with one client.  A run is a whole number of
rounds; a round has a fixed composition of operation kinds, and the seed
picks the parameters of every operation and their order inside the round.
So two seeds give different streams with the same mix, and the medians and
percentiles of different seeds stay comparable.

Operations are plain data (tuples of ints and strings), generated before
anything is timed; ``execute`` runs one against the package and returns its
answer, and ``check`` compares the answer with facts from ``oracle`` or with
laws the answers must obey.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracle as o

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def label(cls) -> str:
    return "+".join(f"{e}x{f}" for e, f in cls)


def _split(n):
    return ((1, 1),) * n


# Unramified splitting classes with Chebotarev density at least 1/8, so each
# class atom is infinite and well witnessed below the sampling bound.
ATOMS = {
    o.GAUSS: (_split(2), ((1, 2),)),
    o.ROOT5: (_split(2), ((1, 2),)),
    o.CUBE2: (_split(3), ((1, 3),), ((1, 1), (1, 2))),
    o.CYCLO5: (_split(4), ((1, 2), (1, 2)), ((1, 4),)),
    o.QUINTIC: (((1, 1), (1, 2), (1, 2)), ((1, 1), (1, 1), (1, 3)),
                ((1, 2), (1, 3)), ((1, 1), (1, 4)), ((1, 5),)),
}


class Workload:
    name = ""
    # Median length of one round, measured on a 2-core 2.0 GHz Xeon virtual
    # machine at the commit that introduced the benchmark; a run does
    # seconds / round_seconds rounds (at least one), so its length follows
    # --seconds there and shrinks or grows with the program's speed.
    round_seconds = 1.0
    setup_samples = 3

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_seconds))

    def generate(self, seed: int, rounds: int) -> list[tuple]:
        raise NotImplementedError

    def setup(self, seed: int, on_import=None):
        """Import the package and build what the timed loop needs; calls
        on_import (the tracer's install) right after the imports."""
        raise NotImplementedError

    def execute(self, state, op):
        """Run one operation; returns (answer, extra): the answer goes into
        the checksum, extra only to check()."""
        raise NotImplementedError

    def check(self, state, op, answer) -> list[str]:
        """Return one message per violated fact (empty when correct)."""
        raise NotImplementedError

    def record(self) -> dict:
        raise NotImplementedError


# -- cold CLI calls ---------------------------------------------------------------

CLI_FIELDS = (o.GAUSS, o.ROOT5, o.CUBE2, o.CYCLO5)

README_PLAIN = (
    ("factor", "--poly", "1,0,1", "--prime", "5"),
    ("classify", "--ideal", "zero@p:5:0"),
    ("fiber", "--ideal", "zero@p:5:0", "--ext", "1,0,1"),
)
README_FREE = (
    ("member", "--ideal", "max@free:1,0,1:1x1+1x1", "--adele", "uni"),
    ("member", "--ideal", "max@free:1,0,1:1x1+1x1", "--adele", "diag:6"),
    ("fiber", "--ideal", "between@free:1,0,1:1x1+1x1@uni", "--ext", "1,0,1"),
    ("density", "--ultra", "free:1,0,1:1x1+1x1", "--constraint", "2:0:1:3"),
)


def _parse_kv(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        head, _, rest = line.partition(" ")
        key, sep, value = head.partition("=")
        if sep and not rest:
            out.setdefault(key, value)
    return out


class CliWorkload(Workload):
    """Fresh ``python -m adelic.cli`` processes, one at a time."""

    setup_samples = 5

    def setup(self, seed, on_import=None):
        return {"tracer": None}

    def execute(self, state, op):
        """Run one CLI call in a fresh process; with a tracer, the call runs
        under ``cli_child.py`` and its spans are merged into the tracer."""
        tracer = state["tracer"]
        if tracer is None:
            command = ["-m", "adelic.cli"]
        else:
            command = [str(Path(__file__).resolve().parent / "cli_child.py")]
        proc = subprocess.run([sys.executable, *command, *op[1]], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True)
        if tracer is None:
            return (proc.returncode, proc.stdout), None
        if proc.returncode != 0:
            return (proc.returncode, proc.stdout), None
        report = json.loads(proc.stdout)
        tracer.merge(report["trace"], tracer.op_id)
        return (report["rc"], report["stdout"]), None

    def check(self, state, op, answer):
        (rc, stdout), _ = answer
        if rc != 0:
            return [f"exit code {rc}"]
        facts = dict(op[2])
        kv = _parse_kv(stdout)
        errors = []
        for key, want in facts.items():
            if key == "factor":
                errors += _check_factor_output(stdout, want)
                continue
            if key == "entries":
                errors += _check_entries(stdout, want)
                continue
            if key == "satisfied":
                lines = [line for line in stdout.splitlines() if line.startswith("constraint ")]
                if len(lines) != want or any("satisfied=true" not in line for line in lines):
                    errors.append(f"constraint lines {lines}, expected {want} satisfied")
                continue
            got = kv.get(key)
            if got != want:
                errors.append(f"{key}={got}, expected {want}")
        return errors


CLI_PRIMES = tuple(p for p in o.primes_below(2000) if p > 2)


def _supported_prime(rng, f):
    while True:
        p = rng.choice(CLI_PRIMES)
        if p not in o.EXCLUDED.get(f, ()):
            return p


def _check_factor_output(stdout, spec):
    """sum_ef equals the degree, the place count matches distinct-degree
    splitting, and prod factor**e equals f mod p."""
    f, p = spec
    kv = _parse_kv(stdout)
    errors = []
    if kv.get("sum_ef") != kv.get("degree") or kv.get("degree") != str(len(f) - 1):
        errors.append(f"sum_ef={kv.get('sum_ef')} degree={kv.get('degree')}")
    factors = []
    for line in stdout.splitlines():
        if line.startswith("place "):
            fields = dict(part.split("=", 1) for part in line.split()[1:])
            factors.append((tuple(int(c) for c in fields["factor"].split(",")), int(fields["e"])))
    if len(factors) != o.place_count(f, p):
        errors.append(f"{len(factors)} places above {p}, expected {o.place_count(f, p)}")
    if o.product_of_powers(factors, p) != [c % p for c in f]:
        errors.append(f"factors above {p} do not multiply back to f")
    return errors


def _check_entries(stdout, want):
    """Every fiber entry carries the expected maximal/minimal flags."""
    is_max, is_min = want
    errors = []
    for line in stdout.splitlines():
        if line.startswith("entry "):
            if f"is_maximal={is_max}" not in line or f"is_minimal={is_min}" not in line:
                errors.append(f"entry flags differ: {line[:80]}")
    return errors


class CliPlain(CliWorkload):
    name = "cli-cold-plain"
    round_seconds = 9.0

    def generate(self, seed, rounds):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for _ in range(rounds):
            batch = [("plain", argv, _readme_plain_facts(argv)) for argv in README_PLAIN]
            for f in CLI_FIELDS:
                for kind in ("factor", "classify", "fiber"):
                    p = _supported_prime(rng, f)
                    batch.append(("plain",) + _plain_variant(rng, kind, f, p))
            rng.shuffle(batch)
            ops += batch
        return ops

    def record(self):
        return {
            "name": self.name,
            "loop": "closed, one client",
            "part_of": "cli-cold",
            "seed_argument": "--seed picks the prime, the place index and the order inside each round",
            "generator": {
                "fields": [o.text(f) for f in CLI_FIELDS],
                "round": "3 README plain commands + factor/classify/fiber zero@ on each field",
                "primes": "odd primes below 2000, skipping primes that divide the index",
                "round_seconds": self.round_seconds,
            },
            "why": "every CLI call is a fresh process, so each pays the import; these build no free ultrafilter",
            "stresses": ["import", "cli", "polynomials (one prime)"],
            "bypasses": ["ultrafilters sampling", "placesets algebra", "localfields"],
        }


def _readme_plain_facts(argv):
    if argv[0] == "factor":
        return (("factor", (o.GAUSS, 5)), ("places", "2"), ("class", "1x1+1x1"))
    if argv[0] == "classify":
        return (("is_maximal", "true"), ("is_minimal", "true"), ("is_closed", "true"))
    return (("fiber_size", "2"), ("entries", ("true", "true")))


def _plain_variant(rng, kind, f, p):
    poly = o.text(f)
    if kind == "factor":
        argv = ("factor", f"--poly={poly}", "--prime", str(p))
        return argv, (("factor", (f, p)),)
    if kind == "classify":
        index = rng.randrange(o.place_count(f, p))
        argv = ("classify", f"--field={poly}", "--ideal", f"zero@p:{p}:{index}")
        return argv, (("is_maximal", "true"), ("is_minimal", "true"), ("is_closed", "true"))
    argv = ("fiber", "--ideal", f"zero@p:{p}:0", f"--ext={poly}")
    return argv, (("fiber_size", str(o.place_count(f, p))), ("entries", ("true", "true")))


class CliFree(CliWorkload):
    name = "cli-cold-free"
    round_seconds = 23.0

    def generate(self, seed, rounds):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for r in range(rounds):
            batch = [("free", argv, _readme_free_facts(argv)) for argv in README_FREE]
            for fi, f in enumerate(CLI_FIELDS):
                kind = FREE_KINDS[(fi + r) % len(FREE_KINDS)]
                batch.append(("free",) + _free_variant(rng, f, kind))
            rng.shuffle(batch)
            ops += batch
        return ops

    def record(self):
        return {
            "name": self.name,
            "loop": "closed, one client",
            "part_of": "cli-cold",
            "seed_argument": "--seed picks the command, class atom, adele and constraint of each variant and the order inside each round",
            "generator": {
                "fields": [o.text(f) for f in CLI_FIELDS],
                "round": "4 README free-ultrafilter commands + one variant on a free atom of each field; the variant command (member, fiber, density) rotates with field and round",
                "prime_bound": 10000,
                "round_seconds": self.round_seconds,
            },
            "why": "each call builds a free ultrafilter and cold-factors all 1229 primes below the default prime bound",
            "stresses": ["polynomials", "places", "ultrafilters sampling", "import"],
            "bypasses": ["placesets algebra at large contexts", "localfields"],
        }


def _readme_free_facts(argv):
    if argv[0] == "member":
        return (("member", "true" if argv[-1] == "uni" else "false"),)
    if argv[0] == "fiber":
        return (("fiber_size", "2"), ("entries", ("false", "false")))
    return (("in_minimal_ideal", "true"), ("satisfied", 1))


FREE_KINDS = ("member", "fiber", "density")


def _free_variant(rng, f, kind):
    poly = o.text(f)
    classes = ATOMS[f]
    cls = rng.choice(classes)
    atom = f"free:{poly}:{label(cls)}"
    if kind == "member":
        choice = rng.randrange(5)
        if choice == 0:
            return ("member", "--ideal", f"max@{atom}", "--adele", "uni"), (("member", "true"),)
        if choice == 1:
            q = rng.randrange(2, 60)
            return ("member", "--ideal", f"max@{atom}", "--adele", f"diag:{q}"), (("member", "false"),)
        if choice == 2:
            return (("member", "--ideal", f"min@{atom}", "--adele", f"ind:{poly}:{label(cls)}"),
                    (("member", "true"),))
        if choice == 3:
            other = rng.choice([c for c in classes if c != cls])
            return (("member", "--ideal", f"max@{atom}", "--adele", f"ind:{poly}:{label(other)}"),
                    (("member", "false"),))
        return (("member", "--ideal", f"between@{atom}@uni", "--adele", "uni^2"),
                (("member", "true"),))
    if kind == "fiber":
        variant = rng.choice(("max", "min", "between"))
        spec = f"between@{atom}@uni" if variant == "between" else f"{variant}@{atom}"
        flags = {"max": ("true", "false"), "min": ("false", "true"), "between": ("false", "false")}
        return (("fiber", "--ideal", spec, f"--ext={poly}"),
                (("fiber_size", str(len(cls))), ("entries", flags[variant])))
    # the neighbourhood of 1 must contain 1: target = 1 mod p**power
    p = rng.choice((2, 3, 5, 7, 11, 13))
    power = rng.randrange(1, 5)
    target = 1 + rng.randrange(-3, 4) * p ** power
    argv = ("density", "--ultra", atom, "--constraint", f"{p}:0:{target}:{power}")
    return argv, (("in_minimal_ideal", "true"), ("satisfied", 1))


# -- warm spectrum queries -----------------------------------------------------------

WARM_FIELDS = (o.GAUSS, o.ROOT5, o.CUBE2, o.CYCLO5, o.QUINTIC)
WARM_PRIME_BOUND = 2000
POOL_SIZE = 24
POOL_REUSE = 0.5
ALGEBRA_KS = (1, 1, 2, 2, 3, 3, 4, 4, 5)
MEMBERS_PER_ROUND = 7
FIBERS_PER_ROUND = 4
IDEAL_KINDS = ("min", "between", "max")


def _ultra_index():
    """(field position, class) of every free ultrafilter the workload builds."""
    return [(fi, cls) for fi, f in enumerate(WARM_FIELDS) for cls in ATOMS[f]]


def _gen_spec(rng):
    roll = rng.random()
    if roll < 0.35:
        return ("diag", rng.randrange(1, 40), rng.randrange(1, 12))
    if roll < 0.60:
        return ("uni", rng.randrange(1, 3))
    if roll < 0.95:
        fi = rng.randrange(len(WARM_FIELDS))
        return ("ind", fi, rng.randrange(len(ATOMS[WARM_FIELDS[fi]])))
    return ("zero",)


def _adele_spec(rng):
    return tuple(_gen_spec(rng) for _ in range(rng.randrange(1, 3)))


class SpectrumWarm(Workload):
    """One long-lived process answering place-set, membership and fiber
    queries against five registered fields."""

    name = "spectrum-warm"
    round_seconds = 0.11

    def generate(self, seed, rounds):
        rng = random.Random(f"{self.name}:{seed}")
        n_ultra = len(_ultra_index())

        def adele_ref():
            if rng.random() < POOL_REUSE:
                return ("pool", rng.randrange(POOL_SIZE))
            return ("fresh", _adele_spec(rng))

        ops = []
        for _ in range(rounds):
            batch = []
            for k in ALGEBRA_KS:
                a_classes = tuple(rng.randrange(len(ATOMS[WARM_FIELDS[i]])) for i in range(k))
                b_parts = tuple((fi, rng.randrange(len(ATOMS[WARM_FIELDS[fi]])))
                                for fi in (rng.randrange(k), k - 1))
                batch.append(("algebra", k, a_classes,
                              tuple(sorted(rng.sample(CLI_PRIMES[:40], 2))), b_parts,
                              tuple(sorted(rng.sample(CLI_PRIMES[:40], 2))),
                              tuple(rng.sample(range(n_ultra), 3))))
            for _ in range(MEMBERS_PER_ROUND):
                batch.append(("member", rng.randrange(n_ultra), rng.choice(IDEAL_KINDS),
                              adele_ref(), adele_ref(), rng.randrange(1, 3)))
            for _ in range(FIBERS_PER_ROUND):
                batch.append(("fiber", rng.randrange(n_ultra), rng.choice(IDEAL_KINDS),
                              rng.randrange(len(WARM_FIELDS)), rng.randrange(1, 3)))
            rng.shuffle(batch)
            ops += batch
        return ops

    def setup(self, seed, on_import=None):
        import adelic.extensions  # noqa: F401  (imports every layer it uses)

        if on_import:
            on_import()
        # bound after on_import, so a tracer's wrappers are the ones called
        from adelic import config
        from adelic.adeles import (diagonal_rational, uniformizer_adele,
                                   vanishing_on, zero_adele)
        from adelic.extensions import fiber_of_spec
        from adelic.numberfields import NumberField, RATIONALS
        from adelic.placesets import class_atom, finite_qset
        from adelic.registry import ensure_registered
        from adelic.spectrum import between, max_at, member, min_at
        from adelic.ultrafilters import free_on_atom

        config.set_defaults(prime_bound=WARM_PRIME_BOUND)
        fields = [ensure_registered(NumberField(f)) for f in WARM_FIELDS]
        last = class_atom(fields[-1], ATOMS[WARM_FIELDS[-1]][0])
        ultras = []
        for fi, cls in _ultra_index():
            u = free_on_atom(fields[fi], cls)
            u.contains(last)  # resolves the selector for every registered field
            ultras.append(u)
        uni = uniformizer_adele(RATIONALS)
        state = {
            "fields": fields, "ultras": ultras, "uni": {1: uni, 2: uni.mul(uni)},
            "class_atom": class_atom, "finite_qset": finite_qset,
            "member": member, "ideal": {"min": min_at, "max": max_at, "between": between},
            "fiber_of_spec": fiber_of_spec,
        }

        def gen(spec):
            if spec[0] == "diag":
                return diagonal_rational(RATIONALS, Fraction(spec[1], spec[2]))
            if spec[0] == "uni":
                return state["uni"][spec[1]]
            if spec[0] == "ind":
                f = WARM_FIELDS[spec[1]]
                return vanishing_on(RATIONALS, class_atom(fields[spec[1]], ATOMS[f][spec[2]]))
            return zero_adele(RATIONALS)

        def build(spec):
            out = gen(spec[0])
            for g in spec[1:]:
                out = out.mul(gen(g))
            return out

        state["build"] = build
        rng = random.Random(f"{self.name}:pool:{seed}")
        state["pool_specs"] = [_adele_spec(rng) for _ in range(POOL_SIZE)]
        state["pool"] = [build(spec) for spec in state["pool_specs"]]
        return state

    def _ideal(self, state, u, kind, j):
        if kind == "between":
            return state["ideal"]["between"](u, state["uni"][j])
        return state["ideal"][kind](u)

    def _adele(self, state, ref):
        if ref[0] == "pool":
            return state["pool"][ref[1]]
        return state["build"](ref[1])

    def execute(self, state, op):
        kind = op[0]
        if kind == "algebra":
            _, k, a_classes, a_plus, b_parts, b_plus, uis = op
            fields, atom, fin = state["fields"], state["class_atom"], state["finite_qset"]
            a = atom(fields[0], ATOMS[WARM_FIELDS[0]][a_classes[0]])
            for i in range(1, k):
                a = a.intersect(atom(fields[i], ATOMS[WARM_FIELDS[i]][a_classes[i]]))
            a = a.union(fin(a_plus))
            b = fin(b_plus)
            for fi, ci in b_parts:
                b = b.union(atom(fields[fi], ATOMS[WARM_FIELDS[fi]][ci]))
            sets = (a, b, a.union(b), a.intersect(b), a.complement())
            bits = tuple(tuple(state["ultras"][ui].contains(s) for s in sets) for ui in uis)
            return (tuple(len(s.cells) for s in sets[2:]), bits), sets
        if kind == "member":
            _, ui, ideal_kind, a_ref, b_ref, j = op
            u = state["ultras"][ui]
            alpha, beta = self._adele(state, a_ref), self._adele(state, b_ref)
            product = alpha.mul(beta)
            member = state["member"]
            chain = tuple(member(alpha, self._ideal(state, u, k, j)) for k in IDEAL_KINDS)
            ideal = self._ideal(state, u, ideal_kind, j)
            return (chain, member(beta, ideal), member(product, ideal)), None
        _, ui, ideal_kind, fi, j = op
        fiber = state["fiber_of_spec"](self._ideal(state, state["ultras"][ui], ideal_kind, j),
                                       state["fields"][fi])
        return tuple(sorted(p.kind for p in fiber)), None

    def check(self, state, op, answer):
        answer, extra = answer
        kind = op[0]
        errors = []
        ultras = _ultra_index()
        if kind == "algebra":
            _, k, a_classes, _, _, _, uis = op
            a, b, union, inter, comp = extra
            for p in CLI_PRIMES[:16] + (2,):
                ina, inb = a.contains_prime(p), b.contains_prime(p)
                if (union.contains_prime(p), inter.contains_prime(p), comp.contains_prime(p)) \
                        != (ina or inb, ina and inb, not ina):
                    errors.append(f"pointwise Boolean law fails at {p}")
            for ui, (ca, cb, cu, ci, cc) in zip(uis, answer[1]):
                if cu != (ca or cb) or ci != (ca and cb) or cc == ca:
                    errors.append(f"ultrafilter {ui} breaks an ultrafilter law")
                fi, cls = ultras[ui]
                if fi < k and ATOMS[WARM_FIELDS[fi]][a_classes[fi]] != cls and ca:
                    errors.append(f"ultrafilter {ui} contains a set disjoint from its atom")
            return errors
        if kind == "member":
            _, ui, ideal_kind, a_ref, b_ref, _ = op
            chain, in_beta, in_product = answer
            if (chain[0] and not chain[1]) or (chain[1] and not chain[2]):
                errors.append(f"min <= between <= max fails: {chain}")
            in_alpha = chain[IDEAL_KINDS.index(ideal_kind)]
            if in_product != (in_alpha or in_beta):
                errors.append("prime law fails for a product")
            spec = a_ref[1] if a_ref[0] == "fresh" else state["pool_specs"][a_ref[1]]
            expected = _expected_chain(spec, ultras[ui])
            if expected is not None and chain != expected:
                errors.append(f"{spec} in ideals of ultrafilter {ui}: {chain}, expected {expected}")
            return errors
        _, ui, ideal_kind, fi, _ = op
        degree = len(WARM_FIELDS[fi]) - 1
        if not 1 <= len(answer) <= degree:
            errors.append(f"fiber of size {len(answer)} over a degree-{degree} field")
        u_field, cls = ultras[ui]
        if u_field == fi and len(answer) != len(cls):
            errors.append(f"fiber of size {len(answer)} over its own atom {label(cls)}")
        want = {"min": "min_at", "max": "max_at", "between": "between"}[ideal_kind]
        if any(kind != want for kind in answer):
            errors.append(f"fiber entries {answer} are not all {want}")
        return errors

    def record(self):
        return {
            "name": self.name,
            "loop": "closed, one client",
            "seed_argument": "--seed picks classes, finite modifications, ultrafilters, adeles (pool and fresh) and the order inside each round",
            "generator": {
                "fields": [o.text(f) for f in WARM_FIELDS],
                "ultrafilters": "free on each unramified class atom of density >= 1/8 (15 in all)",
                "round": f"place-set algebra at k in {list(ALGEBRA_KS)}, {MEMBERS_PER_ROUND} member bundles, {FIBERS_PER_ROUND} fibers",
                "k_range": [1, 5],
                "pool_size": POOL_SIZE,
                "pool_reuse_share": POOL_REUSE,
                "prime_bound": WARM_PRIME_BOUND,
                "round_seconds": self.round_seconds,
            },
            "why": "once set up, factoring is cached and place-set algebra, ultrafilters, adeles, spectrum and extensions carry the load; cells grow with k",
            "stresses": ["placesets", "ultrafilters contains", "adeles", "spectrum", "extensions"],
            "bypasses": ["polynomials (cached after set-up)", "localfields"],
        }


def _expected_chain(spec, ultra):
    """Membership of a single-generator adele in the min, between and max
    ideals of a free ultrafilter, where the definitions decide it."""
    if len(spec) != 1:
        return None
    gen = spec[0]
    if gen[0] == "diag":
        return (False, False, False)   # a unit at all but finitely many places
    if gen[0] == "uni":
        return (False, True, True)     # valuation j everywhere, never zero
    if gen[0] == "zero":
        return (True, True, True)
    fi, cls = ultra
    if gen[1] != fi:
        return None                    # depends on the selector's choice
    inside = ATOMS[WARM_FIELDS[fi]][gen[2]] == cls
    return (inside, inside, inside)


# -- local census ---------------------------------------------------------------------

CENSUS_FIELDS = (o.GAUSS, o.CUBE2, o.CYCLO5, o.QUINTIC, o.SEXTIC)
# Largest fiber size whose primes have density at least 1/12.
CENSUS_WIDE = {o.GAUSS: 2, o.CUBE2: 3, o.CYCLO5: 4, o.QUINTIC: 4, o.SEXTIC: 6}
# (digits, fiber size) of the unramified slots each field gets in a round;
# None stands for the field's wide fiber size.
CENSUS_SLOTS = ((16, None), (64, 2), (256, 2), (64, 1))
CENSUS_DIGITS = (16, 64, 256)
# a narrow range keeps the cost of p-adic digits alike across seeds
CENSUS_RANGE = (10000, 30000)
RAMIFIED = ((o.GAUSS, 2), (o.CUBE2, 2), (o.CUBE2, 3), (o.CYCLO5, 5),
            (o.QUINTIC, 19), (o.QUINTIC, 151), (o.SEXTIC, 2), (o.SEXTIC, 3))


def _element(rng, degree):
    while True:
        coeffs = tuple(rng.randrange(-40, 41) for _ in range(degree))
        if any(coeffs):
            return coeffs


class LocalCensus(Workload):
    """One long-lived process reading valuations and unit parts at places
    above distinct (field, prime) pairs."""

    name = "local-census"
    round_seconds = 1.2
    setup_samples = 5

    def generate(self, seed, rounds):
        rng = random.Random(f"{self.name}:{seed}")
        candidates = [p for p in o.primes_below(CENSUS_RANGE[1]) if p > CENSUS_RANGE[0]]
        streams = {}
        for f in CENSUS_FIELDS:
            order = list(candidates)
            rng.shuffle(order)
            streams[f] = {"order": order, "pos": 0, "found": {}}

        def draw(f, size):
            # next unused prime of the stream with the wanted fiber size
            s = streams[f]
            found = s["found"].setdefault(size, [])
            while not found:
                p = s["order"][s["pos"]]
                s["pos"] += 1
                if p in o.DISC_PRIMES[f]:
                    continue
                s["found"].setdefault(len(o.factor_degrees(f, p)), []).append(p)
            return found.pop(0)

        def op(fi, p, digits):
            f = CENSUS_FIELDS[fi]
            degree = len(f) - 1
            q = (rng.randrange(-2, 4), rng.randrange(1, 30), rng.randrange(1, 30))
            return ("census", fi, p, digits, _element(rng, degree), _element(rng, degree), q)

        ops = []
        for r in range(rounds):
            batch = []
            if r == 0:
                for f, p in RAMIFIED:
                    batch.append(op(CENSUS_FIELDS.index(f), p, rng.choice(CENSUS_DIGITS)))
            for fi, f in enumerate(CENSUS_FIELDS):
                for digits, size in CENSUS_SLOTS:
                    batch.append(op(fi, draw(f, size or CENSUS_WIDE[f]), digits))
            rng.shuffle(batch)
            ops += batch
        return ops

    def setup(self, seed, on_import=None):
        import adelic.localfields  # noqa: F401  (imports places and numberfields)

        if on_import:
            on_import()
        from adelic.localfields import embed, valuation_of_element
        from adelic.numberfields import NumberField
        from adelic.places import factor_prime

        return {
            "fields": [NumberField(f) for f in CENSUS_FIELDS],
            "factor_prime": factor_prime, "embed": embed, "valuation": valuation_of_element,
        }

    def execute(self, state, op):
        _, fi, p, digits, xc, yc, (qa, qn, qd) = op
        field = state["fields"][fi]
        valuation = state["valuation"]
        x, y = field.element(*xc), field.element(*yc)
        q = field.element(Fraction(qn, qd) * Fraction(p) ** qa)
        xy = x * y
        rows = []
        for w in state["factor_prime"](field, p):
            unit = state["embed"](x, w, digits)
            rows.append((w.e, w.f, w.factor, valuation(x, w), valuation(y, w),
                         valuation(xy, w), valuation(q, w),
                         unit.valuation, unit.precision, unit.unit))
        return tuple(rows), None

    def check(self, state, op, answer):
        _, fi, p, digits, _, _, (qa, qn, qd) = op
        rows, _ = answer
        f = CENSUS_FIELDS[fi]
        degree = len(f) - 1
        errors = []
        if sum(e * fd for e, fd, *_ in rows) != degree:
            errors.append(f"sum e*f != {degree} above {p}")
        if o.product_of_powers([(row[2], row[0]) for row in rows], p) != [c % p for c in f]:
            errors.append(f"factors above {p} do not multiply back to f")
        if p not in o.DISC_PRIMES[f]:
            if any(row[0] != 1 for row in rows) or \
                    tuple(sorted(row[1] for row in rows)) != o.factor_degrees(f, p):
                errors.append(f"splitting above unramified {p} differs from distinct-degree splitting")
        vq = o.vp_rational(Fraction(qn, qd) * Fraction(p) ** qa, p)
        for e, _, _, vx, vy, vxy, vql, uval, prec, _ in rows:
            if vxy != vx + vy:
                errors.append(f"v(xy)={vxy} != {vx}+{vy}")
            if vql != e * vq:
                errors.append(f"v_w(q)={vql} != e*v_p(q)={e * vq}")
            if uval != vx or prec != digits:
                errors.append(f"embed gave valuation {uval} at {prec} digits, expected {vx} at {digits}")
        return errors

    def record(self):
        return {
            "name": self.name,
            "loop": "closed, one client",
            "seed_argument": "--seed picks the primes of each slot, the field elements, the rationals and the order inside each round",
            "generator": {
                "fields": [o.text(f) for f in CENSUS_FIELDS],
                "round": "per field: (digits 16, widest common fiber), (64, 2 places), (256, 2 places), (64, inert); the 8 ramified pairs once per run",
                "digits": list(CENSUS_DIGITS),
                "prime_range": list(CENSUS_RANGE),
                "round_seconds": self.round_seconds,
            },
            "why": "every (field, prime) pair is new, so factoring and Hensel contexts always miss their caches",
            "stresses": ["polynomials (full factors)", "places", "localfields (Hensel lifting, embed)"],
            "bypasses": ["placesets", "ultrafilters", "adeles", "spectrum"],
        }


WORKLOADS = {w.name: w for w in (CliPlain(), CliFree(), SpectrumWarm(), LocalCensus())}
