"""Batch command-line front door.

Output is line-oriented structured text: one record per line with a
stable key order, so identical invocations are byte-identical and easy to
diff.  Exit codes: 0 success, 1 usage error, 2 domain error (an
unsupported prime, a degenerate generator, an inconsistent neighborhood).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings
from fractions import Fraction

from . import config
from .adeles import (
    Adele,
    diagonal,
    one_adele,
    uniformizer_adele,
    vanishing_on,
    zero_adele,
)
from .errors import AdelicError
from .numberfields import NumberField, RATIONALS
from .places import (
    archimedean_places,
    class_label,
    factor_prime,
    parse_class_label,
    splitting_class,
)
from .registry import ensure_registered
from .spectrum import (
    Constraint,
    PrimeIdeal,
    between,
    classify,
    density_witness,
    is_closed,
    max_at,
    member,
    min_at,
    zero_at,
)
from .extensions import fiber_of_spec
from .ultrafilters import (
    FreeKUltrafilter,
    PrincipalUltrafilter,
    Ultrafilter,
    free_cofinite,
    free_on_atom,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with a minus and a digit, such as the
    polynomial ``-2,0,0,1``, as a value: no option of this CLI looks like
    that, and argparse alone accepts only plain negative numbers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def _spec(parse):
    """Report a ValueError, IndexError or ZeroDivisionError raised while
    reading a spec as a usage error; errors raised once the spec is read
    pass through."""

    @functools.wraps(parse)
    def wrapped(field, text):
        try:
            return parse(field, text)
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise UsageError(f"bad spec {text!r}: {exc}") from exc

    return wrapped


def _parse_poly(text: str) -> NumberField:
    try:
        coeffs = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad polynomial {text!r}: {exc}") from exc
    if len(coeffs) < 2:
        raise UsageError("polynomial must have degree >= 1 (low degree first)")
    try:
        return NumberField(coeffs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _place(field: NumberField, prime: str, index: str):
    fiber = factor_prime(field, int(prime))
    if not 0 <= int(index) < len(fiber):
        raise UsageError(f"no place with index {index} above {prime}")
    return fiber[int(index)]


@_spec
def _parse_ultra(field: NumberField, text: str) -> Ultrafilter:
    parts = text.split(":")
    if parts[0] == "at":
        if len(parts) != 3:
            raise UsageError("principal ultrafilter spec is at:<prime>:<index>")
        return PrincipalUltrafilter(_place(field, parts[1], parts[2]))
    if parts[0] == "lift":
        if len(parts) < 3:
            raise UsageError("lift spec is lift:<position>:<base free spec>")
        base = _parse_ultra(RATIONALS, ":".join(parts[2:]))
        return FreeKUltrafilter(field, base, int(parts[1]))
    if parts[0] == "free":
        if field != RATIONALS:
            raise UsageError("free atoms live over the rationals; use lift:<pos>:free:...")
        if len(parts) == 2 and parts[1] == "all":
            return free_cofinite()
        if len(parts) == 3:
            ext = _parse_poly(parts[1])
            return free_on_atom(ext, parse_class_label(parts[2]))
        raise UsageError("free ultrafilter spec is free:all or free:<poly>:<class>")
    raise UsageError(f"unknown ultrafilter spec {text!r}")


@_spec
def _parse_adele(field: NumberField, text: str) -> Adele:
    head, _, rest = text.partition(":")
    if head == "zero":
        return zero_adele(field)
    if head == "one":
        return one_adele(field)
    if head == "diag":
        coeffs = [Fraction(t) for t in rest.split(",")] if rest else []
        return diagonal(field.element(*coeffs))
    if text == "uni" or text.startswith("uni^"):
        power = int(text[4:]) if text != "uni" else 1
        if power < 1:
            raise UsageError("uniformizer powers start at uni^1")
        out = uniformizer_adele(field)
        result = out
        for _ in range(power - 1):
            result = result.mul(out)
        return result
    if head == "ind":
        ext_text, _, cls_text = rest.partition(":")
        ext = _parse_poly(ext_text)
        from .placesets import class_atom

        return vanishing_on(field, class_atom(ext, parse_class_label(cls_text)))
    raise UsageError(f"unknown adele spec {text!r}")


@_spec
def _parse_ideal(field: NumberField, text: str) -> PrimeIdeal:
    kind, _, rest = text.partition("@")
    if kind == "zero":
        if rest.startswith("inf:"):
            index = int(rest[4:])
            places = archimedean_places(field)
            if not 0 <= index < len(places):
                raise UsageError(f"no archimedean place {index}")
            return zero_at(places[index])
        if rest.startswith("p:"):
            _, p, idx = rest.split(":")
            return zero_at(_place(field, p, idx))
        raise UsageError("zero ideal spec is zero@p:<prime>:<index> or zero@inf:<index>")
    if kind in ("max", "min"):
        u = _parse_ultra(field, rest)
        return max_at(u) if kind == "max" else min_at(u)
    if kind == "between":
        ultra_text, _, beta_text = rest.partition("@")
        u = _parse_ultra(field, ultra_text)
        beta = _parse_adele(field, beta_text)
        return between(u, beta)
    raise UsageError(f"unknown ideal spec {text!r}")


@_spec
def _parse_constraint(field: NumberField, text: str) -> Constraint:
    p, idx, target, power = text.split(":")
    return Constraint(_place(field, p, idx), field.element(Fraction(target)), int(power))


def _place_text(w) -> str:
    if w.is_finite:
        return f"p:{w.p}:{w.index}"
    return f"inf:{w.index}"


def _ultra_text(u: Ultrafilter) -> str:
    if isinstance(u, PrincipalUltrafilter):
        return f"at:{u.place.p}:{u.place.index}"
    if isinstance(u, FreeKUltrafilter):
        return f"lift:{u.effective_position}:{_ultra_text(u.base)}"
    return f"free[{u.anchor_set().to_text()}]"


def _ideal_text(ideal: PrimeIdeal) -> str:
    if ideal.kind == "zero_at":
        return f"zero@{_place_text(ideal.place)}"
    if ideal.kind == "between":
        return f"between@{_ultra_text(ideal.ultra)}@{ideal.beta.to_text()}"
    tag = "max" if ideal.kind == "max_at" else "min"
    return f"{tag}@{_ultra_text(ideal.ultra)}"


def cmd_factor(args) -> int:
    field = _parse_poly(args.poly)
    places = factor_prime(field, args.prime)
    print(f"field={args.poly}")
    print(f"prime={args.prime}")
    print(f"places={len(places)}")
    for w in places:
        factor = ",".join(str(c) for c in w.factor)
        print(f"place index={w.index} e={w.e} f={w.f} factor={factor}")
    print(f"class={class_label(splitting_class(field, args.prime))}")
    print(f"sum_ef={sum(w.e * w.f for w in places)}")
    print(f"degree={field.degree}")
    return 0


def cmd_member(args) -> int:
    field = _parse_poly(args.field)
    ideal = _parse_ideal(field, args.ideal)
    alpha = _parse_adele(field, args.adele)
    verdict = member(alpha, ideal)
    print(f"ideal={_ideal_text(ideal)}")
    print(f"adele={alpha.to_text()}")
    print(f"member={'true' if verdict else 'false'}")
    if ideal.kind in ("max_at", "min_at"):
        predicate = "in_m" if ideal.kind == "max_at" else "is_zero"
        print(f"witness={alpha.membership_set(predicate).to_text()}")
    elif ideal.kind == "between":
        from .spectrum import selected_profile

        d_alpha, d_beta = selected_profile(ideal.ultra, alpha, ideal.beta)
        print(f"profile_alpha={d_alpha}")
        print(f"profile_beta={d_beta}")
    return 0


def cmd_classify(args) -> int:
    field = _parse_poly(args.field)
    ideal = _parse_ideal(field, args.ideal)
    flags = classify(ideal)
    print(f"ideal={_ideal_text(ideal)}")
    print(f"is_maximal={'true' if flags['is_maximal'] else 'false'}")
    print(f"is_minimal={'true' if flags['is_minimal'] else 'false'}")
    print(f"is_closed={'true' if is_closed(ideal) else 'false'}")
    return 0


def cmd_fiber(args) -> int:
    ext = _parse_poly(args.ext)
    ensure_registered(ext)
    ideal = _parse_ideal(RATIONALS, args.ideal)
    fiber = fiber_of_spec(ideal, ext)
    print(f"ideal={_ideal_text(ideal)}")
    print(f"ext={args.ext}")
    print(f"fiber_size={len(fiber)}")
    for i, up in enumerate(sorted(fiber, key=_ideal_text)):
        flags = classify(up)
        print(
            f"entry {i} ideal={_ideal_text(up)} "
            f"is_maximal={'true' if flags['is_maximal'] else 'false'} "
            f"is_minimal={'true' if flags['is_minimal'] else 'false'}"
        )
    return 0


def cmd_density(args) -> int:
    field = _parse_poly(args.field)
    u = _parse_ultra(field, args.ultra)
    if u.is_principal:
        raise UsageError("density takes a free ultrafilter spec")
    constraints = [_parse_constraint(field, text) for text in args.constraint or []]
    witness = density_witness(u, constraints)
    print(f"ultrafilter={_ultra_text(u)}")
    print(f"witness={witness.to_text()}")
    from .spectrum import min_at as _min

    print(f"in_minimal_ideal={'true' if member(witness, _min(u)) else 'false'}")
    for c in constraints:
        from .localfields import valuation_of_element

        value = witness.component_at(c.place)
        ok = valuation_of_element(value - c.target, c.place) >= c.min_valuation \
            if not (value - c.target).is_zero() else True
        print(f"constraint p={c.place.p} satisfied={'true' if ok else 'false'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adelic",
        description="Query places, adeles, and the prime spectrum of adele rings.",
    )
    parser.add_argument("--prime-bound", type=int, default=None,
                        help="sampling bound for splitting-class atoms (default 10000)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="splitting of a prime in a field")
    p.add_argument("--poly", required=True, help="defining polynomial, low degree first")
    p.add_argument("--prime", required=True, type=int)
    p.set_defaults(run=cmd_factor)

    p = sub.add_parser("member", help="prime-ideal membership of an adele")
    p.add_argument("--field", default="0,1", help="field of the ideal (default rationals)")
    p.add_argument("--ideal", required=True)
    p.add_argument("--adele", required=True)
    p.set_defaults(run=cmd_member)

    p = sub.add_parser("classify", help="maximal/minimal/closed flags of an ideal")
    p.add_argument("--field", default="0,1")
    p.add_argument("--ideal", required=True)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("fiber", help="fiber of the spectrum map over a rational ideal")
    p.add_argument("--ideal", required=True, help="ideal over the rationals")
    p.add_argument("--ext", required=True, help="extension field polynomial")
    p.set_defaults(run=cmd_fiber)

    p = sub.add_parser("density", help="density witness for a minimal ultrafilter ideal")
    p.add_argument("--field", default="0,1")
    p.add_argument("--ultra", required=True, help="free ultrafilter spec")
    p.add_argument("--constraint", action="append",
                   help="p:<prime>:<index>:<target>:<min valuation>, repeatable")
    p.set_defaults(run=cmd_density)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.prime_bound is not None:
        config.set_defaults(prime_bound=args.prime_bound)
    problem = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.run(args)
        except UsageError as exc:
            problem, code = f"usage error: {exc}", 1
        except AdelicError as exc:
            problem, code = f"error: {type(exc).__name__}: {exc}", 2
    # one line per distinct warning, without the library's file and source line
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if problem is not None:
        print(problem, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
