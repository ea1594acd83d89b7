"""Batch command-line front door.

`read_argv` reads argv against the one table `COMMANDS`, and any argv
outside its grammar is a usage error.  Output is line-oriented structured
text: one record per line with a stable key order, so identical
invocations are byte-identical and easy to diff.  Exit codes: 0 success,
1 usage error, 2 domain error (an unsupported prime, a degenerate
generator, an inconsistent neighborhood, a free ultrafilter with no
witness below the prime bound).  Errors are one line on stderr.
"""

from __future__ import annotations

import functools
import sys

from . import config
from .adeles import (
    Adele,
    diagonal,
    membership_set,
    one_adele,
    parse_adele,
    uniformizer_adele,
    vanishing_on,
    zero_adele,
)
from .errors import AdelicError
from .localfields import valuation_of_element
from .numberfields import NumberField, RATIONALS, parse_element, read_int
from .places import (
    archimedean_places,
    class_label,
    factor_prime,
    parse_class_label,
    place_above,
    splitting_class,
)
from .placesets import class_atom, full_preimage, parse_qset
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
    selected_profile,
    zero_at,
)
from .extensions import fiber_of_spec
from .ultrafilters import (
    FreeKUltrafilter,
    FreeQUltrafilter,
    Ultrafilter,
    free_cofinite,
    free_on_atom,
)


class UsageError(Exception):
    pass


def _spec(parse):
    """Report a ValueError, IndexError or ZeroDivisionError raised while
    reading a command-line value, the last argument, as a usage error;
    errors raised once the value is read pass through."""

    @functools.wraps(parse)
    def wrapped(*args):
        try:
            return parse(*args)
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise UsageError(f"bad spec {args[-1]!r}: {exc}") from exc

    return wrapped


_read_int = _spec(read_int)


@_spec
def _parse_poly(text: str) -> NumberField:
    coeffs = tuple(map(read_int, text.split(",")))
    if len(coeffs) < 2:
        raise UsageError("polynomial must have degree >= 1 (low degree first)")
    return NumberField(coeffs)


@_spec
def _parse_ultra(field: NumberField, text: str) -> Ultrafilter:
    parts = text.split(":")
    if parts[0] == "lift":
        if len(parts) < 3:
            raise UsageError("lift spec is lift:<position>:<base free spec>")
        base = _parse_ultra(RATIONALS, ":".join(parts[2:]))
        return FreeKUltrafilter(field, base, read_int(parts[1]))
    if parts[0] == "free" or text.startswith("free["):
        if field != RATIONALS:
            raise UsageError("free atoms live over the rationals; use lift:<pos>:free...")
        if text.startswith("free[") and text.endswith("]"):
            return FreeQUltrafilter(parse_qset(text[5:-1]))
        if len(parts) == 2 and parts[1] == "all":
            return free_cofinite()
        if len(parts) == 3:
            ext = _parse_poly(parts[1])
            return free_on_atom(ext, parse_class_label(parts[2]))
        raise UsageError("free ultrafilter spec is free:all, free:<poly>:<class> "
                         "or free[<place set>]")
    raise UsageError(f"unknown ultrafilter spec {text!r}")


@_spec
def _parse_adele(field: NumberField, text: str) -> Adele:
    if text.startswith("adele{"):
        alpha = parse_adele(text)
        if alpha.field != field:
            raise ValueError("the adele is over another field")
        return alpha
    head, _, rest = text.partition(":")
    if head == "zero":
        return zero_adele(field)
    if head == "one":
        return one_adele(field)
    if head == "diag":
        return diagonal(parse_element(field, rest))
    if text == "uni" or text.startswith("uni^"):
        power = read_int(text[4:]) if text != "uni" else 1
        if power < 1:
            raise UsageError("uniformizer powers start at uni^1")
        return uniformizer_adele(field, power)
    if head == "ind":
        ext_text, _, cls_text = rest.partition(":")
        atom = class_atom(_parse_poly(ext_text), parse_class_label(cls_text))
        if field != RATIONALS:
            atom = full_preimage(field, atom)
        return vanishing_on(field, atom)
    raise UsageError(f"unknown adele spec {text!r}")


@_spec
def _parse_ideal(field: NumberField, text: str) -> PrimeIdeal:
    kind, _, rest = text.partition("@")
    if kind == "zero":
        if rest.startswith("inf:"):
            index = read_int(rest[4:])
            places = archimedean_places(field)
            if not 0 <= index < len(places):
                raise UsageError(f"no archimedean place {index}")
            return zero_at(places[index])
        if rest.startswith("p:"):
            _, p, idx = rest.split(":")
            return zero_at(place_above(field, read_int(p), read_int(idx)))
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
    return Constraint(place_above(field, read_int(p), read_int(idx)),
                      parse_element(RATIONALS, target).lift(field), read_int(power))


def _place_text(w) -> str:
    if w.is_finite:
        return f"p:{w.p}:{w.index}"
    return f"inf:{w.index}"


def _ultra_text(u: Ultrafilter) -> str:
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


def cmd_factor(opts) -> int:
    field = _parse_poly(opts["poly"])
    p = _read_int(opts["prime"])
    places = factor_prime(field, p)
    print(f"field={opts['poly']}")
    print(f"prime={p}")
    print(f"places={len(places)}")
    for w in places:
        factor = ",".join(str(c) for c in w.factor)
        print(f"place index={w.index} e={w.e} f={w.f} factor={factor}")
    print(f"class={class_label(splitting_class(field, p))}")
    print(f"sum_ef={sum(w.e * w.f for w in places)}")
    print(f"degree={field.degree}")
    return 0


def cmd_member(opts) -> int:
    field = _parse_poly(opts["field"])
    ideal = _parse_ideal(field, opts["ideal"])
    alpha = _parse_adele(field, opts["adele"])
    verdict = member(alpha, ideal)
    print(f"ideal={_ideal_text(ideal)}")
    print(f"adele={alpha.to_text()}")
    print(f"member={'true' if verdict else 'false'}")
    if ideal.kind in ("max_at", "min_at"):
        predicate = "in_m" if ideal.kind == "max_at" else "is_zero"
        print(f"witness={membership_set(alpha, predicate).to_text()}")
    elif ideal.kind == "between":
        print(f"profile_alpha={selected_profile(ideal.ultra, alpha)}")
        print(f"profile_beta={selected_profile(ideal.ultra, ideal.beta)}")
    return 0


def cmd_classify(opts) -> int:
    field = _parse_poly(opts["field"])
    ideal = _parse_ideal(field, opts["ideal"])
    flags = classify(ideal)
    print(f"ideal={_ideal_text(ideal)}")
    print(f"is_maximal={'true' if flags['is_maximal'] else 'false'}")
    print(f"is_minimal={'true' if flags['is_minimal'] else 'false'}")
    print(f"is_closed={'true' if is_closed(ideal) else 'false'}")
    return 0


def cmd_fiber(opts) -> int:
    ext = _parse_poly(opts["ext"])
    ensure_registered(ext)
    ideal = _parse_ideal(RATIONALS, opts["ideal"])
    fiber = fiber_of_spec(ideal, ext)
    print(f"ideal={_ideal_text(ideal)}")
    print(f"ext={opts['ext']}")
    print(f"fiber_size={len(fiber)}")
    for i, up in enumerate(sorted(fiber, key=_ideal_text)):
        flags = classify(up)
        print(
            f"entry {i} ideal={_ideal_text(up)} "
            f"is_maximal={'true' if flags['is_maximal'] else 'false'} "
            f"is_minimal={'true' if flags['is_minimal'] else 'false'}"
        )
    return 0


def cmd_density(opts) -> int:
    field = _parse_poly(opts["field"])
    u = _parse_ultra(field, opts["ultra"])
    constraints = [_parse_constraint(field, text) for text in opts["constraint"]]
    witness = density_witness(u, constraints)
    print(f"ultrafilter={_ultra_text(u)}")
    print(f"witness={witness.to_text()}")
    print(f"in_minimal_ideal={'true' if member(witness, min_at(u)) else 'false'}")
    for c in constraints:
        value = witness.component_at(c.place)
        ok = valuation_of_element(value - c.target, c.place) >= c.min_valuation \
            if not (value - c.target).is_zero() else True
        print(f"constraint p={c.place.p} satisfied={'true' if ok else 'false'}")
    return 0


# Each command's function and options.  An option's value is its
# default: None when the option is required, a list when it repeats.
COMMANDS = {
    "factor": (cmd_factor, {"poly": None, "prime": None}),
    "member": (cmd_member, {"field": "0,1", "ideal": None, "adele": None}),
    "classify": (cmd_classify, {"field": "0,1", "ideal": None}),
    "fiber": (cmd_fiber, {"ideal": None, "ext": None}),
    "density": (cmd_density, {"field": "0,1", "ultra": None, "constraint": []}),
}


def cmd_help(opts) -> int:
    print("usage: adelic [--prime-bound <n>] <command> --<option> <value> ...\n"
          "Query places, adeles, and the prime spectrum of adele rings.  --prime-bound bounds\n"
          f"the primes that witness free ultrafilters (default {config.DEFAULT.prime_bound}).")
    for command, (_, table) in COMMANDS.items():
        usage = (f"--{name} <{name}>" if default is None else
                 f"[--{name} <{name}>{' ...' * isinstance(default, list)}]"
                 for name, default in table.items())
        print(f"  adelic {command} {' '.join(usage)}")
    return 0


def read_argv(argv) -> tuple:
    """The function to run and its options' values, read from
    `[--prime-bound <n>] <command> --<option> <value> ...`: each option
    spelled out in full, as `--option value` or `--option=value`, and
    given once unless its default is a list.  A value may start with `-`.
    `-h` or `--help` in place of an option asks for `cmd_help`."""
    command, table, opts = None, {"prime-bound": None}, {}
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return cmd_help, {}
        if command is None and word in COMMANDS:
            command, table = word, COMMANDS[word][1]
            continue
        flag, eq, value = word.partition("=")
        name = flag[2:]
        if flag[:2] != "--" or name not in table:
            raise UsageError(f"{word!r} is not " + (f"an option of {command}" if command
                                                    else "a command"))
        value = value if eq else next(words, None)
        if value is None:
            raise UsageError(f"option {flag} needs a value")
        repeats = isinstance(table[name], list)
        if name in opts and not repeats:
            raise UsageError(f"option {flag} is given twice")
        opts[name] = opts.get(name, []) + [value] if repeats else value
    if command is None:
        raise UsageError("no command; one of " + ", ".join(COMMANDS))
    for name, default in table.items():
        if default is None and name not in opts:
            raise UsageError(f"{command} needs --{name}")
        opts.setdefault(name, default)
    return COMMANDS[command][0], opts


def main(argv=None) -> int:
    try:
        run, opts = read_argv(sys.argv[1:] if argv is None else argv)
        if "prime-bound" in opts:
            config.set_defaults(prime_bound=_read_int(opts["prime-bound"]))
        return run(opts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AdelicError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
