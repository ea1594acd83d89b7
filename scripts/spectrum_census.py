"""Survey splitting statistics and spectrum fibers for a few fields.

Run:  python3 scripts/spectrum_census.py [--bound 2000]
"""

import argparse
from collections import Counter

from adelic.extensions import fiber_of_spec
from adelic.numberfields import NumberField, RATIONALS
from adelic.places import class_label, place_above, splitting_class, supported_primes
from adelic.registry import ensure_registered
from adelic.spectrum import between, classify, is_closed, max_at, min_at, zero_at
from adelic.adeles import uniformizer_adele
from adelic.ultrafilters import free_on_atom, lifts

FIELDS = {
    "x^2+1": NumberField((1, 0, 1)),
    "x^2-5": NumberField((-5, 0, 1)),
    "x^3-2": NumberField((-2, 0, 0, 1)),
    "x^4+x^3+x^2+x+1": NumberField((1, 1, 1, 1, 1)),
}


def census(bound):
    for name, field in FIELDS.items():
        ensure_registered(field)
        counts = Counter()
        for p in supported_primes(field, bound):
            counts[splitting_class(field, p)] += 1
        total = sum(counts.values())
        print(f"{name} (degree {field.degree}, discriminant {field.discriminant})")
        for cls, n in sorted(counts.items(), key=lambda t: -t[1]):
            print(f"  {class_label(cls):18s} {n:5d} primes ({n / total:.3f})")
    print()


def fibers():
    gauss = FIELDS["x^2+1"]
    split = free_on_atom(gauss, ((1, 1), (1, 1)))
    pi = uniformizer_adele(RATIONALS)
    samples = [
        ("vanishing at the place above 5", zero_at(place_above(RATIONALS, 5))),
        ("maximal at the split-class ultrafilter", max_at(split)),
        ("minimal at the split-class ultrafilter", min_at(split)),
        ("intermediate with uniformizer generator", between(split, pi)),
    ]
    print(f"spectrum fibers over the rationals, lifted to x^2+1 "
          f"(lifts of the split ultrafilter: {len(lifts(split, gauss))})")
    for label, ideal in samples:
        fiber = fiber_of_spec(ideal, gauss)
        flags = classify(ideal)
        print(f"  {label}")
        print(f"    maximal={flags['is_maximal']} minimal={flags['is_minimal']} "
              f"closed={is_closed(ideal)} fiber size={len(fiber)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bound", type=int, default=2000)
    args = parser.parse_args()
    census(args.bound)
    fibers()


if __name__ == "__main__":
    main()
