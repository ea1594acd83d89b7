"""Build density witnesses for minimal ultrafilter ideals.

For a free ultrafilter the minimal ideal it defines is dense: for any
neighborhood of 1 cut out by finitely many congruence constraints, the
construction below lands an ideal element inside it.  The script prints
the witnesses for tighter and tighter neighborhoods.

Run:  python3 scripts/density_demo.py
"""

from adelic.numberfields import NumberField, RATIONALS
from adelic.places import place_above
from adelic.spectrum import Constraint, density_witness, member, min_at
from adelic.ultrafilters import free_on_atom

GAUSS = NumberField((1, 0, 1))


def main():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    ideal = min_at(split)
    print("minimal ideal of the split-class ultrafilter; witnesses inside "
          "shrinking neighborhoods of 1:")
    for depth in (1, 2, 4, 6):
        constraints = [
            Constraint(place_above(RATIONALS, 2), RATIONALS.one(), depth),
            Constraint(place_above(RATIONALS, 3), RATIONALS.one(), depth),
            Constraint(place_above(RATIONALS, 7), RATIONALS.one(), depth),
        ]
        witness = density_witness(split, constraints)
        assert member(witness, ideal)
        zeros = witness.membership_set("is_zero")
        print(f"  congruence depth {depth}: witness zero on {zeros.to_text()}")
        print(f"    components at 2, 3, 7 all equal 1; member of the ideal: "
              f"{member(witness, ideal)}")


if __name__ == "__main__":
    main()
