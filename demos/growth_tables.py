"""Orbit-growth and normal-closure tables.

Membership in fpc(g) — the elements whose conjugation orbit under the
centralizer of g stays finite — separates cleanly at small truncations:
claimed members sit at constant orbit size <= 2 while everything else
grows strictly with the truncation level.
"""

from isrlab.zoo import CLOSURE_TABLES, closure_table, fpc_growth_suite


def main():
    rep = fpc_growth_suite()
    width = max(len(c["description"]) for c in rep["checks"])
    print("fpc orbit growth")
    for c in rep["checks"]:
        sizes = ", ".join(str(s) for s in c["actual"])
        print(f"  {c['description']:<{width}}  [{sizes}]")

    print("\nnormal-closure sizes")
    for family, n in CLOSURE_TABLES:
        for label, size in closure_table(family, n):
            print(f"  {family} level {n}: <<{label}>> has {size} elements")


if __name__ == "__main__":
    main()
