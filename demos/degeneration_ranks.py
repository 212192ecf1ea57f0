"""Walkthrough: the graded (Poisson) limit and its rank certificates.

Degenerates the commuting families to polynomial algebras on truncated
currents, checks involutivity of the determinant-expansion coefficients,
and certifies by exact rational elimination that the family is of maximal
size: the Jacobian rank at a random point and the Poisson-structure rank
at a principal-nilpotent base point both match closed-form dimension
counts, in the plain and twisted cases.

Run:  python3 demos/degeneration_ranks.py
"""
from bethe.certify import (expected_jacobian_rank, expected_poisson_rank,
                           verify_classical_slice_rank, verify_jacobian_rank,
                           verify_poisson_rank)
from bethe.indices import IndexSet, parse_z_spec
from bethe.poisson import PoissonContext, bethe_family, poisson_bracket


def show(rows):
    for item, ok in rows:
        print(f"  {item}: {'OK' if ok else 'FAILED'}")


def main():
    iset = IndexSet.plain(2)
    ctx = PoissonContext("plain", iset, 1)
    z = parse_z_spec("diag:1,2", iset)

    print("Determinant-expansion family for gl_2, M = 1:")
    fam = [p for table in bethe_family(ctx, z).values() for p in table
           if not p.is_zero()]
    for p in fam:
        print(f"  {p}")
    residual = max(len(poisson_bracket(a, b).terms)
                   for a in fam for b in fam)
    print(f"  largest pairwise bracket has {residual} terms (0 = involutive)")

    print("\nJacobian ranks (plain):")
    for N, M in [(2, 1), (2, 2), (3, 2)]:
        i = IndexSet.plain(N)
        c = PoissonContext("plain", i, M)
        zz = parse_z_spec("diag:" + ",".join(str(j) for j in range(1, N + 1)), i)
        show(verify_jacobian_rank(c, bethe_family(c, zz),
                                  expected_jacobian_rank(c)))

    print("\nPoisson-structure ranks at the base point (twisted):")
    for form, N, M in [("sp", 2, 3), ("so", 3, 3), ("so", 4, 2)]:
        c = PoissonContext("twisted", IndexSet.signed(N, form), M)
        show(verify_poisson_rank(c, expected_poisson_rank(c)))

    print("\nClassical even-orthogonal slice (so_4):")
    so4 = IndexSet.signed(4, "so")
    z4 = parse_z_spec("diag:1,2", so4, "prime_skew")
    show(verify_classical_slice_rank(2, z4))


if __name__ == "__main__":
    main()
