"""Walkthrough: the commuting family B_1(u), ..., B_N(u) for gl_N.

Builds the generating series from the fused tensor construction, prints the
first coefficients in PBW normal form, and certifies pairwise commutativity
and the centrality of the quantum determinant by exact normal ordering.

Run:  python3 demos/commuting_family.py
"""
from bethe.algebra import YangianRule
from bethe.element import commutator
from bethe.indices import IndexSet, parse_z_spec
from bethe.yangian import (bethe_series, quantum_determinant,
                           verify_bethe_commutativity, verify_centrality,
                           verify_hat_identity)


def show(label, rows):
    bad = [item for item, ok in rows if not ok]
    print(f"  {label}: {len(rows)} residuals, "
          f"{'all zero' if not bad else 'FAILED: ' + bad[0]}")


def main():
    iset = IndexSet.plain(2)
    rule = YangianRule(iset)
    z = parse_z_spec("diag:1,2", iset)

    print("B_k(u) coefficients for gl_2, Z = diag(1, 2)")
    for k in (1, 2):
        b = bethe_series(k, z, rule, 2)
        print(f"  B_{k}(u) = " + " + ".join(
            f"({b.coeffs[r]}) u^-{r}" if r else f"{b.coeffs[r]}"
            for r in range(3)))

    print("\nPairwise commutators (orders r + s <= 5):")
    show("commutativity", verify_bethe_commutativity(z, rule, budget=5))

    print("\nQuantum determinant B_2(u) is central:")
    qd = quantum_determinant(rule, 2)
    c = commutator(qd.coeffs[1], rule.element(1, 2, 2))
    print(f"  [qdet^(1), T_12^(2)] normal-orders to: {c}")
    show("centrality sweep", verify_centrality(rule, 3))

    print("\nHat-series identity (complementary-minor expansion):")
    show("hat identity", verify_hat_identity(z, rule, 3))


if __name__ == "__main__":
    main()
