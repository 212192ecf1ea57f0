"""Walkthrough: the twisted family A_k(u) and the Sklyanin determinant.

Works inside the twisted algebra for sp_2: checks the symmetry and
reflection relations that define it, builds the fused series A_k(u),
certifies the determinant factorization A_N(u) theta(u) = b_N(u) b_N(N-u+1)
together with the centrality of its coefficients, and reads the trace form
of the hat family from the rows of proposition 3.6.

Run:  python3 demos/twisted_determinant.py
"""
from bethe.indices import IndexSet, parse_z_spec
from bethe.twisted import (TwistedContext, theta_series, twisted_bethe_series,
                           verify_prop36, verify_reflection, verify_sklyanin,
                           verify_symmetry, verify_twisted_commutativity)


def show(label, rows):
    bad = [item for item, ok in rows if not ok]
    print(f"  {label}: {len(rows)} residuals, "
          f"{'all zero' if not bad else 'FAILED: ' + bad[0]}")


def main():
    ctx = TwistedContext(IndexSet.signed(2, "sp"))
    z = parse_z_spec("diag:1", ctx.index_set, "prime_skew")

    print("Defining relations of the twisted algebra (sp_2):")
    show("symmetry", verify_symmetry(ctx, 3))
    show("reflection", verify_reflection(ctx, 3))

    print("\nFused series A_k(u), Z = diag(1, -1):")
    for k in (1, 2):
        a = twisted_bethe_series(ctx, k, z, 2)
        print(f"  A_{k}(u) constant term: {a.coeffs[0]}")
    show("commutativity", verify_twisted_commutativity(ctx, z, budget=4))

    print("\nSklyanin determinant:")
    th = theta_series(ctx, 3)
    print(f"  theta(u) coefficients: {[str(c) for c in th.coeffs]}")
    show("A_N theta = b_N(u) b_N(N-u+1) + centrality",
         verify_sklyanin(ctx, z, 3))

    print("\nTrace form of the hat family, at the scalar series 1:")
    for item, ok in verify_prop36(ctx, z, 3):
        if item.startswith("trace-form scalar"):
            k = item.split()[2].rstrip(":")
            print(f"  {k}: {'matches hat-A_k' if ok else 'FAILED'}")


if __name__ == "__main__":
    main()
