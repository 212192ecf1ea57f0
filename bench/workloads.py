"""Seeded op lists for the three benchmark workloads.

An op is one `bethe` command line (the argument list after `bethe`).  The
seed draws the Z diagonal of every algebra a workload touches and the
`--seed` value of the checks that sample random points; nothing else
varies.  Ops pass only mathematical flags and never `--jobs`, so they
measure the default path a user runs.
"""
from __future__ import annotations

import random

# Magnitudes for Z entries: distinct, non-zero halves.  One denominator
# keeps the cost of the exact arithmetic nearly the same for every draw,
# and distinct magnitudes keep every draw generic for the rank
# certificates.
Z_MAGNITUDES = ("1/2", "3/2", "5/2", "7/2", "9/2")

# (flags naming the algebra, number of diagonal values the diag: grammar takes)
ALGEBRAS = {
    "gl2": (("--kind", "gl", "--N", "2"), 2),
    "gl3": (("--kind", "gl", "--N", "3"), 3),
    "gl4": (("--kind", "gl", "--N", "4"), 4),
    "gl5": (("--kind", "gl", "--N", "5"), 5),
    "so3": (("--kind", "so", "--n", "1", "--odd"), 1),
    "so5": (("--kind", "so", "--n", "2", "--odd"), 2),
    "so6": (("--kind", "so", "--n", "3"), 3),
    "sp2": (("--kind", "sp", "--n", "1"), 1),
    "sp4": (("--kind", "sp", "--n", "2"), 2),
}

# Checks whose outcome depends on --seed (random evaluation points).
SEEDED = {"symbol-hom", "jacobian", "poisson-jacobi", "classical-so2n"}

# Each workload stresses a different layer mix; README.md says why.
TEMPLATES = {
    "gl-plain": [
        ("verify", "bethe-commute", "gl3", ("--budget", "4")),
        ("verify", "bethe-commute", "gl2", ("--budget", "7")),
        ("verify", "fusion", "gl3", ()),
        ("verify", "hat-identity", "gl3", ("--D", "3")),
        ("verify", "centrality", "gl3", ()),
        ("verify", "rtt", "gl3", ()),
        ("verify", "image-commute", "gl3", ()),
        ("verify", "symbol-hom", "gl3", ("--M", "2")),
        ("compute", "bethe", "gl3", ("--D", "3")),
        ("compute", "qdet", "gl3", ("--D", "4")),
    ],
    "twisted-so-sp": [
        ("verify", "sklyanin", "so3", ("--D", "4")),
        ("verify", "twisted-reflection", "sp2", ("--D", "4")),
        ("verify", "twisted-commute", "so3", ("--budget", "3")),
        ("verify", "prop36", "so3", ("--z-symmetry", "symmetric", "--D", "2")),
        ("verify", "prop36", "sp2", ("--D", "3")),
        ("verify", "rho-hom", "so3", ()),
        ("verify", "twisted-symmetry", "so3", ("--D", "4")),
        ("compute", "twisted-bethe", "so3", ("--D", "3")),
    ],
    "classical-rank": [
        ("verify", "jacobian", "so5", ("--M", "3")),
        ("verify", "jacobian", "gl4", ("--M", "3")),
        ("verify", "jacobian", "sp4", ("--M", "3")),
        ("verify", "poisson-rank", "gl5", ("--M", "3")),
        ("verify", "poisson-rank", "sp4", ("--M", "3")),
        ("verify", "classical-so2n", "so6", ()),
        ("verify", "poisson-jacobi", "gl4", ("--M", "3")),
        ("compute", "poisson-bethe", "gl4", ("--M", "2")),
    ],
}

WORKLOADS = tuple(TEMPLATES)


def draw_z(rng: random.Random, count: int) -> str:
    """A `diag:` spec of `count` values with distinct magnitudes and random
    signs; distinct magnitudes keep gl spectra simple and so/sp diagonals
    (which repeat each value with the opposite sign) non-degenerate."""
    vals = [m if rng.random() < 0.5 else "-" + m
            for m in rng.sample(Z_MAGNITUDES, count)]
    return "diag:" + ",".join(vals)


def ops(workload: str, seed: int) -> list[list[str]]:
    """The workload's command lines for `seed`; the same seed gives the
    same list."""
    rng = random.Random(f"{workload}:{seed}")
    zs = {}
    out = []
    for command, target, algebra, extra in TEMPLATES[workload]:
        flags, count = ALGEBRAS[algebra]
        if algebra not in zs:
            zs[algebra] = draw_z(rng, count)
        args = [command, target, *flags, *extra, "--Z", zs[algebra]]
        if target in SEEDED:
            args += ["--seed", str(rng.randrange(1000))]
        out.append(args)
    return out
