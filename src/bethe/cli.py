"""Command-line front end.

Two subcommands:

* ``verify <check>`` runs one verification suite and writes a JSON (or
  text) report; exit status 0 on pass, 1 on any failed detail row or
  when the check produced no rows, having nothing to read.
* ``compute <object>`` builds a coefficient table (series coefficients in
  exact rationals) and writes it as JSON; rerunning with the same
  configuration reproduces the file byte for byte.

Both exit with status 2 on usage errors and 3 on internal errors.  A usage
error is bad outside input: an unknown check, a missing or out-of-range
flag, an --M outside the rank tables of ``verify jacobian`` and ``verify
poisson-rank``, an --M other than 1 or a kind other than so with even N
for ``verify classical-so2n``, a --z-symmetry that is not sign-matched for
``verify prop36`` (so needs symmetric, sp skew), a --z-symmetry other than
skew for the Poisson-side ops on so/sp that build the determinant family
(`SKEW_Z_OPS`), a --k other than N for ``compute qdet``, a malformed or
unreadable --Z, or an output path that cannot be written.  `RunConfig`
turns every such input into a `UsageError` before any computation starts.
An internal error is a failed internal guard (such as the degree and
parity guards of the determinant expansion) or any other exception raised
by a computation, a `ValueError` included; exhausted memory exits 3 with a
message formed in advance.  Errors go to stderr.  ``verify jacobian``
expands no determinant: it certifies the parity zeros from the entries
(`certify.verify_twisted_parity`) and reports them as detail rows, so a
parity violation there exits 1.

The default output directory is taken from the BETHE_OUTPUT_DIR
environment variable (falling back to the working directory).  Sub-checks
run in order in one thread, and detail rows are sorted before emission.

Start-up loads only what a run uses: ``--help`` and the usage errors the
argument parser catches (such as an unknown check) load only `bethe.cli`,
and each check or object imports only the modules it runs.  ``verify
rtt`` runs the same two suites on every index set, the R-matrix
identities (`tensor.verify_r_identities`) and the relations of T(u)
(`yangian.verify_rtt`), so on so/sp it loads no `bethe.twisted`.

Every report carries the orientation conventions that `reports.py`
declares; no run searches for them.  ``verify fusion`` checks them: its
``H_k orientation`` rows fail unless the ordered R-matrix products match
exactly the declared orientations, in the group algebra Z[S_k] (k <= N).
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__

CHECKS = ("rtt", "fusion", "bethe-commute", "centrality", "hat-identity",
          "twisted-symmetry", "twisted-reflection", "twisted-commute",
          "sklyanin", "prop36", "rho-hom", "image-commute", "poisson-jacobi",
          "symbol-hom", "jacobian", "poisson-rank", "classical-so2n")

OBJECTS = ("bethe", "qdet", "twisted-bethe", "poisson-bethe")

# the Poisson-side ops whose determinant family needs, for kind so/sp, a
# skew Z
SKEW_Z_OPS = ("symbol-hom", "jacobian", "classical-so2n", "poisson-bethe")


class RunConfig:
    """Validated run parameters shared by both subcommands.  Every check of
    outside input happens here and raises `UsageError`."""

    def __init__(self, args):
        from .indices import IndexSet, parse_z_spec

        self.kind = args.kind
        if self.kind == "gl":
            if args.N is None:
                raise UsageError("--N is required for kind gl")
            N = args.N
        else:
            if args.n is None and args.N is None:
                raise UsageError("--n (or --N) is required for kind so/sp")
            N = args.N if args.N is not None else (
                2 * args.n + (1 if self.kind == "so" and args.odd else 0))
        if N < 1:
            raise UsageError("the matrix size must be at least 1")
        try:
            self.index_set = (IndexSet.plain(N) if self.kind == "gl"
                              else IndexSet.signed(N, self.kind))
        except ValueError as e:
            raise UsageError(str(e)) from None
        op = getattr(args, "check", None) or getattr(args, "object", None)
        # the commutator suites truncate at budget - 1, whatever --D says
        self.D = (args.budget - 1 if op in ("bethe-commute", "twisted-commute")
                  else args.D)
        if self.D < 0:
            raise UsageError("the truncation order must be >= 0 (--D, or "
                             "--budget - 1 for the commutator suites)")
        if args.M < 1:
            raise UsageError("--M must be >= 1")
        if op in ("jacobian", "poisson-rank"):
            from .certify import rank_table

            if rank_table(self.index_set, args.M) is None:
                raise UsageError(f"--M {args.M} is outside the rank tables: "
                                 "they hold odd M for sp and odd so, even M "
                                 "for even so")
        if op == "classical-so2n":
            if self.index_set.form != "so" or N % 2:
                raise UsageError("classical-so2n needs kind so with even N")
            if args.M != 1:
                raise UsageError("classical-so2n is the certificate at "
                                 "--M 1 only")
        if args.k is not None and not 1 <= args.k <= N:
            raise UsageError(f"--k must be in 1..{N}")
        if op == "qdet" and args.k not in (None, N):
            raise UsageError(f"compute qdet has the one index k = N = {N}")
        self.M = args.M
        self.budget = args.budget
        self.k = args.k
        self.seed = args.seed
        self.format = args.format
        self.z_symmetry = args.z_symmetry
        if self.kind != "gl" and (op == "prop36" or op in SKEW_Z_OPS):
            if op == "prop36":
                # Proposition 3.6 holds for a sign-matched Z only
                needed = "symmetric" if self.kind == "so" else "skew"
                why = "a sign-matched Z: symmetric for so, skew for sp"
            else:
                needed, why = "skew", "its determinant family needs a skew Z"
            if self.z_symmetry != needed:
                raise UsageError(f"{args.command} {op} --kind {self.kind} "
                                 f"needs --z-symmetry {needed} ({why})")
        self.z_spec = args.Z or self._default_z()
        tag = None
        if self.kind != "gl":
            tag = ("prime_symmetric" if self.z_symmetry == "symmetric"
                   else "prime_skew")
        try:
            self.z = parse_z_spec(self.z_spec, self.index_set, tag)
        except (ValueError, TypeError, ZeroDivisionError) as e:
            raise UsageError(f"--Z {self.z_spec}: {e}") from None
        self.out = args.out

    def _default_z(self) -> str:
        if self.kind == "gl":
            vals = range(1, self.index_set.N + 1)
        else:
            vals = range(1, self.index_set.n + 1)
        return "diag:" + ",".join(str(v) for v in vals)

    def twisted_ctx(self):
        """The `TwistedContext` of the index set (kind so/sp only)."""
        if self.index_set.kind != "signed":
            raise UsageError("this check needs kind so or sp")
        from .twisted import TwistedContext

        return TwistedContext(self.index_set)

    def poisson_ctx(self):
        """The `PoissonContext` of the index set at level M: plain for kind
        gl, twisted for so/sp."""
        from .poisson import PoissonContext

        return PoissonContext(self.index_set, self.M)

    def params(self) -> dict:
        return {
            "kind": self.kind,
            "N": self.index_set.N,
            "Z": self.z_spec,
            "z_symmetry": self.z_symmetry if self.kind != "gl" else None,
            "D": self.D,
            "M": self.M,
            "budget": self.budget,
            "k": self.k,
            "seed": self.seed,
            "version": __version__,
        }


class UsageError(Exception):
    pass


# -- check dispatch -------------------------------------------------------------


def run_check(cfg: RunConfig, name: str) -> list:
    """The detail rows of check `name`.  Each branch imports the modules
    it runs, so a check loads no other part of the package."""
    iset = cfg.index_set
    D = cfg.D

    if name == "rtt":
        from .algebra import YangianRule
        from .tensor import verify_r_identities
        from .yangian import verify_rtt

        return verify_r_identities(iset) + verify_rtt(YangianRule(iset), D)

    if name == "fusion":
        from .algebra import YangianRule
        from .tensor import verify_antisymmetrizers
        from .yangian import verify_fusion

        rule = YangianRule(iset)
        details = verify_antisymmetrizers(iset)
        for k in range(2, iset.N + 1):
            details += verify_fusion(rule, k, D)
        return details

    if name == "bethe-commute":
        from .algebra import YangianRule
        from .yangian import verify_bethe_commutativity

        return verify_bethe_commutativity(cfg.z, YangianRule(iset),
                                          cfg.budget)

    if name == "centrality":
        from .algebra import YangianRule
        from .yangian import verify_centrality

        return verify_centrality(YangianRule(iset), D)

    if name == "hat-identity":
        from .algebra import YangianRule
        from .yangian import verify_hat_identity

        return verify_hat_identity(cfg.z, YangianRule(iset), D)

    if name == "twisted-symmetry":
        from .twisted import verify_symmetry

        return verify_symmetry(cfg.twisted_ctx(), D)

    if name == "twisted-reflection":
        from .twisted import verify_reflection

        return verify_reflection(cfg.twisted_ctx(), D)

    if name == "twisted-commute":
        from .twisted import verify_twisted_commutativity

        return verify_twisted_commutativity(cfg.twisted_ctx(), cfg.z,
                                            cfg.budget)

    if name == "sklyanin":
        from .twisted import verify_sklyanin

        return verify_sklyanin(cfg.twisted_ctx(), cfg.z, D)

    if name == "prop36":
        from .twisted import verify_prop36

        return verify_prop36(cfg.twisted_ctx(), cfg.z, D)

    if name == "rho-hom":
        from .evalmap import verify_rho_homomorphy

        return verify_rho_homomorphy(cfg.twisted_ctx(), D)

    if name == "image-commute":
        from .evalmap import verify_pi_rho_image_commutativity

        return verify_pi_rho_image_commutativity(iset, cfg.z, D)

    if name == "poisson-jacobi":
        from .certify import verify_poisson_jacobi

        return verify_poisson_jacobi(cfg.poisson_ctx(), cfg.seed)

    if name == "symbol-hom":
        from .certify import (verify_laplace_consistency,
                              verify_symbol_homomorphy)

        details = []
        if iset.kind == "plain":
            details += verify_symbol_homomorphy(iset, cfg.M, cfg.seed)
        details += verify_laplace_consistency(iset, cfg.z, cfg.M)
        return details

    if name == "jacobian":
        from .certify import verify_jacobian_rank, verify_twisted_parity

        context = cfg.poisson_ctx()
        details = verify_jacobian_rank(context, cfg.z, seed=cfg.seed)
        if iset.kind == "signed":
            details += verify_twisted_parity(context, cfg.z)
        return details

    if name == "poisson-rank":
        from .certify import verify_poisson_rank

        return verify_poisson_rank(cfg.poisson_ctx())

    if name == "classical-so2n":
        from .certify import verify_classical_slice_rank

        return verify_classical_slice_rank(cfg.index_set, cfg.z,
                                           seed=cfg.seed)

    raise UsageError(f"unknown check {name!r}")


# -- compute dispatch -----------------------------------------------------------


def run_compute(cfg: RunConfig, name: str) -> dict:
    """The coefficient table of object `name`; like `run_check`, each
    branch imports only what it runs."""
    from .reports import series_table

    iset = cfg.index_set
    D = cfg.D
    ks = [cfg.k] if cfg.k is not None else list(range(1, iset.N + 1))
    config = {k: v for k, v in cfg.params().items() if v is not None}
    config["object"] = name

    if name == "bethe":
        from .algebra import YangianRule
        from .yangian import bethe_series

        rule = YangianRule(iset)
        rows = {k: bethe_series(k, cfg.z, rule, D).coeffs for k in ks}
    elif name == "qdet":
        from .algebra import YangianRule
        from .yangian import quantum_determinant

        rows = {iset.N: quantum_determinant(YangianRule(iset), D).coeffs}
    elif name == "twisted-bethe":
        from .twisted import twisted_bethe_series

        ctx = cfg.twisted_ctx()
        rows = {k: twisted_bethe_series(ctx, k, cfg.z, D).coeffs for k in ks}
    elif name == "poisson-bethe":
        from .poisson import bethe_family

        family = bethe_family(cfg.poisson_ctx(), cfg.z)
        rows = {k: family[k] for k in ks}
    else:
        raise UsageError(f"unknown object {name!r}")
    return series_table(config, rows,
                        "monomial" if name == "poisson-bethe" else "word")


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bethe",
        description="Exact verification of commuting Bethe-type families "
                    "and their classical degenerations.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--kind", choices=("gl", "so", "sp"), default="gl")
        sp.add_argument("--N", type=int, default=None,
                        help="matrix size (gl) or signed size N (so/sp)")
        sp.add_argument("--n", type=int, default=None,
                        help="half-size n for signed kinds (N = 2n, or "
                             "2n+1 with --odd for so)")
        sp.add_argument("--odd", action="store_true",
                        help="with --kind so --n: use N = 2n + 1")
        sp.add_argument("--Z", default=None,
                        help="parameter matrix: diag:z1,z2,... or json:PATH")
        sp.add_argument("--z-symmetry", choices=("skew", "symmetric"),
                        default="skew", dest="z_symmetry",
                        help="required symmetry of Z for signed kinds")
        sp.add_argument("--D", type=int, default=3,
                        help="series truncation order")
        sp.add_argument("--M", type=int, default=1,
                        help="level cutoff for the polynomial contexts")
        sp.add_argument("--budget", type=int, default=4,
                        help="total-order budget for commutator suites")
        sp.add_argument("--k", type=int, default=None,
                        help="restrict to one series index k")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None,
                        help="output path (default: BETHE_OUTPUT_DIR or cwd)")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("check", choices=CHECKS)
    common(pv)

    pc = sub.add_parser("compute", help="persist a coefficient table")
    pc.add_argument("object", choices=OBJECTS)
    common(pc)
    return p


def conventions(cfg: RunConfig) -> dict:
    """The declared orientation conventions of a report: those of H_N
    (reports.h_orientation, the same for every N >= 3), which `verify
    fusion` checks against the ordered R-matrix products."""
    from .reports import h_orientation

    return {"h_k_orientation": h_orientation(cfg.index_set.N),
            "s_uk_orientation": "outer=asc,inner=asc"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        from .reports import Report, dump_json, output_dir

        cfg = RunConfig(args)
        if args.command == "verify":
            t0 = time.monotonic()
            details = run_check(cfg, args.check)
            rep = Report(args.check, cfg.params(), details,
                         int((time.monotonic() - t0) * 1000), conventions(cfg))
            path = cfg.out or os.path.join(output_dir(),
                                           f"{args.check}.json")
            if cfg.format == "text":
                with open(path, "w") as fh:
                    fh.write(rep.to_text())
                sys.stdout.write(rep.to_text())
            else:
                dump_json(rep.to_dict(), path)
                sys.stdout.write(
                    f"{args.check}: {'pass' if rep.passed else 'fail'} "
                    f"({len(rep.details)} checks) -> {path}\n")
            return 0 if rep.passed else 1
        table = run_compute(cfg, args.object)
        path = cfg.out or os.path.join(output_dir(), f"{args.object}.json")
        dump_json(table, path)
        sys.stdout.write(f"{args.object}: table written -> {path}\n")
        return 0
    except (UsageError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except MemoryError:
        sys.stderr.write("internal error: MemoryError: out of memory\n")
        return 3
    except Exception as e:
        import traceback  # only this path needs it; loading it slows start-up

        traceback.print_exc()
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
