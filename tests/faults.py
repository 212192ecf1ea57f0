"""The planted-defect controls: one table of faults, each a target, a
planted change and the ops it must break (see `Fault` and `Expect`).  An op
is a `bethe` command line, run in-process under BETHE_DETERMINISTIC=1, or a
name in `CALLS`.  `PYTHONPATH=src python tests/faults.py` prints the
fault x op matrix as JSON, and its run time on stderr."""
import importlib
import inspect
import io
import json
import os
import pkgutil
import shlex
import sys
import tempfile
import textwrap
from contextlib import ExitStack, contextmanager, redirect_stderr, \
    redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple
from unittest import mock

import bethe

# every module loads before any planting, so none keeps a planted callable
MODULES = [importlib.import_module(f"bethe.{m.name}")
           for m in pkgutil.iter_modules(bethe.__path__)]

from bethe import tensor  # noqa: E402
from bethe.cli import main  # noqa: E402
from bethe.indices import IndexSet, ZMatrix  # noqa: E402
from bethe.rationals import Q  # noqa: E402
from bethe.series import RATIONAL_RING, TruncatedSeries  # noqa: E402

DIFFERS = "d"
ANY, ALL = "any", "all"


class Expect(NamedTuple):
    """An op's outcome: 0 (exit 0, the unplanted output), DIFFERS (exit 0,
    another output), 1 with the failed rows by label prefix (a count, ANY or
    ALL of them; `only`: no others) or 3 with a fragment of the error."""
    code: object
    failed: dict = {}
    only: bool = False
    err: str = ""


def fails(failed=None, only=False) -> Expect:
    return Expect(1, failed or {}, only)


def guard(err: str) -> Expect:
    return Expect(3, err=err)


@dataclass(frozen=True)
class Fault:
    """A target, a change (exact-once `old -> new` in its source, or a
    replacement of the real callable) and its outcome on each op; a row
    whose outcomes are all 0 is a change that no check may flag."""
    id: str
    target: str                      # "module.name" or "module.Class.name"
    ops: dict                        # op -> Expect or a bare code
    old: str | None = None
    new: str | None = None
    replace: Callable | None = None  # the real callable -> the planted one
    base: str | None = None          # a row planted first, under this one


# -- replacements built from the real callable --------------------------------


def around(f):
    """The replacement that calls f(real, *args) for real(*args)."""
    return lambda real: lambda *args: f(real, *args)


def raising(exc):
    def planted(*args):
        raise exc

    return lambda real: planted


class Partner(tuple):
    """A variable marked as read at its partner entry."""


@around
def _partner_entries(real, context, z):
    # the variable of every partner entry, one whose representative is
    # another coordinate, marked as a `Partner`
    rows, L = real(context, z)
    idx = context.index_set.indices()
    for i, row in zip(idx, rows):
        for j, entry in zip(idx, row):
            entry[:] = [(d, c, w if w is None or w[1:] == (i, j)
                         else Partner(w)) for d, c, w in entry]
    return rows, L


@around
def _partner_jet_dropped(real, values, coords):
    times, constant = real(values, coords), real(values, set())
    return lambda jet, c, w: (constant if type(w) is Partner
                              else times)(jet, c, w)


@around
def _unsigned_entry(real, context, z):
    rows, L = real(context, z)
    entry = next(e for row in rows for e in row
                 if any(c == -1 and w for _, c, w in e))
    t = next(t for t, (_, c, w) in enumerate(entry) if c == -1 and w)
    entry[t] = (entry[t][0], 1, entry[t][2])
    return rows, L


@around
def _without_middle_term(real, index_set):
    ent = real(index_set)
    del ent[(1, -1)]
    return ent


def _theta(theta):
    """Every sp index set built afterwards carries the signs theta(i, t),
    t its own theta_i; the upper sign is left as it is."""
    def planted(real, self, kind, N, form=None):
        real(self, kind, N, form)
        if form == "sp":
            self.theta = {i: theta(i, t) for i, t in self.theta.items()}

    return around(planted)


def _flip_action(x, p, q, index_set):
    # x . P_pq: sites p and q of every column exchanged
    return {(lab, col[:p - 1] + (col[q - 1],) + col[p:q - 1]
             + (col[p - 1],) + col[q:]): v for (lab, col), v in x.items()}


@around
def _sign_dropped(real, k):
    a = real(k)
    if k > 1:
        a[(2, 1) + tuple(range(3, k + 1))] = 1
    return a


# -- ops that are not command lines -------------------------------------------


def _composition_rows():
    # the dense oracle: the image of a product in Z[S_3] is the product of
    # the images
    from oracles import group_image

    iset = IndexSet.plain(3)
    x, y = {(2, 1, 3): 1}, {(1, 3, 2): 1}
    ok = group_image(tensor.group_product(x, y), 3, iset) == \
        group_image(x, 3, iset) * group_image(y, 3, iset)
    return [("group image of a product in Z[S_3]", ok)]


def _antisymmetrizer_rows(N):
    return tensor.verify_antisymmetrizers(IndexSet.plain(N))


CALLS = {"oracle group-product": _composition_rows,
         **{f"antisymmetrizers gl{N}": partial(_antisymmetrizer_rows, N)
            for N in (3, 4)}}


# -- the ops ------------------------------------------------------------------

SO3, SP2 = "--kind so --n 1 --odd", "--kind sp --n 1"
SP4, SO5 = "--kind sp --n 2", "--kind so --n 2 --odd"

PROP36_SP2_D2 = f"verify prop36 {SP2} --D 2"
PROP36_SP2_D3 = f"verify prop36 {SP2} --D 3"
PROP36_SP4_D2 = f"verify prop36 {SP4} --D 2"
SKLYANIN_SO3_D2 = f"verify sklyanin {SO3} --D 2"
SKLYANIN_SO3_D4 = f"verify sklyanin {SO3} --D 4"
SKLYANIN_SP2_D2 = f"verify sklyanin {SP2} --D 2"
FUSION_GL3_D3 = "verify fusion --kind gl --N 3 --D 3"
TRACE_FORMS = {PROP36_SP2_D3: 1, SKLYANIN_SO3_D2: 1}

# the partner-entry controls: M = 3, as at so3 and sp2 M = 1 the rank stays
# 2, which the partner jet term does not reach
PARTNER_JACOBIANS = [f"verify jacobian {a} --M 3"
                     for a in (SP2, SO3, SP4, SO5)]

# each reads eps through theta together with the upper sign
SP_SIGN_CHECKS = [f"verify twisted-symmetry {SP2} --D 3", SKLYANIN_SP2_D2,
                  PROP36_SP2_D2, f"verify rho-hom {SP2} --D 3",
                  f"verify jacobian {SP2} --M 3"]

# the defining relations read every generator through expand_gen
DEFINING_RELATIONS = [f"verify twisted-symmetry {SP2} --D 3",
                      f"verify twisted-symmetry {SP4} --D 2",
                      f"verify twisted-reflection {SP2} --D 3"]

# the Laplace rows of symbol-hom on so/sp read the graded member
SYMBOL_HOM_TWISTED = [f"verify symbol-hom {SP2} --M 2",
                      f"verify symbol-hom {SO3} --M 2",
                      f"verify symbol-hom {SP4} --M 1"]

RANK_CHECKS = [f"verify poisson-rank {SP4} --M 3",
               "verify poisson-rank --kind sp --n 3 --M 3",
               f"verify poisson-rank {SO5} --M 3",
               f"verify poisson-rank {SO3} --M 1",
               "verify poisson-rank --kind so --n 2 --M 2",
               "verify classical-so2n --kind so --n 2",
               "verify classical-so2n --kind so --n 3"]

SIGNED_SETS = (("so", 3), ("sp", 2), ("so", 4))


def _q_fault_ops():
    # a wrong Q fails the unitarity of R~ and the mixed exchanges (at --D 0
    # alone) and the mixed relation, and no row of R
    ops = {}
    for form, N in SIGNED_SETS:
        identities = {f"R~(u)R~(N-u) = (Nu-u^2) id, {form}_{N}": 1,
                      **{f"{which} mixed exchange ({form}_{N})": 1
                         for which in ("first", "second", "third")},
                      "R(u)R(-u)": 0}
        ops[f"verify rtt --kind {form} --N {N} --D 0"] = fails(
            identities, only=True)
        ops[f"verify rtt --kind {form} --N {N} --D 2"] = fails(
            {**identities, "mixed relation": ANY, "coefficient": 0},
            only=True)
    return ops


# -- the table ----------------------------------------------------------------

FAULTS = {f.id: f for f in [
    # -- the front end: exit 1 on a failed row, exit 3 on an internal error
    Fault("run-check-fails", "cli.run_check",
          replace=lambda real: lambda cfg, name: [("forced residual", False)],
          ops={"verify rtt --kind gl --N 2": fails({"forced residual": 1},
                                                   only=True)}),
    Fault("run-check-raises", "cli.run_check",
          replace=raising(AssertionError("guard tripped")),
          ops={"verify rtt --kind gl --N 2": guard(
              "internal error: AssertionError: guard tripped")}),
    Fault("sklyanin-raises-a-value-error", "twisted.verify_sklyanin",
          replace=raising(ValueError("planted")),
          ops={f"verify sklyanin {SO3} --D 1": guard(
              "internal error: ValueError: planted")}),

    # -- the Poisson side
    # a stray degree in the Laplace expansion trips its degree guard
    Fault("laplace-stray-degree", "poisson._laplace",
          replace=around(lambda real, rows, unit, times:
                         {**real(rows, unit, times), (99, 0): unit}),
          ops={"compute poisson-bethe --kind gl --N 2":
               guard("unexpected degree")}),
    # the jet row of the last coefficient of the top member dropped
    Fault("jacobian-row-dropped", "certify.jacobian_rows",
          replace=around(lambda real, *args: real(*args)[:-1]),
          ops={"verify jacobian --kind gl --N 2 --M 1": 1,
               f"verify jacobian {SP2} --M 1": 1}),
    # the variables of the partner entries marked: the marks alone change
    # nothing
    Fault("partner-marks", "poisson.det_entries", replace=_partner_entries,
          ops=dict.fromkeys(PARTNER_JACOBIANS, 0)),
    # the term a*s*e_w of the jet product dropped for the entries whose
    # variable is tied to the partner coordinate: the rows are no longer a
    # Jacobian, and the members that vanish identically get nonzero rows,
    # so the rank exceeds the table
    Fault("partner-jet-term-dropped", "poisson._jet_times",
          base="partner-marks", replace=_partner_jet_dropped,
          ops=dict.fromkeys(PARTNER_JACOBIANS, 1)),
    Fault("nilpotent-middle-term-dropped", "certify.principal_nilpotent",
          replace=_without_middle_term,
          ops={f"verify poisson-rank {SP2} --M 1": 1}),
    # a point that keeps only the values given on the fundamental domain
    # loses every nilpotent entry whose representative is its partner;
    # every gl coordinate is its own representative
    Fault("point-drops-the-partners", "poisson.CurrentPoint.__init__",
          replace=around(lambda real, self, ctx, values: real(self, ctx, {
              v: x for v, x in values.items() if v in ctx.variables()})),
          ops={**dict.fromkeys(RANK_CHECKS, 1),
               "verify poisson-rank --kind gl --N 4 --M 2": 0}),
    Fault("bracket-symmetric", "poisson.PoissonContext.gen_bracket",
          replace=around(lambda real, self, a, b:
                         -real(self, a, b) if a > b else real(self, a, b)),
          ops={"verify poisson-jacobi --kind gl --N 2": 1}),
    Fault("bracket-doubled", "poisson.PoissonContext.gen_bracket",
          replace=around(lambda real, self, a, b:
                         real(self, a, b) * (2 if a < b else 1)),
          ops={"verify symbol-hom --kind gl --N 2": 1}),
    # the unit of the context as 2: the Laplace rows build their members
    # over the context, whose constant terms then miss the determinant's;
    # the symbol pairs form no unit
    Fault("context-one-doubled", "poisson.PoissonContext.one",
          old="{(): ONE}", new="{(): 2}",
          ops={op: fails({"k=": ANY}, only=True)
               for op in ("verify symbol-hom --kind gl --N 2",
                          "verify symbol-hom --kind gl --N 3",
                          *SYMBOL_HOM_TWISTED)}),
    # the bracket negated at two level-1 coordinates: a pair holding a
    # generator above M has zero symbols on both sides and cannot see it,
    # so the rows fail only because each pair can
    Fault("bracket-negated-at-two-coordinates",
          "poisson.PoissonContext.gen_bracket",
          replace=around(lambda real, self, a, b: real(self, a, b) * (
              -1 if {a, b} & {(1, 1, 2), (1, 2, 3)} else 1)),
          ops={"verify symbol-hom --kind gl --N 3":
               fails({"symbol pair ": 32}, only=True)}),
    # one entry's reduced variable without its sign: the entry identity,
    # and with it every parity row, fails; the expansion keeps its guard
    Fault("entry-sign-dropped", "poisson.det_entries",
          replace=_unsigned_entry,
          ops={f"verify jacobian {SP2} --M 1": fails({"parity zeros": ALL}),
               f"verify jacobian {SO5} --M 3": fails({"parity zeros": ALL}),
               f"verify jacobian {SP4} --M 3": fails(
                   {"parity zeros": ALL, "parity zeros k=1": 1}),
               f"compute poisson-bethe {SP2} --M 1": 3}),
    # the Jacobian expands no determinant; poisson-bethe does
    Fault("term-times-raises", "poisson._term_times",
          replace=raising(AssertionError("polynomial expansion called")),
          ops={**{f"verify jacobian {a} --M {M}": 0
                  for a in (SO3, SP2) for M in (1, 3)},
               **{f"compute poisson-bethe {a}":
                  guard("polynomial expansion called") for a in (SO3, SP2)}}),
    # poisson-rank evaluates the terms of the bracket formula at the point:
    # the eps-twisted half negated (on a signed set the terms come in fours
    # per r, the last two from the eps-twisted sum) changes the rank at the
    # base point of sp4, though the matrix stays antisymmetric
    Fault("bracket-twist-negated", "poisson.PoissonContext.bracket_terms",
          replace=around(lambda real, self, a, b: [
              (-c if t % 4 > 1 else c, x, y)
              for t, (c, x, y) in enumerate(real(self, a, b))]),
          ops={f"verify poisson-rank {SP4} --M 3":
               fails({"bracket rank 12 at base point": 1}, only=True)}),
    # {a, b} negated for a > b: poisson-jacobi reads the terms through
    # gen_bracket, and in poisson-rank (b, a) then equals (a, b)
    Fault("bracket-terms-antisymmetry-broken",
          "poisson.PoissonContext.bracket_terms",
          replace=around(lambda real, self, a, b: [
              (-c if a > b else c, x, y) for c, x, y in real(self, a, b)]),
          ops={"verify poisson-jacobi --kind gl --N 2": 1,
               "verify poisson-rank --kind gl --N 2 --M 1": 1,
               f"verify poisson-rank {SP2} --M 1": 1}),
    # {m, g} from the first letter of m only: a symbol pair brackets
    # quadratic monomials and fails, while poisson-jacobi brackets
    # generators, whose brackets have one-letter monomials, so its
    # triples see no fault
    Fault("bracket-leibniz-first-letter-only",
          "poisson.PoissonContext.mono_bracket_gen",
          old="enumerate(m)", new="enumerate(m[:1])",
          ops={"verify symbol-hom --kind gl --N 2":
               fails({"symbol pair ": 39}, only=True),
               "verify symbol-hom --kind gl --N 3":
               fails({"symbol pair ": 43}, only=True),
               "verify poisson-jacobi --kind gl --N 2": 0}),
    # a tied coordinate folded without its sign eps_ij (-1)^r: the
    # family loses its parity zeros, and the bracket rank drops where the
    # signed sum matters
    Fault("tie-sign-dropped", "poisson.PoissonContext.reduce_var",
          old="return (s, (r, a, b))", new="return (1, (r, a, b))",
          ops={**{f"verify jacobian {a} --M {M}":
                  fails({"parity zeros": ANY})
                  for a, M in ((SO5, 3), (SP4, 3), (SP2, 1), (SO3, 3))},
               **{f"verify poisson-rank {a} --M 3":
                  fails({"bracket rank": 1}, only=True) for a in (SP4, SO5)},
               **dict.fromkeys(SYMBOL_HOM_TWISTED,
                               guard("parity violation"))}),
    # the letters of level M killed with the truncation: the Jacobian rank
    # drops, and a base point at the top level has a value at a zero
    # coordinate; the twisted symbol-hom rows pass, as both sides of each
    # row live in the same smaller quotient
    Fault("level-m-letter-killed", "poisson.PoissonContext.reduce_var",
          old="if r > self.M", new="if r >= self.M",
          ops={**{op: fails({"jacobian rank": 1}, only=True)
                  for op in (*PARTNER_JACOBIANS,
                             "verify jacobian --kind gl --N 2 --M 1",
                             f"verify jacobian {SO3} --M 1",
                             f"verify jacobian {SP2} --M 1")},
               **{op: guard("violates the context symmetry")
                  for op in (*RANK_CHECKS,
                             "verify poisson-rank --kind gl --N 2 --M 1",
                             "verify poisson-rank --kind gl --N 4 --M 2",
                             f"verify poisson-rank {SP2} --M 1")},
               **dict.fromkeys(SYMBOL_HOM_TWISTED, 0)}),

    # -- the plain Yangian
    # the sign of every correction term of the bracket flipped; on so/sp
    # the mixed relation sees it too
    Fault("bracket-corrections-negated", "algebra.YangianRule.raw_bracket",
          replace=around(lambda real, self, a, b:
                         [(-c, w) for c, w in real(self, a, b)]),
          ops={"verify rtt --kind gl --N 2 --D 2": 1,
               **{f"verify rtt --kind {form} --N {N} --D 2":
                  fails({"mixed relation": ANY})
                  for form, N in SIGNED_SETS[:2]}}),
    # B_1 from a Z with one more entry: no longer in the family of B_2
    Fault("b1-off-the-family", "yangian.bethe_series",
          replace=around(lambda real, k, z, rule, D: real(k, ZMatrix(
              z.index_set, {**z.entries, (1, 2): 1}) if k == 1 else z,
              rule, D)),
          ops={"verify bethe-commute --kind gl --N 3 --budget 3": 1}),
    # every sign +1: the quantum permanent, which is not central
    Fault("permanent", "yangian.perm_sign",
          replace=lambda real: lambda sigma: 1,
          ops={"verify centrality --kind gl --N 2 --D 2": 1}),
    # T_p(u - 2p) in place of T_p(u - p): R(2) is not a multiple of H_2
    Fault("site-spacing-doubled", "yangian.fusion_products",
          old="substitute_affine(1, -s)", new="substitute_affine(1, -2 * s)",
          ops={"verify fusion --kind gl --N 2 --D 2": 1}),
    # the identity holds for every u, so a shift shared by all factors,
    # T_p(u-p-1), passes; T_p(u+p) reverses the spacing and fails
    Fault("site-spacing-shifted", "yangian.fusion_products",
          old="substitute_affine(1, -s)", new="substitute_affine(1, -s - 1)",
          ops={FUSION_GL3_D3: 0}),
    Fault("site-spacing-reversed", "yangian.fusion_products",
          old="substitute_affine(1, -s)", new="substitute_affine(1, s)",
          ops={FUSION_GL3_D3: fails({"fusion": ANY})}),
    # Y = T_1..T_k, the order of X, in place of T_k..T_1: the left actions
    # on the columns start from T_k(u-k)
    Fault("same-factor-order-on-both-sides", "yangian.fusion_products",
          old="site_action(q, s, factors[s],",
          new="site_action(q, k + 1 - s, factors[k + 1 - s],",
          ops={FUSION_GL3_D3: fails({"fusion": ANY})}),
    # a left action that multiplies the entry of M on the right
    Fault("left-entry-on-the-right", "tensor.site_action",
          old="mv * v if left else v * mv", new="v * mv",
          ops={FUSION_GL3_D3: fails({"fusion": ANY})}),
    # every entry of M read transposed, M_ab as M_ba
    Fault("entry-transposed", "tensor.site_action",
          old="for (a, b), mv in m[s].items()",
          new="for (b, a), mv in m[s].items()",
          ops={FUSION_GL3_D3: fails({"fusion": ANY})}),
    # sum_sigma e_{sigma.I}: the rows of the symmetrizer k! S_k
    Fault("rows-without-signs", "tensor.alternator_rows",
          replace=around(lambda real, k, iset:
                         real(k, iset).map_coeffs(abs)),
          ops={FUSION_GL3_D3: fails({"fusion": ANY})}),
    # 1/4 = 1/binomial(2,1)**2 is the factor that the scalar binomial(2,1)
    # would absorb at k=1, had it been accepted besides 1/binomial(2,1)
    *[Fault(f"hat-b-{name}", "yangian.hat_bethe_series",
            replace=around(lambda real, *args, f=factor: real(*args) * f),
            ops={"verify hat-identity --kind gl --N 2 --D 2": fails(
                {"hat identity k=1 (scalar 1/2)": 1,
                 "hat identity k=2 (scalar 1)": 1}, only=True)})
      for name, factor in (("doubled", 2), ("quartered", Q(1, 4)))],
    # the factors of the minors of T(u)^-1 multiplied in ascending site
    # order: hat-B_1 has one factor, so gl2 passes, and gl3 fails at
    # k = 1, which reads hat-B_2
    Fault("hat-factors-ascending", "yangian.hat_bethe_series",
          old="range(k, 0, -1)", new="range(1, k + 1)",
          ops={"verify hat-identity --kind gl --N 2 --D 2": 0,
               "verify hat-identity --kind gl --N 3 --D 3": fails(
                   {"hat identity k=1": 1}, only=True)}),

    # -- the R-matrices and the antisymmetrizers
    # R_pq(q-p+1) in place of R_pq(q-p): no ordered product gives the
    # projector, so exactly the H_k orientation rows at k >= 2 fail
    Fault("r-matrix-shifted", "tensor.r_element",
          replace=around(lambda real, p, q, value, k:
                         real(p, q, value + 1, k)),
          ops={"verify fusion --kind gl --N 3 --D 1": fails(
              {"H_2 orientation": 1, "H_3 orientation": 1}, only=True)}),
    # R(u) = u - 2P: (u - 2P)(-u - 2P) = (4 - u^2) id, while u - cP solves
    # Yang-Baxter for every c, so only the unitarity row sees this fault
    Fault("flip-doubled", "tensor.flip",
          replace=around(lambda real, *args: real(*args).scale_rat(2)),
          ops={f"verify rtt --kind gl --N {N} --D 0": fails(
              {f"R(u)R(-u) = (1-u^2) id, N={N}": 1, f"Yang-Baxter N={N}": 0},
              only=True) for N in (2, 3)}),
    # a wrong Q in R~(u) = u - Q, as P, -Q (for which (u + Q)(N - u + Q) =
    # (Nu - u^2) + 2N Q) or 2Q
    Fault("q-is-the-flip", "tensor.q_tensor",
          replace=lambda real: tensor.flip, ops=_q_fault_ops()),
    Fault("q-negated", "tensor.q_tensor",
          replace=around(lambda real, i: -real(i)), ops=_q_fault_ops()),
    Fault("q-doubled", "tensor.q_tensor",
          replace=around(lambda real, i: real(i).scale_rat(2)),
          ops=_q_fault_ops()),
    # the q factors of each p composed in the opposite order: the products
    # in the declared orientations are no longer 1!..(k-1)! A_k
    Fault("orientation-reversed", "tensor.r_product",
          replace=around(lambda real, k, outer, inner: real(
              k, outer, {"asc": "desc", "desc": "asc"}[inner])),
          ops={"antisymmetrizers gl4": fails(
              {"H_3 orientation": 1, "H_4 orientation": 1}, only=True)}),
    # sigma -> sigma^-1 reverses products and fixes A_k and every R_pq, so
    # composing every product the other way round passes each row of the
    # suite; the composition convention is pinned by the dense oracle
    Fault("composition-reversed", "tensor.group_product",
          replace=around(lambda real, x, y: real(y, x)),
          ops={"antisymmetrizers gl4": 0, "oracle group-product": 1}),
    # sgn (1 2) dropped from A_k: the trace and the orientations fail from
    # k = 2 on, the idempotent from k = 3 on (at k = 2 it is the
    # symmetrizer, whose square is twice itself too)
    Fault("alternator-sign-dropped", "tensor.group_alternator",
          replace=_sign_dropped,
          ops={"antisymmetrizers gl3": fails(
              {"trace H_2 = C(3,2)": 1, "H_2 orientation": 1,
               "H_3 idempotent (N=3)": 1, "trace H_3 = C(3,3)": 1,
               "H_3 orientation": 1}, only=True)}),

    # -- the twisted Yangians
    # S_{1,1}^(2) expanded to twice its value
    Fault("s11-level-2-doubled", "twisted.TwistedContext.expand_gen",
          replace=around(lambda real, self, g:
                         real(self, g) * (2 if g == (2, 1, 1) else 1)),
          ops={f"verify twisted-reflection {SP2} --D 3": 1,
               SKLYANIN_SO3_D2: 1,
               f"verify twisted-commute {SO3} --budget 4": 1,
               f"verify twisted-symmetry {SO3} --D 3": 1}),
    # (-1)^s on T_ia^(s) in place of (-1)^(r-s) on T_{-j,-a}^(r-s); the
    # expand_gen substitutions pass sklyanin so3 --D 2
    Fault("sign-on-t", "twisted.TwistedContext.expand_gen",
          old="(-1) ** (r - s))", new="(-1) ** s)",
          ops=dict.fromkeys(DEFINING_RELATIONS, 1)),
    # T_{-a,-j} in place of T_{-j,-a}
    Fault("second-factor-transposed", "twisted.TwistedContext.expand_gen",
          old="t(-j, -a, r - s)", new="t(-a, -j, r - s)",
          ops=dict.fromkeys(DEFINING_RELATIONS, 1)),
    Fault("eps-dropped", "twisted.TwistedContext.expand_gen",
          old="iset.eps(j, a) * ", new="",
          ops=dict.fromkeys(DEFINING_RELATIONS, 1)),
    Fault("factors-swapped", "twisted.TwistedContext.expand_gen",
          old="t(i, a, s) * t(-j, -a, r - s)",
          new="t(-j, -a, r - s) * t(i, a, s)",
          ops=dict.fromkeys(DEFINING_RELATIONS, 1)),
    Fault("theta-series-one", "twisted.theta_series",
          replace=around(lambda real, ctx, D:
                         TruncatedSeries.one(RATIONAL_RING, D)),
          ops={SKLYANIN_SP2_D2: 1}),
    # R~(u) = u - P in place of u - Q: Z_1 P Z_2 H_2 is not zero
    Fault("flip-in-the-exchange", "twisted._pair_action",
          replace=lambda real: _flip_action,
          ops={PROP36_SP2_D2: fails({"exchange scalar c(u) = 1*u + 0": 1})}),
    # the so convention on sp: eps = 1 everywhere
    Fault("theta-one", "indices.IndexSet.__init__",
          replace=_theta(lambda i, t: 1),
          ops=dict.fromkeys(SP_SIGN_CHECKS, 1)),
    # -theta is no fault, as eps = theta_i theta_j does not change
    Fault("theta-negated", "indices.IndexSet.__init__",
          replace=_theta(lambda i, t: -t),
          ops=dict.fromkeys(SP_SIGN_CHECKS, 0)),
    # F_ij = E_ij alone: rho no longer factors through the symmetry
    # relation, nor through the reflection relation, and the rho images of
    # the A_k coefficients stop commuting at so3 D = 3
    Fault("eps-partner-dropped", "evalmap.f_element",
          replace=around(lambda real, rule, i, j: rule.element(i, j)),
          ops={f"verify rho-hom {SO3} --D 2": fails(
              {"rho of symmetry residual": ANY,
               "rho of reflection residual": ANY}),
               f"verify image-commute {SO3} --D 3": 1}),
    # hat-A_k doubled: the trace form is hat-A_k times 1/2, not times 1;
    # the factors as for hat-B_k
    *[Fault(f"hat-a-{name}", "twisted.hat_twisted_series",
            replace=around(lambda real, *args, f=factor: real(*args) * f),
            ops={PROP36_SP2_D2: fails(
                {"twisted hat identity k=1 (scalar 1/2)": 1,
                 "twisted hat identity k=2 (scalar 1)": 1, **trace_form})})
      for name, factor, trace_form in (
          ("doubled", 2, {"trace-form scalar k=1: [Fraction(1, 1), "
                          "Fraction(0, 1), Fraction(0, 1)]": 1}),
          ("quartered", Q(1, 4), {}))],
    # the letter sites walk the formal S(u), not its inverse hat-S(u)
    Fault("hat-s-uninverted", "twisted.hat_trace",
          old="t_site_series(ctx.s_rule, D).invert()",
          new="t_site_series(ctx.s_rule, D)",
          ops={PROP36_SP2_D3: 1}),
    # (id - c Q)^-1 taken as id - c Q / (1 + N c); prop36 at sp4 reads A_k,
    # hat-A_k and the trace form at N = 4
    Fault("inverse-pair-sign", "twisted.hat_trace",
          old="(one - f[2] * N)", new="(one + f[2] * N)",
          ops={PROP36_SP4_D2: 1}),
    Fault("z-site-dropped", "twisted.graded_bethe_series",
          old="range(k + 1, N + 1)", new="range(k + 2, N + 1)",
          ops=dict.fromkeys(SYMBOL_HOM_TWISTED, 1)),
    Fault("z-on-the-letter-sites", "twisted.graded_bethe_series",
          old="for p in range(k + 1, N + 1)", new="for p in range(1, k + 1)",
          ops=dict.fromkeys(SYMBOL_HOM_TWISTED, 1)),

    # -- the word transfer behind every trace form
    # the identity part of every letter site is lost
    Fault("dropped-pass-branch", "tensor.trace_words",
          old="walk(i + 1, x, path)", new="None", ops=TRACE_FORMS),
    # E_ab of site p moves the column of site p + 1 (of site 1 from the last)
    Fault("leg-on-the-wrong-site", "tensor.trace_words",
          old="(lab, col[:p - 1], col[p:], v)",
          new="(lab, col[:p % len(col)], col[p % len(col) + 1:], v)",
          ops=TRACE_FORMS),
    # the identity part of a letter site also walks the rows of each leg
    Fault("pass-branch-walks-a-leg", "tensor.trace_words",
          old="                del products[len(path) + 1:]\n",
          new="                del products[len(path) + 1:]\n"
              "                walk(i + 1, y, path)\n",
          ops=TRACE_FORMS),
    # F(u) applied to the ket left to right
    Fault("ket-factors-reversed", "tensor.trace_words",
          old="in reversed(factors)", new="in factors",
          ops={PROP36_SP4_D2: 1}),
    # every pair step acts on sites 1 and q, not p and q
    Fault("pair-on-the-wrong-sites", "tensor.pair_step",
          old="_pair_action(xr, p, q, index_set)",
          new="_pair_action(xr, 1, q, index_set)",
          ops={PROP36_SP4_D2: 1}),
    # a pair step that writes into the rows it reads changes the rows from
    # which a letter's legs open after its identity branch has walked them
    Fault("pair-step-writes-its-input", "tensor.pair_step",
          old="accumulate(dict(x[s]),", new="accumulate(x[s],",
          ops={f"verify sklyanin {SP2} --D 3": 1}),
    # letters multiplied in reverse order change the formal S-words of A_k
    # from order 3 on, and sklyanin so3 from order 4 on: the determinant
    # identity at u^-4 and the centrality of A_N coeff 4 fail
    Fault("words-reversed", "tensor.trace_words",
          old="products[-1] * tail", new="tail * products[-1]",
          ops={f"compute twisted-bethe {SO3} --D 3": DIFFERS,
               SKLYANIN_SO3_D4: 1}),
    # the steps walked from the last to the first, each word's letters in
    # that order: only the formal S-words of A_k at D = 4 see the fault
    Fault("steps-walked-backwards", "tensor.trace_words",
          old="for step in steps:", new="for step in reversed(list(steps)):",
          ops={f"compute twisted-bethe {SO3} --D 4": DIFFERS,
               SKLYANIN_SO3_D4: 0}),
]}


# -- planting -----------------------------------------------------------------


def _substituted(module, real, name: str, old: str, new: str):
    """`real` rebuilt from its source with `old` replaced by `new`, in a
    copy of the module's namespace."""
    source = textwrap.dedent(inspect.getsource(real))
    if old == new or source.count(old) != 1:
        raise ValueError(f"{name}: {old!r} -> {new!r} is not an exact-once "
                         "change of the source")
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    return scope[name]


@contextmanager
def planted(fault: Fault):
    """Plant `fault` (and its base row first) for the duration of the
    block: a method on its class, a function in every `bethe` module that
    holds it."""
    with ExitStack() as stack:
        if fault.base:
            stack.enter_context(planted(FAULTS[fault.base]))
        module_name, *path = fault.target.split(".")
        module = importlib.import_module(f"bethe.{module_name}")
        owner = module
        for part in path[:-1]:
            owner = getattr(owner, part)
        name = path[-1]
        real = vars(owner)[name]
        new = (fault.replace(real) if fault.replace else
               _substituted(module, real, name, fault.old, fault.new))
        holders = ([owner] if isinstance(owner, type) else
                   [m for m in [bethe, *MODULES] if vars(m).get(name) is real])
        for holder in holders:
            setattr(holder, name, new)
            stack.callback(setattr, holder, name, real)
        yield


# -- running an op ------------------------------------------------------------


class Result(NamedTuple):
    code: int
    rows: tuple    # (item, ok) of a verify report or a call
    text: str      # the output file, or the rows of a call
    err: str


def run(op: str) -> Result:
    if op in CALLS:
        try:
            rows = tuple(CALLS[op]())
        except Exception as e:
            return Result(3, (), "", f"{type(e).__name__}: {e}")
        return Result(0 if rows and all(ok for _, ok in rows) else 1, rows,
                      repr(rows), "")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        with mock.patch.dict(os.environ, BETHE_DETERMINISTIC="1"), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(shlex.split(op) + ["--out", out])
        text = open(out).read() if os.path.exists(out) else ""
    rows = ()
    if op.startswith("verify") and text:
        rows = tuple((r["item"], r["residual_zero"])
                     for r in json.loads(text)["details"])
    return Result(code, rows, text, err.getvalue())


def outcome(result: Result, unplanted: Result):
    """0 and DIFFERS split a pass by whether the output is the unplanted
    one; any other exit code is itself."""
    if result.code == 0 and result.text != unplanted.text:
        return DIFFERS
    return result.code


_UNPLANTED: dict = {}
_PLANTED: dict = {}


def unplanted(op: str) -> Result:
    if op not in _UNPLANTED:
        _UNPLANTED[op] = run(op)
    return _UNPLANTED[op]


def _expect(value) -> Expect:
    return value if isinstance(value, Expect) else Expect(value)


def _misses(expect: Expect, rows) -> list:
    """The ways in which `rows` miss the failed rows `expect` names."""
    misses = []
    for prefix, want in expect.failed.items():
        # every prefix named, also with a count of 0, must have rows
        oks = [ok for item, ok in rows if item.startswith(prefix)]
        n = oks.count(False)
        if not (oks and (n >= 1 if want == ANY else n == len(oks)
                         if want == ALL else n == want)):
            misses.append(f"{n} of {len(oks)} rows {prefix!r} fail, "
                          f"expected {want}")
    if expect.only:
        misses += [f"{item!r} fails" for item, ok in rows if not ok
                   and not any(item.startswith(p) for p in expect.failed)]
    return misses


def check(fault_id: str) -> None:
    """Assert the outcomes of fault `fault_id` on its ops, each having
    passed unplanted (both runs kept per process)."""
    fault = FAULTS[fault_id]
    ops = list(fault.ops)
    for op in ops:
        assert unplanted(op).code == 0, (op, unplanted(op).err)
    with planted(fault):
        for op in ops:
            if (fault_id, op) not in _PLANTED:
                _PLANTED[fault_id, op] = run(op)
    for op in ops:
        expect, result = _expect(fault.ops[op]), _PLANTED[fault_id, op]
        got = outcome(result, unplanted(op))
        assert got == expect.code, (fault_id, op, got, result.err[-2000:])
        assert expect.err in result.err, (fault_id, op, result.err[-2000:])
        assert not _misses(expect, result.rows), \
            (fault_id, op, _misses(expect, result.rows))
        if op in CALLS or not result.text:
            continue
        out = json.loads(result.text)
        if op.startswith("verify"):
            # the written report's verdict is the exit code's
            assert out["result"] == ("pass", "fail")[result.code], \
                (fault_id, op, out["result"])
        # a report's conventions are declared, whatever the fault
        assert out.get("conventions") == \
            json.loads(unplanted(op).text).get("conventions")


def control(*fault_ids: str):
    """A test that checks the rows `fault_ids`: a former control test, kept
    under its name."""
    def test():
        for fault_id in fault_ids:
            check(fault_id)

    return test


def controls(cases):
    """A test parametrized by id over cases {id: fault ids}, or over fault
    ids, each its own case: a former parametrized control, kept under its
    name and case ids."""
    import pytest

    if not isinstance(cases, dict):
        cases = {f: [f] for f in cases}

    @pytest.mark.parametrize("fault_ids", list(cases.values()),
                             ids=list(cases))
    def test(fault_ids):
        control(*fault_ids)()

    return test


# -- the fault x op matrix ----------------------------------------------------


def matrix() -> dict:
    """The outcome of every row's fault on every op the table names: one
    string per fault, one character per op."""
    ops = sorted({op for fault in FAULTS.values() for op in fault.ops})
    base = [unplanted(op) for op in ops]
    rows = {}
    for fault in FAULTS.values():
        with planted(fault):
            rows[fault.id] = "".join(str(outcome(run(op), b))
                                     for op, b in zip(ops, base))
    return {"ops": ops, "faults": rows,
            "reach_no_check": sorted(
                f for f, line in rows.items() if not set(line) - {"0", "d"})}


if __name__ == "__main__":
    import time

    start = time.monotonic()
    result = matrix()
    seconds = round(time.monotonic() - start, 1)
    sys.stderr.write(f"{len(result['faults'])} faults x {len(result['ops'])} "
                     f"ops in {seconds} s\n")
    json.dump(result, sys.stdout, indent=1)
    sys.stdout.write("\n")
