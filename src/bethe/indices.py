"""Index conventions and parameter matrices.

Two index conventions are used throughout:

* plain: indices 1..N (the general-linear case);
* signed: indices -n..-1,1..n (N = 2n) or -n..-1,0,1..n (N = 2n + 1),
  carrying a form type ("so" orthogonal / "sp" symplectic) and its signs:
  theta_i (-1 on the negative indices of sp, else 1), the sign factors
  eps_ij = theta_i theta_j of the prime transposition E_ij' =
  eps_ij E_{-j,-i}, and the upper sign, +1 for so and -1 for sp.

Signed indices are ordered -n < ... < -1 < 0 < 1 < ... < n, so ordinary
integer comparison gives the canonical order in both conventions.

`perm_sign` is the sign of an ordering of distinct indices, the sign of
every quantum minor and every row of the alternator.
"""
from __future__ import annotations

from .rationals import parse_rat, rat


class IndexSet:
    __slots__ = ("kind", "N", "form", "_indices", "theta", "upper")

    def __init__(self, kind: str, N: int, form: str | None = None):
        if kind not in ("plain", "signed"):
            raise ValueError(f"unknown index kind {kind!r}")
        if kind == "signed":
            if form not in ("so", "sp"):
                raise ValueError("signed index set needs form 'so' or 'sp'")
            if form == "sp" and N % 2 != 0:
                raise ValueError("symplectic requires even N")
        else:
            form = None
        self.kind = kind
        self.N = N
        self.form = form
        self._indices = (tuple(range(1, N + 1)) if kind == "plain" else
                         tuple(i for i in range(-(N // 2), N // 2 + 1)
                               if i or N % 2))
        # {i: theta_i} and the upper sign, None on a plain set
        self.theta = ({i: -1 if form == "sp" and i < 0 else 1
                       for i in self._indices} if form else None)
        self.upper = {"so": 1, "sp": -1}.get(form)

    @staticmethod
    def plain(N: int) -> "IndexSet":
        return IndexSet("plain", N)

    @staticmethod
    def signed(N: int, form: str) -> "IndexSet":
        return IndexSet("signed", N, form)

    @property
    def n(self) -> int:
        return self.N // 2

    def indices(self) -> tuple[int, ...]:
        return self._indices

    def __contains__(self, i: int) -> bool:
        return i in self._indices

    def check(self, i: int) -> None:
        """Raise ValueError unless i is an int index of the set (a bool,
        float or string equal to one is not)."""
        if type(i) is not int or i not in self:
            raise ValueError(f"index {i!r} outside {self!r}")

    def eps(self, i: int, j: int) -> int:
        """eps_ij = theta_i theta_j; undefined on plain sets."""
        if self.theta is None:
            raise ValueError("eps is only defined for signed index sets")
        return self.theta[i] * self.theta[j]

    def __eq__(self, other):
        return isinstance(other, IndexSet) and \
            (self.kind, self.N, self.form) == (other.kind, other.N, other.form)

    def __hash__(self):
        return hash((self.kind, self.N, self.form))

    def __repr__(self):
        if self.kind == "plain":
            return f"IndexSet.plain({self.N})"
        return f"IndexSet.signed({self.N}, {self.form!r})"


class ZMatrix:
    """Exact-rational parameter matrix over an index set.

    symmetry_tag is one of None, "prime_symmetric" (Z' = Z) or
    "prime_skew" (Z' = -Z); the tag and every index of `entries` are
    checked on construction.
    """

    __slots__ = ("index_set", "entries", "symmetry_tag")

    def __init__(self, index_set: IndexSet, entries: dict, symmetry_tag=None):
        for i, j in entries:
            index_set.check(i)
            index_set.check(j)
        self.index_set = index_set
        self.entries = {k: c for k, v in entries.items()
                        for c in (rat(v),) if c}
        self.symmetry_tag = symmetry_tag
        if symmetry_tag is not None:
            self._check_tag()

    def _check_tag(self):
        iset = self.index_set
        if iset.kind != "signed":
            raise ValueError("prime symmetry tags require a signed index set")
        sign = 1 if self.symmetry_tag == "prime_symmetric" else -1
        for i in iset.indices():
            for j in iset.indices():
                # Z'_{ij} = eps_{-j,-i} z_{-j,-i}
                lhs = iset.eps(-j, -i) * self.entry(-j, -i)
                if lhs != sign * self.entry(i, j):
                    raise ValueError(
                        f"Z does not satisfy Z' = {'+' if sign > 0 else '-'}Z"
                    )

    @staticmethod
    def diagonal(index_set: IndexSet, values, symmetry_tag=None) -> "ZMatrix":
        idx = index_set.indices()
        if len(values) != len(idx):
            raise ValueError("diagonal length mismatch")
        return ZMatrix(
            index_set, {(i, i): v for i, v in zip(idx, values)}, symmetry_tag
        )

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), 0)


def parse_z_spec(spec: str, index_set: IndexSet, symmetry_tag=None) -> ZMatrix:
    """Parse the CLI grammar `diag:z1,z2,...` or `json:<path>`.

    For signed index sets the diagonal grammar lists values for indices
    1..n only; z_{-i} is filled as -z_i (prime_skew) or z_i
    (prime_symmetric), and z_0 = 0 is forced for odd N with prime_skew
    (so `diag:` with no value is the Z of so_1), z_0 = z_1 set with
    prime_symmetric.  A JSON file lists entries [i, j, value], each (i, j)
    once, with i and j JSON integers of the index set.
    """
    if spec.startswith("diag:"):
        vals = [parse_rat(v) for v in spec[5:].split(",")] if spec[5:] else []
        if index_set.kind == "plain":
            return ZMatrix.diagonal(index_set, vals, symmetry_tag)
        n = index_set.n
        if len(vals) == index_set.N:
            # full list in index order -n..n
            return ZMatrix.diagonal(index_set, vals, symmetry_tag)
        if len(vals) != n:
            raise ValueError(
                f"expected {n} diagonal values for indices 1..{n} "
                f"(or all {index_set.N} in index order)"
            )
        if symmetry_tag == "prime_symmetric":
            if not vals:
                raise ValueError("a prime-symmetric Z on so_1 needs its one "
                                 "value z_0: diag:z0")
            neg = list(reversed(vals))
            mid = [vals[0]] if index_set.N % 2 else []
        else:
            neg = [-v for v in reversed(vals)]
            mid = [0] if index_set.N % 2 else []
        return ZMatrix.diagonal(index_set, neg + mid + vals, symmetry_tag)
    if spec.startswith("json:"):
        import json

        with open(spec[5:]) as fh:
            data = json.load(fh)
        entries = {}
        for i, j, v in data:
            if (i, j) in entries:
                raise ValueError(f"the entry ({i}, {j}) is given twice")
            entries[i, j] = parse_rat(v)
        return ZMatrix(index_set, entries, symmetry_tag)
    raise ValueError(f"unrecognized Z specification {spec!r}")


def perm_sign(sigma) -> int:
    """The sign of the ordering sigma of distinct comparable items: -1 to
    the number of its inversions."""
    s = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                s = -s
    return s
