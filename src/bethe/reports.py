"""Machine-readable run reports and serialized coefficient tables.

The JSON layout is fixed:

* report: {"check", "params", "result", "details": [{"item",
  "residual_zero"}], "runtime_ms", "conventions"}
* table:  {"config", "series": [{"k", "coeffs": [{"terms": [{"word" or
  "monomial", "coeff"}]}]}]}, every coefficient by `serialize_terms`

Detail rows are sorted before emission and rationals are written as "p/q"
strings, so identical configurations reproduce identical bytes.  Because a
wall-clock field would defeat byte-level reproducibility, setting the
environment variable BETHE_DETERMINISTIC=1 pins "runtime_ms" to 0 (the
same convention reproducible builds use for timestamps).
"""
from __future__ import annotations

import os

from .rationals import format_rat

try:  # the C string encoder, without loading the rest of `json`
    from _json import encode_basestring_ascii
except ImportError:  # pragma: no cover
    from json.encoder import encode_basestring_ascii


def h_orientation(k: int) -> str:
    """The arrow orientations ("outer=..,inner=.." joined by ";") in which
    the ordered product of the R_pq(q-p), p < q, equals 1! 2! ... k! H_k:
    all four at k = 2 (one factor), two from k = 3 on.  Reports declare
    them; `verify fusion` checks them in Z[S_k] (verify_antisymmetrizers)."""
    if k < 3:
        return ("trivial", "outer=asc,inner=asc;outer=asc,inner=desc;"
                "outer=desc,inner=asc;outer=desc,inner=desc")[k - 1]
    return "outer=asc,inner=asc;outer=desc,inner=desc"


def deterministic_mode() -> bool:
    return os.environ.get("BETHE_DETERMINISTIC", "") == "1"


def output_dir() -> str:
    return os.environ.get("BETHE_OUTPUT_DIR", ".")


class Report:
    """Outcome of one verification check."""

    def __init__(self, check: str, params: dict, details: list,
                 runtime_ms: int, conventions: dict):
        self.check = check
        self.params = params
        self.details = sorted(details, key=lambda row: row[0])
        self.runtime_ms = 0 if deterministic_mode() else runtime_ms
        self.conventions = conventions

    @property
    def passed(self) -> bool:
        """Every row holds, and there is one: a check with no rows checked
        nothing."""
        return bool(self.details) and all(ok for _, ok in self.details)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "result": "pass" if self.passed else "fail",
            "details": [{"item": item, "residual_zero": bool(ok)}
                        for item, ok in self.details],
            "runtime_ms": int(self.runtime_ms),
            "conventions": self.conventions,
        }

    def to_text(self) -> str:
        lines = [f"check: {self.check}",
                 f"result: {'pass' if self.passed else 'fail'}"]
        for item, ok in self.details:
            lines.append(f"  {item}: {'PASS' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def serialize_terms(terms: dict, key: str) -> dict:
    """The one encoding of a term dict {monomial: coefficient}, a monomial
    a tuple of (level, row, col): {"terms": [{key: [[row, col, level], ...],
    "coeff": "p/q"}]} in sorted monomial order.  The key is "word" for an
    algebra element, "monomial" for a polynomial."""
    return {"terms": [{key: [[i, j, r] for (r, i, j) in m],
                       "coeff": format_rat(c)}
                      for m, c in sorted(terms.items())]}


def series_table(config: dict, rows: dict, key: str) -> dict:
    """Coefficient table: rows maps each k to its coefficients, each
    written through `serialize_terms` under `key`."""
    return {
        "config": config,
        "series": [{"k": k, "coeffs": [serialize_terms(c.terms, key)
                                       for c in coeffs]}
                   for k, coeffs in rows.items()],
    }


def dump_json(data: dict, path: str) -> None:
    """Write a report or table in the fixed JSON encoding, the bytes of
    json.dumps(data, sort_keys=True, indent=1) and a final newline."""
    with open(path, "w") as fh:
        fh.write(json_text(data) + "\n")


def json_text(x, nl: str = "\n") -> str:
    """`x` (nested dicts with str keys, lists, str, int, bool and None) as
    json.dumps(x, sort_keys=True, indent=1) encodes it, `nl` the newline
    and indent of its nesting.  With an indent set that encoder runs in
    pure Python; this one only joins strings, each quoted by the C
    encoder of `json`."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if t is list or t is dict:
        if not x:
            return "[]" if t is list else "{}"
        inner = nl + " "
        if t is list:
            return "[" + inner + ("," + inner).join(
                [json_text(v, inner) for v in x]) + nl + "]"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + json_text(x[k], inner)
             for k in sorted(x)]) + nl + "}"
    if x is None or t is bool:
        return "null" if x is None else "true" if x else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
