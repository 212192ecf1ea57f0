"""Machine-readable run reports and serialized coefficient tables.

The JSON layout is fixed:

* report: {"check", "params", "result", "details": [{"item",
  "residual_zero"}], "runtime_ms", "conventions"}
* table:  {"config", "series": [{"k", "coeffs": [...]}]}

Detail rows are sorted before emission and rationals are written as "p/q"
strings, so identical configurations reproduce identical bytes.  Because a
wall-clock field would defeat byte-level reproducibility, setting the
environment variable BETHE_DETERMINISTIC=1 pins "runtime_ms" to 0 (the
same convention reproducible builds use for timestamps).
"""
from __future__ import annotations

import json
import os
import time

from .rationals import format_rat


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ": "), indent=1) + "\n"

    def to_text(self) -> str:
        lines = [f"check: {self.check}",
                 f"result: {'pass' if self.passed else 'fail'}"]
        for item, ok in self.details:
            lines.append(f"  {item}: {'PASS' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.ms = int((time.monotonic() - self.t0) * 1000)
        return False


def serialize_poly(p) -> dict:
    """Commutative polynomial as {"terms": [{"monomial": [[i,j,r],...],
    "coeff": "p/q"}]} in sorted monomial order."""
    return {
        "terms": [
            {"monomial": [[i, j, r] for (r, i, j) in m],
             "coeff": format_rat(c)}
            for m, c in sorted(p.terms.items())
        ]
    }


def series_table(config: dict, series_rows: list) -> dict:
    """Coefficient table: series_rows is a list of (k, [payload, ...])."""
    return {
        "config": config,
        "series": [{"k": k, "coeffs": coeffs} for k, coeffs in series_rows],
    }


def dump_json(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True, separators=(",", ": "),
                            indent=1) + "\n")
