"""Correctness checks for the benchmark's outputs.

Each check compares an output with the paper's tables or with a property the
method must have (dimension sums here; the eigen-equation and the dimension
identity are the reports of ``verify_eigen`` and ``dim_identity``), never
with a saved copy of an earlier run.  Each returns True or False.
"""

from __future__ import annotations

import json

from liechar import zpoly


def poly_matches(got, want) -> bool:
    """Term-for-term equality with a table entry."""
    return isinstance(got, zpoly.ZPolynomial) and got == want


def dim_sum_holds(algebra, left, right, items) -> bool:
    """sum_mu N_mu dim V_mu = dim V_left * dim V_right for (mu, N_mu) items."""
    total = sum(int(mult) * algebra.weyl_dim(mu) for mu, mult in items)
    return total == algebra.weyl_dim(left) * algebra.weyl_dim(right)


def orbit_sum_holds(algebra, highest, items) -> bool:
    """sum over dominant mu of mult(mu) |W mu| = dim V_highest."""
    total = sum(int(mult) * algebra.orbit_size(mu) for mu, mult in items)
    return total == algebra.weyl_dim(highest)


def _answer(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def cli_char_ok(stdout: str, m, want, rank: int) -> bool:
    """A ``char --format json`` answer parses to the table record of ``m``."""
    answer = _answer(stdout)
    if not isinstance(answer, dict) or answer.get("labels") != list(m):
        return False
    try:
        got = zpoly.parse_poly(answer["poly"], rank)
    except (KeyError, TypeError, ValueError):
        return False
    return poly_matches(got, want)


def cli_dim_ok(stdout: str, algebra, m) -> bool:
    answer = _answer(stdout)
    return (isinstance(answer, dict) and answer.get("labels") == list(m)
            and answer.get("dim") == str(algebra.weyl_dim(m)))


def cli_tensor_ok(stdout: str, algebra, left, right) -> bool:
    answer = _answer(stdout)
    if not isinstance(answer, list) or not answer:
        return False
    items = [(tuple(e["labels"]), int(e["mult"])) for e in answer]
    return dim_sum_holds(algebra, left, right, items)


def cli_mult_ok(stdout: str, algebra, m) -> bool:
    answer = _answer(stdout)
    if not isinstance(answer, dict) or answer.get("highest") != list(m):
        return False
    items = [(tuple(e["labels"]), int(e["mult"])) for e in answer["entries"]]
    return orbit_sum_holds(algebra, m, items)


def cli_verify_ok(stdout: str, m) -> bool:
    """A ``verify --format json`` answer reports both checks passed."""
    answer = _answer(stdout)
    return (isinstance(answer, dict) and answer.get("labels") == list(m)
            and answer["eigen"]["ok"] is True and answer["dim"]["ok"] is True)
