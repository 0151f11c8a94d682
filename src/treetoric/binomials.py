"""Binomials over indexed coordinate variables.

A coordinate variable is a tuple ``(kind, i, j)`` with ``i <= j``.  The
package emits only ``("p", i, j)`` and ``("q", i, j)``, the Laplacian
coordinates with ``0 <= i < j``.  :func:`parse_var_name` still reads any
lower-case kind; the ``kernel`` command rejects a variable outside the
tree's coordinates with exit code 3.  A monomial is a sorted tuple of (variable, exponent) pairs; a binomial is the
difference of two distinct monomials in canonical form (larger monomial
first, coefficient +1), stored as the tuple ``(lead, trail)``, so binomials
order, compare and hash as tuples.  Degenerate differences of equal
monomials are never represented.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

Var = tuple[str, int, int]
Monomial = tuple[tuple[Var, int], ...]


def coord_var(kind: str, i: int, j: int) -> Var:
    if i > j:
        i, j = j, i
    return (kind, i, j)


def var_name(v: Var) -> str:
    kind, i, j = v
    if i <= 9 and j <= 9:
        return f"{kind}{i}{j}"
    return f"{kind}{i}_{j}"


_VAR_RE = re.compile(r"^([a-z]+)(?:(\d)(\d)|(\d+)_(\d+))$")


def parse_var_name(text: str) -> Var:
    m = _VAR_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse variable {text!r}")
    kind = m.group(1)
    if m.group(2) is not None:
        return coord_var(kind, int(m.group(2)), int(m.group(3)))
    return coord_var(kind, int(m.group(4)), int(m.group(5)))


def monomial(variables: Iterable[Var]) -> Monomial:
    """Monomial from a variable sequence; repeats accumulate exponents."""
    exps: dict[Var, int] = {}
    for v in variables:
        exps[v] = exps.get(v, 0) + 1
    return tuple(sorted(exps.items()))


def monomial_name(m: Monomial) -> str:
    parts = []
    for v, e in m:
        parts.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
    return "*".join(parts) if parts else "1"


def evaluate_monomial(m: Iterable[tuple], point: Mapping) -> Fraction:
    """Product of point[key] ** e over the (key, exponent) pairs of ``m``;
    a key missing from ``point`` raises ``KeyError``."""
    acc = 1
    for v, e in m:
        acc *= point[v] ** e
    return acc


class Binomial(NamedTuple):
    """lead - trail with lead > trail in the monomial order."""

    lead: Monomial
    trail: Monomial

    @staticmethod
    def make(m1: Monomial, m2: Monomial) -> "Binomial | None":
        """Canonical binomial m1 - m2, or ``None`` when it degenerates to 0."""
        if m1 == m2:
            return None
        return Binomial(max(m1, m2), min(m1, m2))

    def variables(self) -> set[Var]:
        return {v for v, _ in self.lead} | {v for v, _ in self.trail}

    def evaluate(self, point: Mapping[Var, Fraction]) -> Fraction:
        """Exact value of lead - trail at the point."""
        return evaluate_monomial(self.lead, point) - evaluate_monomial(
            self.trail, point
        )

    def text(self) -> str:
        return f"{monomial_name(self.lead)} - {monomial_name(self.trail)}"

    def __str__(self) -> str:
        return self.text()


def parse_binomial(text: str) -> Binomial:
    """Parse the one-per-line text format, e.g. ``q03*q24 - q02*q34``."""
    pieces = text.split("-")
    if len(pieces) != 2:
        raise ValueError(f"expected 'monomial - monomial', got {text!r}")
    parsed = []
    for piece in pieces:
        exps: dict[Var, int] = {}
        for factor in piece.strip().split("*"):
            factor = factor.strip()
            e = 1
            if "^" in factor:
                factor, exp = factor.split("^")
                e = int(exp)
                if e < 1:
                    raise ValueError(f"exponent below 1 in {text!r}")
            v = parse_var_name(factor)
            exps[v] = exps.get(v, 0) + e
        parsed.append(tuple(sorted(exps.items())))
    b = Binomial.make(parsed[0], parsed[1])
    if b is None:
        raise ValueError(f"degenerate binomial: {text!r}")
    return b
