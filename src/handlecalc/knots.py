"""Two-bridge knot arithmetic and the Stallings family.

Conway normal form C(n_1..n_k) evaluates through the continued fraction
p/q = n_1 + 1/(n_2 + 1/(...)); the D-notation D(m_1..m_{2k}) abbreviates
C(2m_1, -2m_2, ..., 2m_{2k-1}, -2m_{2k}) and is fibered exactly when every
entry is +-1, in which case the fiber genus is k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .twists import MonodromySpec, piece_monodromy, stallings_monodromy, two_bridge_monodromy


class KnotSpecError(ValueError):
    """Malformed knot specification string or non-knot input."""


@dataclass(frozen=True)
class ConwayForm:
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise KnotSpecError("Conway form needs at least one coefficient")

    def __str__(self):
        return "C(" + ",".join(str(c) for c in self.coefficients) + ")"


@dataclass(frozen=True)
class KnotFraction:
    """Classifying fraction p/q of a two-bridge knot: p odd positive, gcd(p,q)=1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0:
            raise KnotSpecError(f"fraction numerator must be positive, got {self.p}")
        if self.p % 2 == 0:
            raise KnotSpecError(f"p = {self.p} is even: a two-bridge link, not a knot")
        if gcd(self.p, self.q) != 1:
            raise KnotSpecError(f"fraction {self.p}/{self.q} is not in lowest terms")

    def __str__(self):
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class DForm:
    """General D-notation entries; fibered only when all entries are +-1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or len(self.entries) % 2:
            raise KnotSpecError(f"D-form needs even positive length, got {len(self.entries)}")

    def __str__(self):
        return "D(" + ",".join(str(e) for e in self.entries) + ")"


def continued_fraction(c: ConwayForm) -> KnotFraction:
    """Evaluate [n_1, n_2, ..., n_k] to a fraction in lowest terms, p > 0.

    Raises on division by zero at any stage and on even p (a link).
    """
    value: Fraction | None = None
    for n in reversed(c.coefficients):
        if value is None:
            value = Fraction(n)
        else:
            if value == 0:
                raise KnotSpecError(f"division by zero evaluating {c}")
            value = n + 1 / value
    assert value is not None
    p, q = value.numerator, value.denominator
    if p == 0:
        raise KnotSpecError(f"{c} evaluates to 0, not a knot fraction")
    if p < 0:
        p, q = -p, -q
    return KnotFraction(p, q)


def d_to_conway(d: DForm) -> ConwayForm:
    """C(2m_1, -2m_2, 2m_3, -2m_4, ...) for D(m_1, m_2, ...)."""
    coeffs = tuple(2 * m if j % 2 == 0 else -2 * m for j, m in enumerate(d.entries))
    return ConwayForm(coeffs)


def conway_to_d(c: ConwayForm) -> DForm | None:
    """Inverse of d_to_conway, or None if the coefficients do not fit the pattern."""
    if len(c.coefficients) % 2:
        return None
    entries = []
    for j, n in enumerate(c.coefficients):
        signed = n if j % 2 == 0 else -n
        if signed % 2:
            return None
        entries.append(signed // 2)
    return DForm(tuple(entries))


def is_fibered(d: DForm) -> bool:
    """Fiberedness criterion: every D-entry is +1 or -1."""
    return all(e in (1, -1) for e in d.entries)


@dataclass(frozen=True)
class TwoBridgeKnot:
    """A two-bridge knot presented by a Conway form, fibered when eps is set."""

    conway: ConwayForm
    eps: tuple[int, ...] | None

    @staticmethod
    def from_eps(eps: Sequence[int]) -> "TwoBridgeKnot":
        d = DForm(tuple(eps))
        if not is_fibered(d):
            raise KnotSpecError(f"{d} is not a fibered presentation")
        return TwoBridgeKnot(d_to_conway(d), d.entries)

    @staticmethod
    def from_conway(coefficients: Sequence[int]) -> "TwoBridgeKnot":
        c = ConwayForm(tuple(coefficients))
        d = conway_to_d(c)
        eps = d.entries if d is not None and is_fibered(d) else None
        return TwoBridgeKnot(c, eps)

    @property
    def is_fibered(self) -> bool:
        return self.eps is not None

    def _fibered_eps(self) -> tuple[int, ...]:
        """The D-form signs; the one place a non-fibered knot is rejected."""
        if self.eps is None:
            raise KnotSpecError(f"{self.conway} has no fibered D-form presentation")
        return self.eps

    @property
    def genus(self) -> int:
        return len(self._fibered_eps()) // 2

    def fraction(self) -> KnotFraction:
        return continued_fraction(self.conway)

    def monodromy(self) -> MonodromySpec:
        return two_bridge_monodromy(self._fibered_eps())

    def piece_monodromy(self) -> MonodromySpec:
        return piece_monodromy(self._fibered_eps())

    def spec_str(self) -> str:
        if self.eps is not None:
            return "twobridge:" + ",".join("+" if e > 0 else "-" for e in self.eps)
        return "conway:" + ",".join(str(n) for n in self.conway.coefficients)

    def __str__(self):
        return str(self.conway)


@dataclass(frozen=True)
class StallingsKnot:
    """The genus-2 fibered knot K_m, the m-fold Stallings twist on the summed trefoils."""

    m: int

    @property
    def genus(self) -> int:
        return 2

    @property
    def is_fibered(self) -> bool:
        return True

    def monodromy(self) -> MonodromySpec:
        return stallings_monodromy(self.m)

    def spec_str(self) -> str:
        return f"stallings:m={self.m}"

    def __str__(self):
        return f"K_{self.m}"


Knot = TwoBridgeKnot | StallingsKnot


def parse_knot_spec(text: str) -> Knot:
    """Parse `twobridge:+,-,...`, `conway:2,-2,...` or `stallings:m=<int>`.

    Mixed or malformed forms are rejected with the offending token named.
    """
    kind, sep, body = text.partition(":")
    if not sep:
        raise KnotSpecError(f"knot spec {text!r} is missing the ':' separator")
    if kind == "twobridge":
        eps = []
        for tok in body.split(","):
            tok = tok.strip()
            if tok == "+" or tok == "+1":
                eps.append(1)
            elif tok == "-" or tok == "-1":
                eps.append(-1)
            else:
                raise KnotSpecError(f"bad twobridge sign token {tok!r} in {text!r}")
        return TwoBridgeKnot.from_eps(eps)
    if kind == "conway":
        coeffs = []
        for tok in body.split(","):
            tok = tok.strip()
            try:
                coeffs.append(int(tok))
            except ValueError:
                raise KnotSpecError(f"bad conway coefficient {tok!r} in {text!r}") from None
        return TwoBridgeKnot.from_conway(coeffs)
    if kind == "stallings":
        if not body.startswith("m="):
            raise KnotSpecError(f"stallings spec needs m=<int>, got {body!r}")
        try:
            return StallingsKnot(int(body[2:]))
        except ValueError:
            raise KnotSpecError(f"bad stallings twist count {body[2:]!r}") from None
    raise KnotSpecError(f"unknown knot spec kind {kind!r} (use twobridge/conway/stallings)")


__all__ = [
    "ConwayForm",
    "KnotFraction",
    "DForm",
    "KnotSpecError",
    "continued_fraction",
    "d_to_conway",
    "conway_to_d",
    "is_fibered",
    "TwoBridgeKnot",
    "StallingsKnot",
    "Knot",
    "parse_knot_spec",
]
