"""Two-bridge knot arithmetic and the Stallings family.

Conway normal form C(n_1..n_k) evaluates through the continued fraction
p/q = n_1 + 1/(n_2 + 1/(...)); the D-notation D(m_1..m_{2k}) abbreviates
C(2m_1, -2m_2, ..., 2m_{2k-1}, -2m_{2k}) and is fibered exactly when every
entry is +-1, in which case the fiber genus is k.  Every two-bridge knot
has exactly one D-form, read off its fraction (`d_form`), so a knot given
by any Conway form is fibered exactly when its D-form is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .surfaces import MAX_GENUS, b2_curve, chain_curve
from .words import Word, _shown


#: The largest |m| of a Stallings knot K_m, so that a knot spec or a trace
#: cannot make the engine build words of unbounded length, and the largest
#: |c| of a Conway coefficient.  On a 2-vCPU Xeon, `run_both` of K_10000
#: takes 0.3 s at n = 1 or 2, and 1 s at n = 1000.
MAX_TWISTS = 10000

#: The largest k of an `--all-fibered --max-k k` sweep, which builds every
#: two-bridge sign sequence of genus 1..k: 4 + 16 + ... + 4^k knots.  On a
#: 2-vCPU Xeon, `verify --all-fibered` at n = 1 takes 78 s at k = 7 (21844
#: knots) and 17 s at k = 6; each further k multiplies the time by four.
MAX_SWEEP_K = 7


class KnotSpecError(ValueError):
    """Malformed knot specification string or non-knot input."""


@dataclass(frozen=True)
class ConwayForm:
    """C(n_1..n_k): at most 2 * MAX_GENUS coefficients, each |c| <= MAX_TWISTS.

    Every two-bridge knot passes here, also in the `knot` command, which
    builds no surface; so p < 10^2050 and its fraction prints.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        k = len(self.coefficients)
        if not k:
            raise KnotSpecError("Conway form needs at least one coefficient")
        if k > 2 * MAX_GENUS:
            raise KnotSpecError(f"knot genus {(k + 1) // 2} is above the limit {MAX_GENUS} "
                                f"(at most {2 * MAX_GENUS} signs or coefficients)")
        for j, c in enumerate(self.coefficients, 1):
            if abs(c) > MAX_TWISTS:  # c itself may have too many digits to print
                raise KnotSpecError(f"Conway coefficient {j} is above the limit |c| <= {MAX_TWISTS}")

    def __str__(self):
        return "C(" + ",".join(str(c) for c in self.coefficients) + ")"


@dataclass(frozen=True)
class KnotFraction:
    """Classifying fraction p/q of a two-bridge knot: p odd positive, gcd(p,q)=1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0:
            raise KnotSpecError(f"fraction numerator must be positive, got {_shown(self.p)}")
        if self.p % 2 == 0:
            raise KnotSpecError(f"p = {_shown(self.p)} is even: a two-bridge link, not a knot")
        if gcd(self.p, self.q) != 1:
            raise KnotSpecError(f"fraction {_shown(self.p)}/{_shown(self.q)} is not in lowest terms")

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
                raise KnotSpecError(f"division by zero evaluating {_shown(c)}")
            value = n + 1 / value
    assert value is not None
    p, q = value.numerator, value.denominator
    if p == 0:
        raise KnotSpecError(f"{_shown(c)} evaluates to 0, not a knot fraction")
    if p < 0:
        p, q = -p, -q
    return KnotFraction(p, q)


def d_to_conway(d: DForm) -> ConwayForm:
    """C(2m_1, -2m_2, 2m_3, -2m_4, ...) for D(m_1, m_2, ...)."""
    coeffs = tuple(2 * m if j % 2 == 0 else -2 * m for j, m in enumerate(d.entries))
    return ConwayForm(coeffs)


def d_form(f: KnotFraction) -> DForm:
    """The D-form of the knot p/q: its continued fraction with even terms.

    q is shifted by p to be even, with |q| < p; then, until q = 0, the even
    a with |p - a q| < |q| is the next term and (p, q) becomes (q, p - a q).
    The terms are C(2m_1, -2m_2, ...), an even number of them, none 0.
    Raises KnotSpecError for the unknot (p = 1) and for a knot of genus
    above MAX_GENUS, before its expansion runs past 2 * MAX_GENUS terms.
    """
    if f.p == 1:
        raise KnotSpecError("p = 1: the unknot, which has no fiber surface of genus >= 1")
    p, q = f.p, f.q % f.p
    if q % 2:
        q -= p
    entries: list[int] = []
    while q:
        if len(entries) == 2 * MAX_GENUS:
            raise KnotSpecError(f"knot genus {MAX_GENUS + 1} or more is above the limit {MAX_GENUS} "
                                f"(its D-form has more than {2 * MAX_GENUS} entries)")
        a = 2 * ((p + q) // (2 * q))  # the even integer nearest p/q, which is never an odd integer
        entries.append(a // 2 if len(entries) % 2 == 0 else -a // 2)
        p, q = q, p - a * q
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
        """The knot D(eps), fibered when every entry is +-1, as in `from_conway`."""
        d = DForm(tuple(eps))
        return TwoBridgeKnot(d_to_conway(d), d.entries if is_fibered(d) else None)

    @staticmethod
    def from_conway(coefficients: Sequence[int]) -> "TwoBridgeKnot":
        """The knot C(coefficients), fibered when its D-form is: C(2,1), C(3) and C(1,1,1) are the trefoil."""
        c = ConwayForm(tuple(coefficients))
        d = d_form(continued_fraction(c))
        return TwoBridgeKnot(c, d.entries if is_fibered(d) else None)

    @property
    def is_fibered(self) -> bool:
        return self.eps is not None

    def _fibered_eps(self) -> tuple[int, ...]:
        """The D-form signs; the one place a non-fibered knot is rejected."""
        if self.eps is None:
            raise KnotSpecError(f"{_shown(self.conway)} has no fibered D-form presentation")
        return self.eps

    @property
    def genus(self) -> int:
        return len(self._fibered_eps()) // 2

    def fraction(self) -> KnotFraction:
        return continued_fraction(self.conway)

    def piece_twists(self) -> tuple[tuple[Word, int], ...]:
        """The pieces' monodromy as chain twists (a_j, eps_j), t_{a_2g} applied first.

        The fibration monodromy has the same twists in the opposite order,
        t_{a_1} first.  In this order the image of alpha_i is a word over
        alpha_0..alpha_{i+1} crossing alpha_{i+1} exactly once.
        """
        eps = self._fibered_eps()
        return tuple((chain_curve(j), eps[j - 1]) for j in range(len(eps), 0, -1))

    def monodromy_str(self) -> str:
        """The fibration monodromy in composition notation, rightmost twist applied first.

        t_{a_1} acts first and so is written last: the piece twists' order.
        """
        eps = self._fibered_eps()
        return " ".join(f"t_a{j}" if eps[j - 1] == 1 else f"t_a{j}^-1" for j in range(len(eps), 0, -1))

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

    def __post_init__(self):
        if abs(self.m) > MAX_TWISTS:  # m itself may have too many digits to print
            shown = f"m={self.m}" if abs(self.m) < 10**12 else f"m (a {self.m.bit_length()}-bit integer)"
            raise KnotSpecError(f"Stallings twist count {shown} is above the limit |m| <= {MAX_TWISTS}")

    @property
    def genus(self) -> int:
        return 2

    @property
    def is_fibered(self) -> bool:
        return True

    def piece_twists(self) -> tuple[tuple[Word, int], ...]:
        """phi_m = t_{a3}^m t_{a4} t_{b2} t_{a2}^-1 t_{a1}^-1 as twists, t_{a1}^-1 applied first.

        m enters only as the exponent of (a3, m), so its images cost O(|m|) letters.
        """
        return ((chain_curve(1), -1), (chain_curve(2), -1), (b2_curve(), 1), (chain_curve(4), 1),
                (chain_curve(3), self.m))

    def monodromy_str(self) -> str:
        """phi_m = t_{a3}^m t_{a4} t_{b2} t_{a2}^-1 t_{a1}^-1, t_{a1}^-1 applied first."""
        power = "" if not self.m else "t_a3 " if self.m == 1 else f"t_a3^{self.m} "
        return power + "t_a4 t_b2 t_a2^-1 t_a1^-1"

    def spec_str(self) -> str:
        return f"stallings:m={self.m}"

    def __str__(self):
        return f"K_{self.m}"


Knot = TwoBridgeKnot | StallingsKnot


def _spec_int(tok: str, what: str) -> int:
    """The integer `tok` spells as an optional sign and ASCII digits (`int` also reads `1_0` or ` 1`)."""
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if digits.isascii() and digits.isdigit():
        try:
            return int(tok)
        except ValueError:  # more digits than Python's int reads from text
            pass
    raise KnotSpecError(f"bad {what} {_shown(tok)}")


def parse_knot_spec(text: str) -> Knot:
    """Parse `twobridge:+,-,...`, `conway:2,-2,...` or `stallings:m=<int>`.

    Mixed or malformed forms are rejected with the offending token named,
    cut to its first 12 characters.  The items of a list may have spaces
    around them; an integer is an optional sign and ASCII digits.
    """
    kind, sep, body = text.partition(":")
    if not sep:
        raise KnotSpecError(f"knot spec {_shown(text)} is missing the ':' separator")
    if kind == "twobridge":
        eps = []
        for tok in body.split(","):
            tok = tok.strip()
            if tok == "+" or tok == "+1":
                eps.append(1)
            elif tok == "-" or tok == "-1":
                eps.append(-1)
            else:
                raise KnotSpecError(f"bad twobridge sign token {_shown(tok)}")
        return TwoBridgeKnot.from_eps(eps)
    if kind == "conway":
        return TwoBridgeKnot.from_conway([_spec_int(tok.strip(), "conway coefficient") for tok in body.split(",")])
    if kind == "stallings":
        if not body.startswith("m="):
            raise KnotSpecError(f"stallings spec needs m=<int>, got {_shown(body)}")
        return StallingsKnot(_spec_int(body[2:], "stallings twist count"))
    raise KnotSpecError(f"unknown knot spec kind {_shown(kind)} (use twobridge/conway/stallings)")


__all__ = [
    "MAX_TWISTS",
    "MAX_SWEEP_K",
    "ConwayForm",
    "KnotFraction",
    "DForm",
    "KnotSpecError",
    "continued_fraction",
    "d_to_conway",
    "d_form",
    "is_fibered",
    "TwoBridgeKnot",
    "StallingsKnot",
    "Knot",
    "parse_knot_spec",
]
