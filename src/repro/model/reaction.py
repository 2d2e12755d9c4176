"""Biochemical reactions and the textual reaction parser.

A reaction maps multisets of reactant and product species to each other,
with an associated kinetic constant and kinetic law:

    R_i :  sum_j a_ij S_j  --k_i-->  sum_j b_ij S_j

Reactions can be built programmatically or parsed from strings such as
``"2 A + B -> C @ 0.5"`` (the ``@ value`` suffix sets the kinetic
constant). The empty side is written ``0`` (or left blank), e.g.
``"0 -> A @ 1e-3"`` for a zero-order synthesis and ``"A -> 0 @ 0.1"``
for a degradation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import ModelError, ParseError
from .kinetics import MASS_ACTION, KineticLaw, validate_law_for_reaction

_TERM_RE = re.compile(r"^\s*(\d+)?\s*\*?\s*([A-Za-z_][A-Za-z0-9_]*)\s*$")


@dataclass(frozen=True)
class Reaction:
    """A single biochemical reaction.

    Parameters
    ----------
    reactants:
        Mapping species name -> stoichiometric coefficient (>= 1).
    products:
        Mapping species name -> stoichiometric coefficient (>= 1).
    rate_constant:
        Kinetic constant k_i > 0 (for Michaelis-Menten / Hill laws this
        is the Vmax).
    law:
        Kinetic law; defaults to mass action.
    name:
        Optional human-readable identifier.
    """

    reactants: dict[str, int] = field(default_factory=dict)
    products: dict[str, int] = field(default_factory=dict)
    rate_constant: float = 1.0
    law: KineticLaw = MASS_ACTION
    name: str = ""

    def __post_init__(self) -> None:
        for side_name, side in (("reactant", self.reactants),
                                ("product", self.products)):
            for species, coefficient in side.items():
                if not isinstance(coefficient, int) or coefficient < 1:
                    raise ModelError(
                        f"reaction {self.name or self.text()!r}: {side_name} "
                        f"{species!r} has invalid coefficient {coefficient!r} "
                        "(must be a positive integer)"
                    )
        if not (self.rate_constant > 0.0):
            raise ModelError(
                f"reaction {self.name or self.text()!r}: rate constant must "
                f"be > 0, got {self.rate_constant}"
            )
        if not self.reactants and not self.products:
            raise ModelError("reaction with empty reactant and product sides")
        max_coefficient = max(self.reactants.values(), default=0)
        validate_law_for_reaction(self.law, len(self.reactants), max_coefficient)

    @property
    def order(self) -> int:
        """Reaction order: total number of reactant molecules."""
        return sum(self.reactants.values())

    def species_names(self) -> set[str]:
        """All species appearing on either side."""
        return set(self.reactants) | set(self.products)

    def net_change(self, name: str) -> int:
        """Net stoichiometric change (b - a) for one species."""
        return self.products.get(name, 0) - self.reactants.get(name, 0)

    def text(self) -> str:
        """Render the reaction in the parser's textual syntax."""

        def render(side: dict[str, int]) -> str:
            if not side:
                return "0"
            terms = []
            for species, coefficient in side.items():
                prefix = f"{coefficient} " if coefficient != 1 else ""
                terms.append(f"{prefix}{species}")
            return " + ".join(terms)

        return (f"{render(self.reactants)} -> {render(self.products)}"
                f" @ {self.rate_constant:g}")

    def with_rate_constant(self, value: float) -> "Reaction":
        """Return a copy of this reaction with a new kinetic constant."""
        return Reaction(dict(self.reactants), dict(self.products), value,
                        self.law, self.name)


def _parse_side(text: str, what: str) -> dict[str, int]:
    text = text.strip()
    if text in ("", "0", "Ø", "_"):
        return {}
    side: dict[str, int] = {}
    for term in text.split("+"):
        match = _TERM_RE.match(term)
        if match is None:
            raise ParseError(f"cannot parse {what} term {term.strip()!r}")
        coefficient = int(match.group(1)) if match.group(1) else 1
        if coefficient < 1:
            raise ParseError(
                f"{what} term {term.strip()!r} has zero coefficient")
        species = match.group(2)
        side[species] = side.get(species, 0) + coefficient
    return side


def parse_reaction(text: str, rate_constant: float | None = None,
                   law: KineticLaw = MASS_ACTION, name: str = "") -> Reaction:
    """Parse a reaction string such as ``"2 A + B -> C @ 0.5"``.

    The ``@ value`` rate suffix is optional if ``rate_constant`` is given
    explicitly; an explicit argument overrides the suffix.
    """
    body = text
    suffix_rate: float | None = None
    if "@" in text:
        body, _, rate_text = text.partition("@")
        try:
            suffix_rate = float(rate_text)
        except ValueError:
            raise ParseError(
                f"cannot parse rate constant {rate_text.strip()!r} "
                f"in {text!r}") from None
    if "->" not in body:
        raise ParseError(f"reaction {text!r} is missing '->'")
    left, _, right = body.partition("->")
    rate = rate_constant if rate_constant is not None else suffix_rate
    if rate is None:
        raise ParseError(f"reaction {text!r} has no rate constant")
    return Reaction(_parse_side(left, "reactant"), _parse_side(right, "product"),
                    rate, law, name)
