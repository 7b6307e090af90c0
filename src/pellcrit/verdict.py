"""Shared solvability verdict type."""

from __future__ import annotations

from dataclasses import dataclass

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a solvability decision.

    ``witness`` is present exactly when status is "solvable" and then
    satisfies the equation; ``reason`` is a machine-checkable code for
    unsolvable verdicts; ``provenance`` names the criterion that fired.
    """

    status: str
    witness: tuple[int, int] | None
    provenance: str
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.status not in (SOLVABLE, UNSOLVABLE):
            raise ValueError(f"bad status {self.status!r}")
        if (self.witness is not None) != (self.status == SOLVABLE):
            raise ValueError("witness present iff solvable")

    @property
    def solvable(self) -> bool:
        return self.status == SOLVABLE
