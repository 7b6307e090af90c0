"""Shared solvability verdict type."""

from __future__ import annotations

from collections import namedtuple

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"


class Verdict(namedtuple("Verdict", "status witness provenance reason")):
    """Outcome of a solvability decision.

    ``witness`` is present exactly when status is "solvable" and then
    satisfies the equation; ``reason`` is a machine-checkable code for
    unsolvable verdicts; ``provenance`` names the criterion that fired.
    """

    __slots__ = ()

    def __new__(cls, status: str, witness: tuple[int, int] | None, provenance: str,
                reason: str | None = None):
        if status not in (SOLVABLE, UNSOLVABLE):
            raise ValueError(f"bad status {status!r}")
        if (witness is not None) != (status == SOLVABLE):
            raise ValueError("witness present iff solvable")
        return tuple.__new__(cls, (status, witness, provenance, reason))

    @property
    def solvable(self) -> bool:
        return self.status == SOLVABLE
