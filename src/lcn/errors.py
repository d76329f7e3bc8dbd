"""Exception types shared across the package."""

from __future__ import annotations


class LcnError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(LcnError):
    """A syntax error in a formula or a model file.

    Carries optional line/column information (1-based) so command-line
    tools can point at the offending input.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(str(self))

    def __str__(self) -> str:
        where = ", ".join(f"{label} {value}" for label, value in
                          (("line", self.line), ("column", self.column)) if value is not None)
        return f"{where}: {self.message}" if where else self.message


class GraphError(LcnError):
    """An operation was applied to a graph that does not support it
    (unknown node, directed edges where only undirected are allowed,
    size guard exceeded, and so on)."""


class ModelError(LcnError):
    """An ill-formed constraint or network (bounds out of range, formula
    over undeclared propositions, ...)."""
