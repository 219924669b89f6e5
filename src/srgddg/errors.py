"""Exception types shared across modules, and the base of the falsy
verdicts: the values that say why an answer is no."""

from __future__ import annotations


class FalsyVerdict:
    """A "no" answer that carries its reason and is false in a boolean
    context, so ``if not verdict`` reads as the answer."""

    def __bool__(self):
        return False


class SrgddgError(Exception):
    """Base class for all package-specific errors."""


class Graph6Error(SrgddgError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class SizeCapExceeded(SrgddgError):
    """An operation refused to run above its module's size cap."""


class NoHoffmanBound(SrgddgError):
    """The coclique bound v*s/(s-k) is not an integer for this graph."""


class BudgetExceeded(SrgddgError):
    """A search ran out of node budget; partial results are attached."""

    def __init__(self, message: str, nodes: int, partial=None):
        super().__init__(f"{message} (nodes explored: {nodes})")
        self.nodes = nodes
        self.partial = partial
