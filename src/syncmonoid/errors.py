"""Shared exception types."""

from __future__ import annotations


class CapExceeded(RuntimeError):
    """An enumeration outgrew its cap; ``partial`` is the count reached."""

    def __init__(self, message: str, partial: int):
        # both arguments in ``args``, so that unpickling can rebuild it
        super().__init__(message, partial)
        self.partial = partial

    def __str__(self):
        message, partial = self.args
        return f"{message} (partial count: {partial})"


class VerificationError(RuntimeError):
    """A certificate failed its independent check: a fault of the program."""
