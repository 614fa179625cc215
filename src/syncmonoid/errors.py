"""Shared exception types."""

from __future__ import annotations


class CapExceeded(RuntimeError):
    """An enumeration outgrew its cap; ``partial`` is the count reached."""

    def __init__(self, message: str, partial: int):
        super().__init__(f"{message} (partial count: {partial})")
        self.partial = partial


class VerificationError(RuntimeError):
    """A certificate failed its independent check: a fault of the program."""
