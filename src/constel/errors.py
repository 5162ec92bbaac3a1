"""Exceptions shared across the package."""

from __future__ import annotations


class VerificationError(RuntimeError):
    """A certificate failed its own re-check before being reported.

    Raised instead of `assert`, which `python -O` strips, wherever a
    check guards certified output."""
