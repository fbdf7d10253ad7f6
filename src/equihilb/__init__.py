"""Equivariant Hilbert series of shift-invariant monomial algebra filtrations."""

__version__ = "0.1.0"
