"""Conversational generation and mutation-based repair of JML-style specs."""

__version__ = "0.1.0"
