"""Shared configuration constants for hypothesis checks and pruning.

The guarantees behind the learners involve unspecified absolute constants.
They are collected here in one record so that every hypothesis check and
parameter derivation names the constant it used; nothing consumes them
silently.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Constants", "DEFAULT_CONSTANTS", "parse_constants"]


@dataclass(frozen=True)
class Constants:
    """Tunable absolute constants.

    c       enters the learner hypothesis checks (delta^2 >= c*eps*sqrt(d),
            delta^3 >= c*eps) and the pruning parameter eps' = 32*delta^2/c.
    c0      enters the latent-polytope hypothesis checks
            (delta >= sqrt(log k)/sqrt(c0*k) and the sigma0 budget).
    """

    c: float = 20.0
    c0: float = 20.0


DEFAULT_CONSTANTS = Constants()


def parse_constants(text: str) -> Constants:
    """Parse a ``c=..,c0=..`` override string (any subset)."""
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad constants entry {part!r}, expected name=value")
        name, raw = part.split("=", 1)
        name = name.strip()
        if name not in ("c", "c0"):
            raise ValueError(f"unknown constant {name!r} (expected c, c0)")
        values[name] = float(raw)
    base = DEFAULT_CONSTANTS
    return Constants(
        c=values.get("c", base.c),
        c0=values.get("c0", base.c0),
    )
