"""Shared configuration constants for hypothesis checks and pruning.

The guarantees behind the learners involve unspecified absolute constants.
They are collected here in one record so that every hypothesis check and
parameter derivation names the constant it used; nothing consumes them
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"constant {f.name} = {value!r} must be finite and positive")


DEFAULT_CONSTANTS = Constants()


def parse_constants(text: str) -> Constants:
    """Parse a ``c=..,c0=..`` override string (any subset of the fields)."""
    names = [f.name for f in fields(Constants)]
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"bad constants entry {part!r}, expected name=value")
        if name not in names:
            raise ValueError(f"unknown constant {name!r} (expected {', '.join(names)})")
        try:
            values[name] = float(raw)
        except ValueError:
            raise ValueError(f"bad constants entry {part!r}, value is not a number") from None
    return replace(DEFAULT_CONSTANTS, **values)
