"""The size caps that keep enumeration and closure from stalling.

Each cap resolves in one order: the explicit value a caller passes (the
CLI passes its flag), else the cap's environment variable, else its
default.  A cap is a positive integer; a variable set to anything else
is refused with a message naming it.  Going over a cap raises
CapExceededError with one message format that names the cap, its limit,
its environment variable and its CLI flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceededError, FusionWittError


def positive_int(text: str) -> int:
    """text as a cap value; ValueError unless it is an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is below 1")
    return value


@dataclass(frozen=True)
class Cap:
    name: str
    default: int
    env: str
    flag: str

    def check(self, size: int, subject: str, value: int | None = None) -> None:
        """Refuse when size is over the resolved limit; subject names what
        was counted, e.g. 'group of order 70000'."""
        limit = value
        if limit is None:
            raw = os.environ.get(self.env)
            try:
                limit = positive_int(raw) if raw else self.default
            except ValueError:
                raise FusionWittError(f"{self.env} must be a positive integer, not {raw!r}") from None
        if size > limit:
            raise CapExceededError(
                f"{subject} exceeds the {self.name} {limit}; raise it with {self.env} or {self.flag}"
            )


ELEMENT_CAP = Cap("element cap", 2**16, "FUSIONWITT_ELEMENT_CAP", "--element-cap")
ORDER_CAP = Cap("order cap", 32, "FUSIONWITT_ORDER_CAP", "--order-cap")
CLOSURE_CAP = Cap("closure cap", 256, "FUSIONWITT_CLOSURE_CAP", "--closure-cap")
