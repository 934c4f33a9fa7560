"""The size caps that keep enumeration and closure from stalling.

Each cap resolves in one order: the explicit value a caller passes (the
CLI passes its flag), else the cap's environment variable, else its
default.  Going over a cap raises CapExceededError with one message
format that names the cap, its limit, its environment variable and its
CLI flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceededError


@dataclass(frozen=True)
class Cap:
    name: str
    default: int
    env: str
    flag: str

    def check(self, size: int, subject: str, value: int | None = None) -> None:
        """Refuse when size is over the resolved limit; subject names what
        was counted, e.g. 'group of order 70000'."""
        limit = value if value is not None else int(os.environ.get(self.env) or self.default)
        if size > limit:
            raise CapExceededError(
                f"{subject} exceeds the {self.name} {limit}; raise it with {self.env} or {self.flag}"
            )


ELEMENT_CAP = Cap("element cap", 2**16, "FUSIONWITT_ELEMENT_CAP", "--element-cap")
ORDER_CAP = Cap("order cap", 32, "FUSIONWITT_ORDER_CAP", "--order-cap")
CLOSURE_CAP = Cap("closure cap", 256, "FUSIONWITT_CLOSURE_CAP", "--closure-cap")
