"""The size caps that keep enumeration and closure from stalling.

Each cap is checked where the work it bounds happens, against a limit
resolved at the check: the value of the innermost enclosing
`with cap.limit(n):` block (the CLI enters one per call, with its
flags), else the cap's environment variable, else its default.  A cap
is a positive integer; a variable set to anything else is refused with
a message naming it.  Going over a cap raises CapExceededError with one
message format that names the cap, its limit, its environment variable
and its CLI flag.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager, contextmanager, nullcontext
from contextvars import ContextVar
from typing import Iterator, NamedTuple

from .errors import CapExceededError, FusionWittError

# limits set by the enclosing Cap.limit blocks, keyed by the caps' variables
_SCOPED: ContextVar[dict[str, int]] = ContextVar("fusionwitt_cap_limits", default={})


def positive_int(text: str) -> int:
    """text as a cap value; ValueError unless it is an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is below 1")
    return value


class Cap(NamedTuple):
    name: str
    default: int
    env: str
    flag: str

    def limit(self, value: int | None) -> AbstractContextManager[None]:
        """Check against value inside the block; None keeps the enclosing limit and sets nothing."""
        return nullcontext() if value is None else _scope(self.env, value)

    def check(self, size: int, subject: str) -> None:
        """Refuse when size is over the resolved limit; subject names what
        was counted, e.g. 'group of order 70000'."""
        limit = _SCOPED.get().get(self.env)
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


@contextmanager
def _scope(env: str, value: int) -> Iterator[None]:
    token = _SCOPED.set({**_SCOPED.get(), env: value})
    try:
        yield
    finally:
        _SCOPED.reset(token)


ELEMENT_CAP = Cap("element cap", 2**16, "FUSIONWITT_ELEMENT_CAP", "--element-cap")
ORDER_CAP = Cap("order cap", 32, "FUSIONWITT_ORDER_CAP", "--order-cap")
CLOSURE_CAP = Cap("closure cap", 256, "FUSIONWITT_CLOSURE_CAP", "--closure-cap")
