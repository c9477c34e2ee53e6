"""Absolute-deadline arithmetic for deadline propagation.

A deadline travels the wire as one optional envelope field: the *absolute*
wall-clock time (``time.time()`` seconds) after which the caller no longer
wants the answer.  Absolute, not a relative budget, so every hop can check
it without tracking how much time earlier hops consumed -- and so the
remaining budget is *monotonically non-increasing* across hops (the property
suite pins this): a downstream hop can never see more budget than the hop
that forwarded the request.

Helpers clamp at zero: ``remaining`` never returns a negative number, so a
remaining budget can be passed straight into a timeout parameter without a
negative-timeout ``ValueError`` from the socket layer.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core.errors import ErrorCode, SmacsError


def deadline_in(budget_s: float, *, now: "Callable[[], float] | None" = None) -> float:
    """The absolute deadline ``budget_s`` seconds from now.

    ``budget_s`` must be positive -- a caller that wants to give up
    immediately should not send the request at all.
    """
    if budget_s <= 0:
        raise ValueError(f"deadline budget must be positive, got {budget_s}")
    clock = now if now is not None else time.time
    return clock() + float(budget_s)


def remaining(deadline: float, *, now: "Callable[[], float] | None" = None) -> float:
    """Seconds of budget left before ``deadline``; clamped at 0.0.

    The clamp is the no-negative-timeout guarantee: the result is always a
    valid socket/wait timeout.
    """
    clock = now if now is not None else time.time
    return max(0.0, float(deadline) - clock())


def check_deadline(
    deadline: "float | None",
    *,
    stage: str,
    now: "Callable[[], float] | None" = None,
) -> None:
    """Shed already-dead work: raise ``DEADLINE_EXCEEDED`` when expired.

    ``None`` means the caller propagated no deadline (a legacy peer) --
    never an error.  ``stage`` names the checkpoint that shed the request
    (``"gateway"``, ``"issuance"``, ``"client"``) so the
    error message says *where* the budget ran out.
    """
    if deadline is None:
        return
    clock = now if now is not None else time.time
    if clock() >= float(deadline):
        raise SmacsError(
            f"deadline expired before {stage} (absolute deadline {deadline:.6f})",
            ErrorCode.DEADLINE_EXCEEDED,
        )


def decode_deadline(value: Any) -> "float | None":
    """Lenient wire decode of the optional ``deadline`` envelope field.

    Accepts a positive number; anything else (absent, null, wrong type,
    non-finite, non-positive) decodes to ``None`` -- like a malformed
    ``trace`` field, a bad deadline never fails the request, it just loses
    its propagation.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    deadline = float(value)
    if deadline <= 0 or deadline != deadline or deadline in (float("inf"), float("-inf")):
        return None
    return deadline


__all__ = ["check_deadline", "deadline_in", "decode_deadline", "remaining"]
