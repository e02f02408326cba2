"""The wall-clock limit of a run: a ``time.perf_counter`` value, or None
for no limit.  The generator and the fixpoint check it in their outer
loops and raise ``DeadlineExceeded`` once it has passed."""

from __future__ import annotations

import time
from typing import Optional


class DeadlineExceeded(Exception):
    """The run's deadline passed before the current step finished."""


def check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise DeadlineExceeded
