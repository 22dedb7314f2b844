"""Float sums whose bits do not depend on the Python version.

Python 3.12 made the builtin ``sum`` of floats compensated (Neumaier), so
``sum([0.1] * 10)`` is ``1.0`` there and ``0.9999999999999999`` on 3.10
and 3.11.  Every float sum that feeds a record goes through
:func:`ordered_sum`, which adds left to right in plain float arithmetic on
every version (the 3.11 bits, which the golden fixtures and stored
results hold).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def ordered_sum(values: Iterable[float]):
    """``0 + v0 + v1 + ...`` added left to right, as Python 3.11's ``sum``."""
    return reduce(add, values, 0)


__all__ = ["ordered_sum"]
