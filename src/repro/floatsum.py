"""Float sums whose bits do not depend on the Python version.

Python 3.12 made the builtin ``sum`` of floats compensated (Neumaier), so
``sum([0.1] * 10)`` is ``1.0`` there and ``0.9999999999999999`` on 3.10
and 3.11.  Every float sum that feeds a record goes through
:func:`ordered_sum`, which adds left to right in plain float arithmetic on
every version (the 3.11 bits, which the golden fixtures and stored
results hold).

Dot products that feed records go through :func:`ordered_dot`: a 1-D
``np.dot`` or ``@`` calls BLAS ``ddot``, which splits a long vector across
the BLAS threads, so its bits depend on the BLAS thread count.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable

import numpy as np


def ordered_sum(values: Iterable[float]):
    """``0 + v0 + v1 + ...`` added left to right, as Python 3.11's ``sum``."""
    return reduce(add, values, 0)


def ordered_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` of two 1-D arrays, summed in NumPy's own loop.

    ``einsum`` runs no BLAS, so the bits do not depend on the BLAS thread
    count.  Its order does depend on the memory layout, so both operands
    are made contiguous: a column of a lane block then sums exactly as the
    same vector on its own.
    """
    return float(np.einsum(
        "i,i->", np.ascontiguousarray(a), np.ascontiguousarray(b)
    ))


__all__ = ["ordered_dot", "ordered_sum"]
