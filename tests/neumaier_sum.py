"""Pytest plugin: ``builtins.sum`` with Python 3.12's compensated float path.

Python 3.12 sums floats with Neumaier compensation, so ``sum([0.1] * 10)``
is ``1.0`` there and ``0.9999999999999999`` on 3.10 and 3.11.  Loading this
plugin (``-p neumaier_sum``, with ``tests/`` on the path) installs that
algorithm on older interpreters before any test module is imported, so a
suite run under it shows whether its records depend on the interpreter.
"""

import builtins
import math

_builtin_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it: exact for ints, compensated for
    exact floats (and ints met in float mode), generic ``+`` otherwise."""
    total, compensation, floats = start, 0.0, type(start) is float
    for item in iterable:
        kind = type(item)
        if kind is float or (floats and kind is int):
            if not floats:
                if type(total) is not int:
                    total = total + item
                    continue
                total, floats = float(total), True
            item = float(item)
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
            continue
        if floats:
            if compensation and math.isfinite(compensation):
                total += compensation
            total, compensation, floats = total, 0.0, False
        total = total + item
    if floats and compensation and math.isfinite(compensation):
        total += compensation
    return total


builtins.sum = neumaier_sum
assert sum([0.1] * 10) == 1.0 and sum([1, 2, 3]) == 6
