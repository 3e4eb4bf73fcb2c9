"""JSON-value type checks shared by the config types; a bool is neither."""

import math
import numbers


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite number that a float can hold. ``json`` parses ``NaN`` and
    ``Infinity``, which no config value accepts."""
    if type(value) is float:  # the common case, without the ABC check
        return math.isfinite(value)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False
