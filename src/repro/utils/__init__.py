"""Small shared utilities: integer math, divisors, validation helpers."""

from repro.utils.intmath import all_factorizations_3d, ceil_div, divisors, split_evenly
from repro.utils.validation import check_positive_int, check_probability, require

__all__ = [
    "ceil_div",
    "divisors",
    "all_factorizations_3d",
    "split_evenly",
    "require",
    "check_positive_int",
    "check_probability",
]
