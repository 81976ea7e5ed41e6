"""Exception types shared across the toolkit, and the rules for numeric arguments.

The CLI maps these onto exit codes: usage errors exit 1, data errors 2,
numeric-domain errors 3.

Every numeric argument is checked by one of three rules, which raise a
DomainError naming it: check_count for sizes, check_seed for seeds and
check_range for any other number with a domain. They take scalars; an array
is checked through its min and max, which NaN propagates through.
"""

import operator


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class UsageError(ToolkitError):
    """Command-line misuse: unknown option, bad flag combination, malformed spec string."""


class DataError(ToolkitError):
    """Input data violates the schema or a dataset-level precondition."""


class DomainError(ToolkitError):
    """A numeric argument lies outside its mathematical domain."""


def check_range(name: str, value, low, high, ends: str = "[]"):
    """The one range rule: value in the interval low to high, its ends closed
    or open as `ends` says ("[]", "[)", "(]" or "()"), else DomainError.

    Each end is a plain comparison that NaN fails, so NaN never passes, nor
    does an infinity at an open end; cheap enough to run once per record.
    """
    if (low <= value <= high if ends == "[]" else
            (low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        return value
    raise DomainError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}: {value!r}")


def check_count(name: str, value, least: int = 1):
    """The one count rule: least <= value < 2^53, else DomainError.

    Sizes, grid points and loop counts are checked here before anything is
    allocated or iterated. Below 2^53 a count is exact as a float, and no
    array of that many elements trips numpy's own size limit.
    """
    if not least <= value < 2 ** 53:
        raise DomainError(f"{name} must lie in [{least}, 2^53): {value!r}")
    return value


def check_integer(name: str, value) -> int:
    """value as an int (numpy integers pass); a bool or a float is a DomainError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise DomainError(f"{name} must be an integer: {value!r}")
    return operator.index(value)


def check_seed(seed) -> int:
    """The one seed rule: an integer with 0 <= seed < 2^64, else DomainError."""
    value = check_integer("seed", seed)
    if not 0 <= value < 2 ** 64:
        raise DomainError(f"seed must fit in 64 unsigned bits: {seed!r}")
    return value
