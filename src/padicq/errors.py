"""Domain errors shared by all modules, and the parsing and field checks of
the JSON descriptors, which raise ConfigError."""

import json


class PadicqError(Exception):
    """Base class for every error raised by this package."""


class NotPIntegral(PadicqError, ArithmeticError):
    """A rational value has p in its denominator and cannot be reduced."""

    @classmethod
    def pole(cls, p: int, v: int) -> "NotPIntegral":
        """The error for a value of p-adic valuation v < 0."""
        return cls(f"value of {p}-adic valuation {v} has p={p} in its "
                   "denominator")


class NotUnit(PadicqError, ArithmeticError):
    """A scalar required to be a p-adic unit is divisible by p."""


class NotRootOfUnity(PadicqError, ArithmeticError):
    """A cyclotomic element expected to satisfy x**(p**m) == 1 does not."""


class PrecisionExhausted(PadicqError, ArithmeticError):
    """A computation cannot certify even one p-adic digit of its result."""


class BaseMismatch(PadicqError, ValueError):
    """Torsion points from incompatible Kummer bases were combined."""


class IncompatibleRoots(PadicqError, ValueError):
    """A root system fails the compatibility relation r[i+1]**p == r[i]."""


class UnsupportedShape(PadicqError, TypeError):
    """A function cannot be re-expressed in the supported function classes."""


class EulerFactorNotInvertible(PadicqError, ArithmeticError):
    """The Euler-type factor of a two-variable L-value is not a unit."""


class ConfigError(PadicqError, ValueError):
    """Invalid run configuration."""


# -- JSON descriptor fields -----------------------------------------------------

def json_object(obj, what: str) -> dict:
    """A descriptor given as a dict or as a JSON string; ConfigError naming
    ``what`` when the string does not parse or the value is not an object."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def json_field(obj: dict, key: str, kind: str):
    """obj[key] of a descriptor of the given kind; ConfigError naming both
    when the field is missing."""
    if key not in obj:
        raise ConfigError(f"{kind!r} descriptor needs the field {key!r}")
    return obj[key]


def json_int(value, what: str) -> int:
    """An integer given in JSON as a number or a decimal string.

    Floats and booleans are refused, never truncated: 2.7 is not 2 and true
    is not 1.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {json.dumps(value)}")


def json_int_field(obj: dict, key: str, kind: str) -> int:
    """obj[key] as an integer."""
    return json_int(json_field(obj, key, kind), f"{kind} field {key!r}")


def check_a_range(a: int, p: int, N: int, what: str) -> int:
    """a, when 0 < a < p^N; else ConfigError.  For (p - 1) | k the moments
    depend on a beyond p^N, so a may not stand in for its residue."""
    if not 0 < a < p ** N:
        raise ConfigError(f"{what} must lie in 0 < a < {p}^{N} = {p ** N}, "
                          f"got {a}")
    return a


def json_list(obj: dict, key: str, kind: str) -> list:
    """obj[key], which must be a list."""
    items = json_field(obj, key, kind)
    if not isinstance(items, list):
        raise ConfigError(f"{kind} field {key!r} must be a list, "
                          f"got {json.dumps(items)}")
    return items


def json_int_list(obj: dict, key: str, kind: str) -> list[int]:
    """obj[key] as a list of integers."""
    return [json_int(v, f"each entry of {kind} field {key!r}")
            for v in json_list(obj, key, kind)]
