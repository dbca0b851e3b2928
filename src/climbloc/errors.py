"""Exception hierarchy shared across the package, and the JSON type rule of its documents."""

import sys
from contextlib import contextmanager


class ClimblocError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ClimblocError):
    """Invalid configuration value or malformed config document."""


class MissingInputError(ClimblocError):
    """A required input file or prerequisite model is absent."""


class NumericalFailureError(ClimblocError):
    """A filter or training run lost numerical validity (non-PSD covariance, NaN loss)."""


_KINDS = {dict: "an object", list: "a list", bool: "true or false", int: "an integer"}


def check_json(default, value, dotted: str, complete: bool) -> None:
    """Raise a ConfigError naming `dotted` unless `value` follows the type rule
    for `default`; with `complete`, every key of each default object is required."""
    kind = _KINDS.get(type(default))
    if kind:
        ok = type(value) is type(default)  # JSON values: a bool is not an int
    else:  # a float; NaN, inf and 10**400 fail the bound
        kind = "a finite number"
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if not ok:
        raise ConfigError(f"{dotted}: must be {kind}, got {value!r}")
    if isinstance(value, dict):
        for key in [*value, *(key for key in default if complete and key not in value)]:
            path = f"{dotted}.{key}" if dotted else key
            if key not in default:
                raise ConfigError(f"{path}: unknown configuration key")
            if key not in value:
                raise ConfigError(f"{path}: missing key")
            check_json(default[key], value[key], path, complete)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            check_json(default[0], item, f"{dotted}[{i}]", complete)


@contextmanager
def model_document(doc: dict, schema: dict, **parts: dict):
    """Check the model document `doc` by the type and size rules (an integer is at least 1) on the keys of
    `schema` and of each `parts` schema in the object it names; inside, a key `doc` lacks or a value its
    reader cannot use is a ConfigError naming it. Checking each weight too would cost ms per amfa run."""
    try:
        for dotted, node, part in [("", doc, schema), *((key, doc[key], part) for key, part in parts.items())]:
            scalars = {key: node[key] for key in part} if isinstance(node, dict) else node
            check_json(part, scalars, dotted, complete=True)
            for key, default in part.items():
                if type(default) is int and scalars[key] < 1:
                    raise ConfigError(f"{dotted}{'.' * bool(dotted)}{key}: must be at least 1, got {scalars[key]!r}")
        yield
    except KeyError as err:
        raise ConfigError(f"missing key {err.args[0]!r}") from None
    except TypeError as err:
        raise ConfigError(f"a value has the wrong type ({err})") from None
