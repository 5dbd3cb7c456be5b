"""Exception hierarchy. Validation errors exit the CLI with code 1, numerical with 2."""
import dataclasses
import json
import math
import numbers
from pathlib import Path


class FrameFuseError(Exception):
    pass


class ValidationError(FrameFuseError):
    pass


class NumericalError(FrameFuseError):
    pass


class BadConfig(ValidationError):
    """A config, CLI argument, file or dataset from outside the program was rejected."""


class ShapeMismatch(ValidationError):
    """Code passed an autodiff op or a forward an operand it cannot take."""


def check_fields(cfg, positive: tuple[str, ...] = ()) -> None:
    """Raise BadConfig if an `int`, `int | None` or `float` field of dataclass `cfg`
    holds a bool or non-number (ints may fill floats), a `float` one is NaN or
    infinite, or a `positive` one is < 1."""
    kinds = {"int": numbers.Integral, "int | None": (numbers.Integral, type(None)),
             "float": numbers.Real}
    for f in dataclasses.fields(cfg):
        value, kind = getattr(cfg, f.name), kinds.get(f.type)
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            raise BadConfig(f"{f.name} must be {f.type}, got {value!r}")
        if f.type == "float" and not -math.inf < value < math.inf:
            raise BadConfig(f"{f.name} must be finite, got {value!r}")
        if f.name in positive and value < 1:
            raise BadConfig(f"{f.name} must be at least 1, got {value}")


def check_json(value, kind: type, what: str):
    """Return `value` if it is a JSON object (kind=dict) or list (kind=list), else
    raise BadConfig naming `what`."""
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "list"
        raise BadConfig(f"{what} must be a JSON {shape}, got {value!r}")
    return value


def check_keys(value, cls: type, what: str) -> dict:
    """Return `value` if it is a JSON object whose keys are all fields of
    dataclass `cls`, else raise BadConfig naming `what`."""
    unknown = sorted(set(check_json(value, dict, what)) - set(cls.__dataclass_fields__))
    if unknown:
        raise BadConfig(f"unknown {what} keys {unknown}")
    return value


def read_text(path, what: str) -> str:
    """The UTF-8 text of file `path`, line endings as stored; BadConfig naming
    `what` if the file cannot be read or is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise BadConfig(f"cannot read {what} {path}: {err}") from err


def read_json(path, what: str):
    """The JSON object in file `path`; BadConfig naming `what` if it cannot be
    read, is not UTF-8 JSON, or holds anything but an object."""
    try:
        value = json.loads(read_text(path, what))
    except json.JSONDecodeError as err:
        raise BadConfig(f"cannot read {what} {path}: {err}") from err
    return check_json(value, dict, f"{what} {path}")


def out_path(path, what: str) -> Path:
    """`path` as a Path; BadConfig naming `what` if no file can be created there
    because `path` is a directory or its parent is not one. Callers check this
    before the work whose result they write."""
    path = Path(path)
    if path.is_dir():
        raise BadConfig(f"cannot write {what} {path}: it is a directory")
    if not path.parent.is_dir():
        raise BadConfig(f"cannot write {what} {path}: {path.parent} is not a directory")
    return path
