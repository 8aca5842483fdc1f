"""File plumbing shared by every reader and writer, and the config field checks.

Every file bellmix reads goes through read_text, so an unreadable or non-UTF-8
file, or text that is not JSON, ends in one one-line error: DataParse for data
files, InvalidConfig for sweep specs and source configs. Every file it writes
goes through write_text, where a path of None means stdout, and a path that
cannot be written ends in InvalidConfig("cannot write <path>: <reason>").
from_json, the one config JSON reader, checks keys; a config's constructor its values.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
from contextlib import contextmanager
from dataclasses import is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .errors import DataParse, InvalidConfig, OutOfRange

# The builtin types first, so a JSON value skips the slower abstract check.
_WIDE = {int: (int, numbers.Integral), float: (float, int, numbers.Real)}
_KINDS = {float: "a finite number", int: "an integer", str: "a string", bool: "true or false",
          list: "a list", dict: "an object", tuple: "a tuple"}
_field_kinds = cache(get_type_hints)  # a config class's field kinds: its resolved annotations


def read_text(path, what: str, error=DataParse) -> str:
    """The file's UTF-8 text; error("cannot read <what> <path>: ...") if there is none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(path, what: str, error=DataParse):
    """The JSON value in the file, with read_text's errors and one for text that is not JSON."""
    text = read_text(path, what, error)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def write_text(path, text: str) -> None:
    """text to path with '\\n' line ends, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path, data) -> None:
    """data as JSON indented by 2, plus a final newline."""
    write_text(path, json.dumps(data, indent=2) + "\n")


@contextmanager
def writing(path):
    """Turn an OSError in the block into InvalidConfig("cannot write <path>: <reason>")."""
    try:
        yield
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextmanager
def parsing(what: str, error=DataParse):
    """Turn a missing or mistyped field read in the block into error("malformed <what>: ...")."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"malformed {what}: {exc}") from exc


def is_kind(value, kind) -> bool:
    """Whether value is of kind: int any integer, float any real; no bool.

    A real value must also be finite: not NaN, inf or an int above 1.8e308.
    """
    wide = _WIDE.get(kind, kind)
    if not isinstance(value, wide) or (wide is not bool and isinstance(value, bool)):
        return False
    if kind is float:
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return True


def typed(value, kind, what: str, error=DataParse):
    """value, if it is a JSON value of kind; else error("<what> must be <kind>, got <value>")."""
    if not is_kind(value, kind):
        raise error(f"{what} must be {_KINDS.get(kind, kind.__name__)}, got {value!r}")
    return value


def by_index(rows: list, what: str) -> list:
    """The values of (index, value) rows, in any order, by index, if those are 0..n-1, each once."""
    indices = sorted(index for index, _ in rows)
    if not rows or indices != list(range(len(rows))):
        raise DataParse(f"{what}: settings must be 0..n-1, each once, got {reprlib.repr(indices)}")
    return [value for _, value in sorted(rows, key=lambda row: row[0])]


def check_fields(config) -> None:
    """OutOfRange("<field> must be <kind>, got <value>") unless each field is its annotated kind."""
    for name, kind in _field_kinds(type(config)).items():
        value = getattr(config, name)
        if get_origin(kind) is tuple:  # tuple[kind, ...]: a tuple of values of that kind
            for entry in typed(value, tuple, name, OutOfRange):
                typed(entry, get_args(kind)[0], f"each of {name}", OutOfRange)
        elif kind is not int:  # an int field is checked by its class, with its range
            typed(value, kind, name, OutOfRange)


def from_json(cls, data, what: str):
    """cls from the JSON object data of its fields; a nested config's object is read alike.

    Every key must name a field, else InvalidConfig; an absent field keeps its default.
    """
    if not isinstance(data, dict):
        raise InvalidConfig(f"{what} must be a JSON object, got {type(data).__name__}")
    kinds = _field_kinds(cls)
    unknown = set(data) - set(kinds)
    if unknown:
        raise InvalidConfig(f"unknown {what} fields: {sorted(unknown)}")
    with parsing(what, InvalidConfig):  # a required field absent
        return cls(**{key: from_json(kinds[key], value, key) if is_dataclass(kinds[key])
                      else tuple(value) if isinstance(value, list) else value  # JSON has no tuple
                      for key, value in data.items()})
