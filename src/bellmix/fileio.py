"""File plumbing shared by every reader and writer, and the strict JSON field check.

Every file bellmix reads goes through read_text, so an unreadable or non-UTF-8
file, or text that is not JSON, ends in one one-line error: DataParse for data
files, ConfigParse for sweep specs and source configs. Every file it writes
goes through write_text, where a path of None means stdout, and a path that
cannot be written ends in InvalidConfig("cannot write <path>: <reason>").
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

from .errors import DataParse, InvalidConfig

_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "true or false",
          list: "a list", dict: "an object"}


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
    """Whether a JSON value is of kind; a number is an int or a float, never a bool."""
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def typed(value, kind, what: str, error=DataParse):
    """value, if it is a JSON value of kind; else error("<what> must be <kind>, got <value>")."""
    if not is_kind(value, kind):
        raise error(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def checked(data, what: str, kinds: dict) -> dict:
    """data, if it is a JSON object whose every key is in kinds with a value of that kind."""
    if not isinstance(data, dict):
        raise InvalidConfig(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(kinds)
    if unknown:
        raise InvalidConfig(f"unknown {what} fields: {sorted(unknown)}")
    for key, value in data.items():
        typed(value, kinds[key], f"{what} field {key!r}", InvalidConfig)
    return data
