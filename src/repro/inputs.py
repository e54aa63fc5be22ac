"""Refused input: the one error type every artefact reader raises.

A *refusal* is input the program will not process: malformed, out of
range, or written by another version.  Readers and validators raise
:class:`InputError` for it, and ``repro.cli.main`` alone turns it into one
stderr line, ``<command> error: <message>``, and exit status 2.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterator, Mapping, Tuple, TypeVar

T = TypeVar("T")


class InputError(ValueError):
    """Input the program refuses: malformed, out of range, or written by
    another version.  The message names the file where the reader knows it.
    """


def _no_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


#: strict JSON: ``NaN`` and ``Infinity``, which the canonical encoder never
#: writes, raise ``ValueError`` instead of reading as floats
decode_json = json.JSONDecoder(parse_constant=_no_constant).decode


def integer(value: object, what: str) -> int:
    """``value`` if it is a JSON integer; anything else, a bool, a float
    or a string included, raises :class:`InputError` naming ``what`` and
    the value."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def number(value: object, what: str) -> float:
    """``value`` as a float if it is a JSON number (an int or a float);
    anything else, a bool or a string included, raises
    :class:`InputError` naming ``what`` and the value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def array(value: object, what: str) -> list:
    """``value`` if it is a JSON or TOML array; anything else, a string
    included, raises :class:`InputError` naming ``what`` and the value."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be an array, got {value!r}")
    return value


def table(value: object, what: str) -> dict:
    """``value`` if it is a JSON object or TOML table; anything else, an
    array of pairs included, raises :class:`InputError` naming ``what``
    and the value."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a table, got {value!r}")
    return value


def load_table(path: os.PathLike, build: Callable[[Mapping], T]) -> T:
    """``build`` applied to the table in a TOML (or ``.json``) file; one
    that does not parse, or that ``build`` rejects with a ``ValueError``,
    ``TypeError``, ``KeyError`` or ``OverflowError``, raises
    :class:`InputError` naming the file."""
    raw = Path(path).read_bytes()
    try:
        if str(path).endswith(".json"):
            data = decode_json(raw.decode("utf-8"))
        else:
            import tomllib

            data = tomllib.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise InputError(f"a JSON {type(data).__name__}, not a table")
        return build(data)
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from None


def read_json_object(path: os.PathLike, schema: int) -> dict:
    """The JSON object in ``path``, whose ``schema`` field is ``schema``;
    any other file raises :class:`InputError`."""
    try:
        data = decode_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} holds a JSON {type(data).__name__}, "
                         "not an object")
    if data.get("schema") != schema:
        raise InputError(f"{path} has schema {data.get('schema')!r}; this "
                         f"version of repro reads schema {schema} only")
    return data


def iter_json_objects(path: os.PathLike) -> Iterator[Tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSON Lines
    file; a line that is not a JSON object raises :class:`InputError`
    naming ``path:line``."""
    with Path(path).open("rb") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                value = decode_json(line.decode("utf-8"))
            except ValueError as exc:
                raise InputError(f"{path}:{number}: {exc}") from None
            if not isinstance(value, dict):
                raise InputError(f"{path}:{number}: a JSON "
                                 f"{type(value).__name__}, not an object")
            yield number, value
