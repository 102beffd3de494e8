"""The one reader of the config and metrics report JSON documents.

Each document's field types are stated once, in its dataclass; errors take the
caller's class: ConfigurationError for the config, IngestionError for a report.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ConfigurationError

# JSON types a scalar field takes, and their name in errors; a bool is no number
_SCALARS = {
    str: (str, "a string"),
    Path: ((str, Path), "a path"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
}


def _finite(text: str) -> float:
    """A JSON number literal as a float; NaN, Infinity and a literal beyond float range are none."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def read_json(path, what: str, error: type[Exception]):
    """The JSON value in file `path` (RFC 8259: UTF-8 text, finite numbers only), else `error`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, a rejected number, deep nesting
        raise error(f"{path}: invalid JSON: {exc}") from exc


def build(cls, value, what: str, error: type[Exception]):
    """A JSON value as type hint `cls`: a scalar, `X | None`, or a dataclass, else `error`.

    A dataclass takes an object keyed by field name; number-only ones also
    take a list in field order. The dataclasses check the values themselves;
    a ConfigurationError from those checks is re-raised as `error`.
    """
    args = get_args(cls)
    if type(None) in args:
        return None if value is None else build(next(a for a in args if a is not type(None)), value, what, error)
    if cls in _SCALARS:
        types, expected = _SCALARS[cls]
        if not isinstance(value, types) or isinstance(value, bool):
            raise error(f"{what} must be {expected}, got {value!r}")
        try:
            if isinstance(value, str):
                os.fsencode(value)  # the file system's rule for names holds for all text read
            return cls(value)
        except UnicodeEncodeError as exc:
            raise error(f"{what} must be text the file system can encode, got {value!r}") from exc
        except OverflowError as exc:
            raise error(f"{what} must be finite, got an integer too large for a float") from exc
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    listable = all(hints[name] in (int, float) for name in names)
    if listable and isinstance(value, (list, tuple)) and len(value) == len(names):
        value = dict(zip(names, value))
    if not isinstance(value, dict):
        form = f"[{', '.join(names)}] or an object" if listable else "an object"
        raise error(f"{what} must be {form}, got {value!r}")
    unknown = set(value) - set(names)
    if unknown:
        raise error(f"unknown {what} fields: {sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        if f.name in value:
            label = f.name if what == "config" else f"{what} {f.name}"
            kwargs[f.name] = build(hints[f.name], value[f.name], label, error)
        elif f.default is MISSING:
            raise error(f"{what} is missing required field {f.name!r}")
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        if error is ConfigurationError:
            raise
        raise error(f"{what}: {exc}") from exc
