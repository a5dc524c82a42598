"""Flat key = value experiment config files with comma-separated lists.

CLI flags override file values, which override defaults.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .experiments import ExperimentSpec

# a key's value type is the annotation of the ExperimentSpec field it names
FIELD_TYPES = {f.name: f.type for f in fields(ExperimentSpec)}
SCALARS = {"str": str, "int": int, "float": float}


class ConfigError(ValueError):
    pass


def parse_config(path: str | Path) -> dict:
    """Parse a flat config file; '#' starts a comment. An unknown key or a
    value of the wrong type fails with its line number."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key not in FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = coerce(key, raw)
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: {e}") from None
    return values


def coerce(key: str, raw):
    """raw parsed as the type of the ExperimentSpec field named key; a value
    that is not a string passes through."""
    if not isinstance(raw, str):
        return raw
    kind = FIELD_TYPES.get(key, "str")
    try:
        if kind.startswith("Sequence["):
            item = SCALARS[kind[len("Sequence["):-1]]
            return [item(v.strip()) for v in raw.split(",") if v.strip()]
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        return SCALARS[kind](raw)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None


def merge(defaults: dict, file_values: dict, flag_values: dict) -> dict:
    """Precedence: flag > file > default. Flags set to None are unset."""
    merged = dict(defaults)
    merged.update(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    return merged
