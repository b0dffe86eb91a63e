"""Deterministic CSV/JSON readers and writers for the command-line tools.

CSV files carry `#key=value` metadata lines, then one column-name row, then
data rows. Floats are written as %.17g so values round-trip exactly and
reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def write_csv(path, metadata: dict, columns: dict) -> None:
    """Write named float columns of equal length with a metadata header."""
    cols = {key: np.asarray(val, dtype=float) for key, val in columns.items()}
    lengths = {v.shape[0] for v in cols.values()}
    if len(lengths) != 1:
        raise ConfigError("all columns must have the same length")
    n = lengths.pop()
    lines = []
    for key, value in metadata.items():
        if isinstance(value, float):
            value = format_float(value)
        lines.append(f"#{key}={value}")
    lines.append(",".join(cols.keys()))
    arrays = list(cols.values())
    for i in range(n):
        lines.append(",".join(format_float(col[i]) for col in arrays))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path):
    """Read a metadata CSV back into (metadata dict, dict of column arrays)."""
    metadata = {}
    header = None
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise ConfigError(f"{path}: malformed metadata line {line!r}")
            metadata[key] = _parse_scalar(value)
            continue
        parts = line.split(",")
        if header is None:
            header = parts
            continue
        if len(parts) != len(header):
            raise ConfigError(f"{path}: row width does not match header")
        rows.append([float(p) for p in parts])
    if header is None:
        raise ConfigError(f"{path}: no column header found")
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return metadata, {name: data[:, i] for i, name in enumerate(header)}


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def write_json(path, obj) -> None:
    """Write a JSON report with sorted keys; NaN and infinities are refused."""
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")

