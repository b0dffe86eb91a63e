"""Deterministic CSV/JSON readers and writers for the command-line tools.

CSV files carry `#key=value` metadata lines, the first of them
`#oscprobe_version=...`, then one column-name row, then data rows; JSON
reports carry an "oscprobe_version" key. Floats are written as %.17g so
values round-trip exactly and reruns with identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def write_csv(path, metadata: dict, columns: dict) -> None:
    """Write named float columns of equal length with a metadata header."""
    cols = {key: np.asarray(val, dtype=float) for key, val in columns.items()}
    lengths = {v.shape[0] for v in cols.values()}
    if len(lengths) != 1:
        raise ConfigError("all columns must have the same length")
    lines = [f"#oscprobe_version={__version__}"]
    for key, value in metadata.items():
        if isinstance(value, float):
            value = format_float(value)
        lines.append(f"#{key}={value}")
    lines.append(",".join(cols.keys()))
    # one %.17g template per row, applied to Python floats: the same text as
    # format_float of each value
    row = ",".join(["%.17g"] * len(cols))
    lines.extend(map(row.__mod__, zip(*(col.tolist() for col in cols.values()))))
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
    """Write a JSON object with sorted keys and the package version.

    NaN and infinities are refused.
    """
    payload = {**obj, "oscprobe_version": __version__}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")

