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


def _header_lines(metadata: dict, names) -> list:
    lines = [f"#oscprobe_version={__version__}"]
    for key, value in metadata.items():
        if isinstance(value, float):
            value = format_float(value)
        lines.append(f"#{key}={value}")
    lines.append(",".join(names))
    return lines


def _write_text(path, text: str) -> None:
    """Write text to path; an OSError becomes a ConfigError naming the path."""
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err


def write_csv(path, metadata: dict, columns: dict) -> None:
    """Write named float columns of equal length with a metadata header."""
    cols = {key: np.asarray(val, dtype=float) for key, val in columns.items()}
    lengths = {v.shape[0] for v in cols.values()}
    if len(lengths) != 1:
        raise ConfigError("all columns must have the same length")
    lines = _header_lines(metadata, cols.keys())
    # one %.17g template per row, applied to Python floats: the same text as
    # format_float of each value
    row = ",".join(["%.17g"] * len(cols))
    lines.extend(map(row.__mod__, zip(*(col.tolist() for col in cols.values()))))
    _write_text(path, "\n".join(lines) + "\n")


def write_grid_csv(path, metadata: dict, qs, ps, values) -> None:
    """Write values[j, i] at (qs[i], ps[j]) as q,p,w rows, q varying fastest.

    The bytes are those of write_csv on the flattened meshgrid columns; each
    axis value is formatted once rather than once per row.
    """
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (ps.size, qs.size):
        raise ConfigError(
            f"grid shape {values.shape} does not match the axes "
            f"({ps.size}, {qs.size})")
    lines = _header_lines(metadata, ("q", "p", "w"))
    q_text = ["%.17g," % q for q in qs.tolist()]
    for p, row in zip(ps.tolist(), values.tolist()):
        # a formatted float holds no "%", so it can sit inside the template
        lines.extend(map(("%s" + format_float(p) + ",%.17g").__mod__,
                         zip(q_text, row)))
    _write_text(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Read a metadata CSV into (metadata, columns), the rows by one np.loadtxt;
    a repeated key or column name, no header, a cell loadtxt refuses (1_0 too)
    or a row unlike the header in width is a ConfigError naming the file (and line)."""
    metadata, header, rows = {}, None, []
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    for line in filter(None, map(str.strip, lines)):  # blank lines skipped
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise ConfigError(f"{path}: malformed metadata line {line!r}")
            if key in metadata:
                raise ConfigError(f"{path}: metadata key {key!r} appears twice")
            metadata[key] = _parse_scalar(value)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line)
    if header is None:
        raise ConfigError(f"{path}: no column header found")
    if len(set(header)) < len(header):
        twice = next(name for i, name in enumerate(header) if name in header[:i])
        raise ConfigError(f"{path}: column {twice!r} appears twice")
    try:
        data = (np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows
                else np.empty((0, len(header))))
    except ValueError:  # numpy counts rows, not file lines: name the line
        body = [(number, row) for number, row in enumerate(map(str.strip, lines), 1)
                if row and not row.startswith("#")][1:]  # the header goes first
        number, row = next(pair for pair in body if not _is_row(pair[1], len(header)))
        raise ConfigError(f"{path}: non-numeric cell or ragged row at line "
                          f"{number}: {row!r}") from None
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: row width does not match header")
    return metadata, {name: data[:, i] for i, name in enumerate(header)}


def _is_row(text: str, width: int) -> bool:
    """Whether loadtxt reads text alone to `width` floats."""
    try:
        return np.loadtxt([text], delimiter=",", comments=None).size == width
    except ValueError:
        return False


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
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                 allow_nan=False) + "\n")

