"""CSV/JSON writers: exact bytes, header-only files, the version stamp."""

import json
from pathlib import Path

import numpy as np
import pytest

import oscprobe
from oscprobe import ConfigError
from oscprobe.datafiles import format_float, read_csv, write_csv, write_json


def test_write_csv_rows_match_per_value_formatting(tmp_path):
    special = [-0.0, 5e-324, 1e300, 0.1, float("nan"), float("inf")]
    cols = {"a": np.array(special), "b": np.array(special[::-1]),
            "c": np.arange(6.0) / 3.0}
    meta = {"g": 0.1, "init": "thermal", "seed": 3}
    write_csv(tmp_path / "x.csv", meta, cols)
    lines = [f"#oscprobe_version={oscprobe.__version__}", "#g=0.10000000000000001",
             "#init=thermal", "#seed=3", "a,b,c"]
    lines += [",".join(format_float(col[i]) for col in cols.values())
              for i in range(6)]
    assert (tmp_path / "x.csv").read_text() == "\n".join(lines) + "\n"
    assert lines[5] == "-0,inf,0"
    meta_back, cols_back = read_csv(tmp_path / "x.csv")
    assert meta_back["oscprobe_version"] == oscprobe.__version__
    np.testing.assert_array_equal(cols_back["a"], cols["a"])


def test_write_csv_zero_length_columns_write_only_the_header(tmp_path):
    write_csv(tmp_path / "e.csv", {}, {"t": np.array([]), "w": []})
    assert (tmp_path / "e.csv").read_text() == \
        f"#oscprobe_version={oscprobe.__version__}\nt,w\n"


def test_write_csv_rejects_columns_of_different_lengths(tmp_path):
    with pytest.raises(ConfigError):
        write_csv(tmp_path / "bad.csv", {}, {"t": np.zeros(3), "w": np.zeros(2)})
    assert not (tmp_path / "bad.csv").exists()


def test_write_json_stamps_the_version(tmp_path):
    write_json(tmp_path / "r.json", {"g": 0.5})
    report = json.loads((tmp_path / "r.json").read_text())
    assert report == {"g": 0.5, "oscprobe_version": oscprobe.__version__}


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(oscprobe.__file__).parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert oscprobe.__version__ == tomllib.load(fh)["project"]["version"]
