"""CSV/JSON writers: exact bytes, header-only files, the version stamp."""

import json
from pathlib import Path

import numpy as np
import pytest

import oscprobe
from oscprobe import ConfigError
from oscprobe.datafiles import (format_float, read_csv, write_csv, write_grid_csv,
                                write_json)


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


def test_write_grid_csv_matches_write_csv_on_the_meshgrid(tmp_path):
    qs = np.array([-0.0, 5e-324, 0.1, 1e300, float("inf")])
    ps = np.array([-2.5, 0.0, float("nan")])
    values = np.arange(15.0).reshape(3, 5) / 7.0
    values[1, 2] = -0.0
    values[2, 4] = float("nan")
    meta = {"t": 0.3, "init": "thermal", "step": 1}
    write_grid_csv(tmp_path / "grid.csv", meta, qs, ps, values)
    qq, pp = np.meshgrid(qs, ps)
    write_csv(tmp_path / "cols.csv", meta,
              {"q": qq.ravel(), "p": pp.ravel(), "w": values.ravel()})
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "cols.csv").read_bytes()


def test_write_grid_csv_rejects_a_grid_that_does_not_fit_the_axes(tmp_path):
    with pytest.raises(ConfigError, match="grid shape"):
        write_grid_csv(tmp_path / "bad.csv", {}, np.zeros(3), np.zeros(2),
                       np.zeros((3, 2)))


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


@pytest.mark.parametrize("text, message", [
    ("#M=1.0\nt,fgen,fgen\n0,1.0,1.0\n1,0.9,0.8\n", "column 'fgen' appears twice"),
    ("#M=1.0\n#M=2.0\nt,fgen\n0,1.0\n1,0.9\n", "metadata key 'M' appears twice"),
], ids=("column", "metadata-key"))
def test_read_csv_refuses_a_name_given_twice(tmp_path, text, message):
    # either copy could be the one meant, so neither is kept
    (tmp_path / "twice.csv").write_text(text)
    with pytest.raises(ConfigError, match=message):
        read_csv(tmp_path / "twice.csv")


def test_read_csv_reads_a_header_alone_and_refuses_grouped_digits(tmp_path):
    write_csv(tmp_path / "e.csv", {"M": 1.0}, {"t": [], "fgen": []})
    meta, cols = read_csv(tmp_path / "e.csv")
    assert meta["M"] == 1.0
    assert {name: col.shape for name, col in cols.items()} == {"t": (0,), "fgen": (0,)}
    # float() reads 1_0 as 10, np.loadtxt does not; no writer emits it
    (tmp_path / "grouped.csv").write_text("t,fgen\n1_0,1.0\n")
    with pytest.raises(ConfigError, match="non-numeric cell"):
        read_csv(tmp_path / "grouped.csv")
