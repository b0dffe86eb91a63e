"""The lazy package namespace, the CLI's one BLAS thread, the src line cap."""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscprobe
from oscprobe import estimate

SRC = Path(oscprobe.__file__).parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs oscprobe one of three ways, once per (how, target, thread variables)
# run in argv[1], setting those variables alone and restoring the environment
# after each run. Prints, as its last line, one result per run: the thread
# variables at its end, OPENBLAS_NUM_THREADS as it stood when numpy was first
# imported in the child, whether numpy was loaded once the entry module was
# imported, and the name the package's lazy `fock` attribute resolves to.
_PROBE = """
import importlib, json, os, runpy, sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
seen = {}

class NumpySpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy":
            seen.setdefault("openblas", os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, NumpySpy)
start_env, results = dict(os.environ), []
for how, target, thread_env in json.loads(sys.argv[1]):
    os.environ.update(thread_env)
    env_before = dict(os.environ)
    sys.argv = ["oscprobe", "--help"]
    numpy_after_entry_import = fock = None
    try:
        if how == "main":
            runpy.run_module(target, run_name="__main__")
        elif how == "script":
            module, _, attr = target.partition(":")
            entry = getattr(importlib.import_module(module), attr)
            numpy_after_entry_import = "numpy" in sys.modules
            entry()
        else:
            importlib.import_module(target)
            numpy_after_entry_import = "numpy" in sys.modules
            fock = sys.modules["oscprobe"].fock.__name__
    except SystemExit:
        pass
    results.append({
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "env_unchanged": dict(os.environ) == env_before,
        "openblas_at_numpy_import": seen.get("openblas", "numpy never imported"),
        "numpy_after_entry_import": numpy_after_entry_import,
        "fock": fock,
    })
    os.environ.clear()
    os.environ.update(start_env)
print(json.dumps(results))
"""


def _probe(*runs):
    """Results of the (how, target, thread variables) runs, in one fresh child."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _script_target():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["oscprobe"]


def _entry(how):
    # the script's target is read from pyproject.toml, as an installer would
    return "oscprobe.cli" if how == "main" else _script_target()


@functools.cache
def _user_set_runs(how):
    """Each thread variable's run of an entry point, set alone to 2, in one child."""
    return dict(zip(THREAD_VARS, _probe(*[(how, _entry(how), {var: "2"})
                                          for var in THREAD_VARS])))


@functools.cache
def _library_imports():
    """import oscprobe, then import oscprobe.cli, in one child."""
    targets = ("oscprobe", "oscprobe.cli")
    return dict(zip(targets, _probe(*[("import", target, {}) for target in targets])))


def test_import_oscprobe_loads_no_numpy():
    # a submodule named on the package still loads on first access
    out = _library_imports()["oscprobe"]
    assert out["numpy_after_entry_import"] is False
    assert out["fock"] == "oscprobe.fock"


# src size ceiling in physical lines; ROADMAP.md keeps the same figure
SRC_LINE_CAP = 2474


def test_src_stays_within_its_line_cap():
    files = sorted((SRC / "oscprobe").glob("*.py"))
    assert files
    total = sum(len(path.read_text().splitlines()) for path in files)
    assert total <= SRC_LINE_CAP, f"src is {total} lines, above {SRC_LINE_CAP}"


def _unused_imports(path: Path) -> list:
    """Names that path imports (outside __future__) and never uses."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [(alias.asname or alias.name).partition(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return [name for name in bound if name not in read]


def test_src_imports_nothing_it_does_not_use():
    # a name is used where it is read, an attribute's base and annotations included
    files = sorted((SRC / "oscprobe").glob("*.py"))
    assert {path.name: _unused_imports(path) for path in files} == {
        path.name: [] for path in files}


@pytest.mark.parametrize("name", oscprobe.__all__)
def test_every_export_resolves_from_its_owner(name):
    value = getattr(oscprobe, name)
    assert value.__module__ == oscprobe._OWNER[name]
    assert value.__name__ == name
    assert getattr(sys.modules[value.__module__], name) is value
    # looked up on access, never copied into the package namespace
    assert name not in vars(oscprobe)


def _loaded_names(tree: ast.AST) -> set:
    """Names tree reads: each loaded name and each attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_export_has_a_caller():
    # read by src itself, imported by the acceptance gate, or traced by perfbench
    trees = [ast.parse(path.read_text())
             for path in sorted((SRC / "oscprobe").glob("*.py"))
             if path.name != "__init__.py"]
    read = set().union(*map(_loaded_names, trees))
    gate = ast.parse((SRC.parent / "tests" / "test_acceptance.py").read_text())
    imported = {alias.name for node in ast.walk(gate)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    tracing = ast.parse((SRC.parent / "perfbench" / "tracing.py").read_text())
    targets = next(node.value for node in ast.walk(tracing)
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["_TARGETS"])
    traced = {ast.literal_eval(entry)[1] for entry in targets.elts}
    assert sorted(set(oscprobe.__all__) - read - imported - traced) == []


def test_dir_covers_all_and_unknown_names_raise():
    assert set(oscprobe.__all__) <= set(dir(oscprobe))
    assert "__version__" in dir(oscprobe)
    with pytest.raises(AttributeError, match="no_such_name"):
        oscprobe.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from oscprobe import no_such_name", {})


def test_a_name_swapped_in_its_submodule_shows_through(monkeypatch):
    original = estimate.fit_parameters

    def stand_in(*args, **kwargs):
        return None

    monkeypatch.setattr(estimate, "fit_parameters", stand_in)
    assert oscprobe.fit_parameters is stand_in
    monkeypatch.undo()
    assert oscprobe.fit_parameters is original


@pytest.mark.parametrize("how", ["main", "script"])
def test_program_defaults_to_one_blas_thread(how):
    # a fresh child each: the variable counts only at numpy's first import
    (out,) = _probe((how, _entry(how), {}))
    assert out["thread_env"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert out["openblas_at_numpy_import"] == "1"
    if how == "script":
        assert out["numpy_after_entry_import"] is False


@pytest.mark.parametrize("how", ["main", "script"])
@pytest.mark.parametrize("var", THREAD_VARS)
def test_a_thread_variable_the_user_set_wins(how, var):
    out = _user_set_runs(how)[var]
    assert out["thread_env"] == {var: "2"}
    assert out["env_unchanged"] is True


@pytest.mark.parametrize("target", ["oscprobe", "oscprobe.cli"])
def test_importing_as_a_library_changes_no_thread_setting(target):
    out = _library_imports()[target]
    assert out["env_unchanged"] is True
    assert out["thread_env"] == {}
