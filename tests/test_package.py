"""Package-level contracts: the public names resolve, numpy is the only
runtime dependency, and importing the package fixes glibc's mmap threshold."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zombiescan

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zombiescan"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

# members the types do not offer: the pipeline reads the arrays (`in_degrees`,
# `out_degrees`, the CSR slices, `assignment`, `thresholds`, `total_weight`,
# `region_codes`), profiles have one fixed layout (`ProfileTable`), a whole
# input is read by `textio.read_bytes`, and a config is written by
# `dataclasses.asdict`
DELETED = {"in_neighbors", "in_degree", "degrees", "out_neighbors", "out_degree", "has_arc",
           "m", "members", "sizes", "per_community_threshold", "transition_weights",
           "uid", "name", "gender", "verification", "tweets", "tweets_missing", "regions",
           "ProfileSchema", "write_profiles", "IOScores", "node_ids", "zombie_nodes",
           "UserProfile", "read_text", "read_input", "decode", "to_json_dict"}


@pytest.mark.parametrize("name", ["zombiescan"] + [f"zombiescan.{m}" for m in MODULES])
def test_all_resolves_and_lists_no_deleted_name(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert len(public) == len(set(public))
    assert not [n for n in public if not hasattr(module, n)]
    assert not DELETED & set(public)


@pytest.mark.parametrize("owner", [zombiescan.DirectedGraph, zombiescan.UndirectedGraph,
                                   zombiescan.Partition, zombiescan.ZombieReport,
                                   zombiescan.ProfileTable, zombiescan.GroundTruth,
                                   zombiescan.SynthConfig, zombiescan.textio])
def test_deleted_members_are_gone(owner):
    # the truth file's region column stays on GroundTruth, the region weights on SynthConfig
    keeps_regions = owner in (zombiescan.GroundTruth, zombiescan.SynthConfig)
    deleted = DELETED - {"regions"} if keeps_regions else DELETED
    assert not [n for n in deleted if hasattr(owner, n)]
    assert not [n for n in deleted if n in getattr(owner, "__dataclass_fields__", {})]


def test_parse_profiles_takes_only_its_source():
    assert list(inspect.signature(zombiescan.parse_profiles).parameters) == ["source"]


def absolute_imports(path: Path) -> set[str]:
    """Top-level package of every absolute import in a source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("stem", ["__init__"] + MODULES)
def test_imports_only_stdlib_and_numpy(stem):
    imported = absolute_imports(PACKAGE / f"{stem}.py")
    assert imported - set(sys.stdlib_module_names) - {"numpy"} == set()


def test_only_textio_imports_csv():
    # every stage table goes out through textio.write_csv and in through split_csv
    assert [stem for stem in MODULES if "csv" in absolute_imports(PACKAGE / f"{stem}.py")] == \
        ["textio"]


def test_only_textio_tells_the_kinds_of_source_apart():
    # textio.text_stream opens a path, a text stream or a binary stream; every
    # other module reads the text stream it yields
    def dispatches(stem):
        path = PACKAGE / f"{stem}.py"
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        return "io" in absolute_imports(path) or "nullcontext" in names

    assert [stem for stem in MODULES if dispatches(stem)] == ["textio"]


def test_only_graph_states_the_arc_rule():
    # graph._check_arcs names the first bad arc for the builders and the writer
    for phrase in ("has an endpoint outside", "has relationship flag"):
        counts = {stem: (PACKAGE / f"{stem}.py").read_text(encoding="utf-8").count(phrase)
                  for stem in MODULES}
        assert {stem: n for stem, n in counts.items() if n} == {"graph": 1}


def test_only_graph_states_the_row_rule():
    # graph._row_fault checks a CSR's rows for the cache loader and for Louvain
    for phrase in ("duplicate arcs or an unsorted row", "corrupt adjacency: self-loop"):
        counts = {stem: (PACKAGE / f"{stem}.py").read_text(encoding="utf-8").count(phrase)
                  for stem in MODULES}
        assert {stem: n for stem, n in counts.items() if n} == {"graph": 1}


def test_only_textio_states_the_node_rule():
    # textio.check_nodes decides, for the readers, the writer and detection,
    # whether node ids list 0..n-1 once each
    for phrase in ("listed twice in the", "is outside 0.."):
        counts = {stem: (PACKAGE / f"{stem}.py").read_text(encoding="utf-8").count(phrase)
                  for stem in MODULES}
        assert {stem: n for stem, n in counts.items() if n} == {"textio": 1}


def test_pyproject_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
             for dep in pyproject["project"]["dependencies"]]
    assert names == ["numpy"]


# run in a fresh interpreter: glibc serves a 2 MiB request from any free heap
# chunk large enough, so a hole that an earlier test left would decide it
_HEAP_CHECK = """
import ctypes
import numpy as np
import zombiescan

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks",
                                                     "hblkhd", "usmblks", "fsmblks",
                                                     "uordblks", "fordblks", "keepcost")]

mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
if mallinfo2 is None:
    raise SystemExit(77)
mallinfo2.restype = MallInfo2
big = np.ones(2 << 20)
del big
mapped = mallinfo2().hblkhd
mid = np.ones(1 << 18)
assert mallinfo2().hblkhd - mapped >= mid.nbytes
"""


def test_freed_block_does_not_move_later_arrays_to_the_heap():
    """After a 16 MiB array is freed, a 2 MiB one still gets its own mapping,
    so freeing it returns its pages (glibc only)."""
    if not sys.platform.startswith("linux"):
        pytest.skip("glibc only")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _HEAP_CHECK], env=env, timeout=120,
                          capture_output=True, text=True)
    if proc.returncode == 77:
        pytest.skip("no mallinfo2 (glibc < 2.33 or another libc)")
    assert proc.returncode == 0, proc.stderr


_NO_MASKED_ARRAYS = """
import sys
from zombiescan.cli import main
assert main(["pipeline", sys.argv[1], "-o", sys.argv[2]]) == 0
assert "numpy.ma" not in sys.modules, "the pipeline imported numpy.ma"
"""


def test_pipeline_does_not_import_masked_arrays(tmp_path):
    """numpy imports numpy.ma lazily, on a first np.unique without return
    flags among others; the pipeline, run in a fresh interpreter, never
    does, so the module's memory is not part of a run's peak."""
    from conftest import DATA

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS, f"{DATA}/zombie_5x500",
                           str(tmp_path / "run")], env=env, timeout=300, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
