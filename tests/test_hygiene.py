"""Source hygiene.

* No module of the package or the tests imports a name it never uses.
  A name counts as used when it is read anywhere in the module, listed
  in its ``__all__``, or named in a string annotation.
* Every name in a ``chlab`` module's ``__all__`` is bound in that module,
  and is named by another module of the package, cited in README, or
  named by ``pyproject.toml``'s console script: the public surface is what
  the program itself composes.  README cites a name in inline code
  outside fenced blocks, bare or dotted (`` `summarize` ``,
  `` `runner.summarize` ``); a word of its prose cites nothing.  A name
  only the tests or the benchmark use stays a module attribute, out of
  ``__all__``.
* Every function, class and name a ``chlab`` module defines at top level
  (dunders aside) is read somewhere in the package, its own module
  included: a route that another replaces leaves no helper behind.
* Only ``field.py``, ``solver.py`` and ``profiles.py`` reach an FFT
  module: every other module transforms through their operators, so the
  package has one spectral pipeline.  The one exception is
  ``acceptance.py``'s single irfft that draws its random fields, which
  stay independent of the operators they check.
* Only ``InitialData`` and ``FromPotential`` define ``build``: every other
  datum states its closed form once, as ``sample(x)``, and inherits the
  base's ``build``, so each formula has one build path.
* The CLI path loads no scipy module: scipy is a test-only dependency.
  Nor does it load OpenSSL's hashlib backend (``_hashlib``), which maps
  3.4 MB into every process: configs hash with CPython's own SHA-256.
  Nor, certifying a weight, ``numpy.random``, whose import pulls
  ``secrets`` and with it ``_hashlib``: the sample set is drawn without it.
* Importing the CLI loads neither ``multiprocessing`` nor ``csv``: only a
  sweep uses them, and it imports them itself.
* The CLI's module docstring and README's quick start name exactly the
  commands its parser dispatches.
* README's ``summary.json`` row names exactly the keys a written summary
  has, and its ``weight_certificates.json`` and ``classification.json``
  rows the keys of the records the CLI writes.

The first four are checked from the syntax tree alone, so a module that
fails to import still gets its hygiene checked.  The fifth imports
``chlab.initial_data``; the next two run a fresh interpreter.
"""

import argparse
import ast
import functools
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chlab"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _ids(paths):
    return [str(p.relative_to(ROOT)) for p in paths]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> list:
    """The string entries of a module-level ``__all__``, if any."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import outside ``__future__``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set:
    used = set(_exported(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if (isinstance(annotation, ast.Constant)
                    and isinstance(annotation.value, str)):
                used.update(n.id for n in ast.walk(ast.parse(annotation.value))
                            if isinstance(n, ast.Name))
    return used


def test_sources_are_found():
    assert PACKAGE / "__init__.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=_ids(SOURCES))
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in sorted(_imported(tree).items())
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


MODULES = sorted(PACKAGE.glob("*.py"))


def _defined(tree: ast.Module) -> set:
    """The names a module's top-level def, class and assignment statements
    bind."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets
                           if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            defined.add(node.target.id)
    return defined


@pytest.mark.parametrize("path", MODULES, ids=_ids(MODULES))
def test_all_names_exist(path):
    tree = _tree(path)
    bound = set(_imported(tree)) | _defined(tree)
    missing = [name for name in _exported(tree) if name not in bound]
    assert not missing, f"{path.name} __all__ lists unbound names: {missing}"


@functools.lru_cache(maxsize=None)
def _loaded(path: Path) -> frozenset:
    """Every name a module reads, as a variable or as an attribute."""
    return frozenset(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", MODULES, ids=_ids(MODULES))
def test_no_orphan_definitions(path):
    loaded = set().union(*map(_loaded, MODULES))
    orphans = sorted(name for name in _defined(_tree(path))
                     if name not in loaded
                     and not (name.startswith("__") and name.endswith("__")))
    assert not orphans, (f"{path.name} defines names the package never "
                         f"reads: {orphans}")


@functools.lru_cache(maxsize=None)
def _named(path: Path) -> frozenset:
    """Every name a module reads, imports, takes as an attribute, or
    spells as a (dotted) string."""
    named = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.update(node.value.split("."))
    return frozenset(named)


def _readme_citations(text: str) -> set:
    """The names README cites: the last part of each inline code span,
    outside fenced blocks, that is a bare or dotted name."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return {span.rpartition(".")[2]
            for span in re.findall(r"`([^`]+)`", prose)
            if re.fullmatch(r"[\w.]+", span)}


README_CITATIONS = _readme_citations((ROOT / "README.md").read_text())
# (module file, function) of each console script pyproject.toml declares
SCRIPTS = {(f"{module}.py", name) for module, name in re.findall(
    r'^\w+ = "chlab\.(\w+):(\w+)"$', (ROOT / "pyproject.toml").read_text(),
    re.M)}


@pytest.mark.parametrize("path", MODULES, ids=_ids(MODULES))
def test_all_names_are_used_elsewhere(path):
    named = set().union(*(_named(p) for p in MODULES if p != path))
    unused = [name for name in _exported(_tree(path))
              if name not in named | README_CITATIONS
              and (path.name, name) not in SCRIPTS]
    assert not unused, (f"{path.name} exports names no other package module,"
                        f" README or console script uses: {unused}")


TRANSFORMING = {"field.py", "solver.py", "profiles.py"}
# the verification suite draws its random fields by one irfft of its own
OWN_DRAWS = {"acceptance.py": 1}


def _fft_names(tree: ast.Module) -> int:
    """How often a module names an FFT module: as an attribute
    (``np.fft.rfft``) or in an import (``from numpy import fft``)."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        count += any("fft" in name.split(".") for name in names)
    return count


@pytest.mark.parametrize("path", MODULES, ids=_ids(MODULES))
def test_only_the_spectral_modules_transform(path):
    found = _fft_names(_tree(path))
    if path.name in TRANSFORMING:
        assert found, f"{path.name} no longer names an FFT module"
    else:
        assert found == OWN_DRAWS.get(path.name, 0), (
            f"{path.name} names an FFT module {found} times; the modules "
            f"that transform are {sorted(TRANSFORMING)}")


def test_only_the_base_and_from_potential_build():
    from chlab.initial_data import InitialData

    stack, classes = [InitialData], []
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    builders = {cls.__name__ for cls in classes if "build" in vars(cls)}
    assert builders == {"InitialData", "FromPotential"}
    unsampled = [cls.__name__ for cls in classes
                 if cls.__name__ not in builders and "sample" not in vars(cls)]
    assert not unsampled, f"data with no closed form of their own: {unsampled}"


# Imports the CLI, builds both erfc-based initial-data kinds, runs the
# second with artifacts and tail profiles, sweeps it, and certifies the
# weight a builtin tracks, as the CLI's commands do; then prints every scipy
# and numpy.random module loaded and whether OpenSSL's hashlib backend is.
_CLI_PATH = f"""
import json, sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import chlab.cli
from chlab.config import scenario_from_dict
from chlab.runner import run_scenario, sweep
for kind in ("mollified_peakon", "mollified_exponential"):
    scenario = scenario_from_dict({{"name": "probe",
                                   "grid": {{"L": 40.0, "N": 1024}},
                                   "initial_data": {{"kind": kind}},
                                   "solver": {{"t_end": 0.02}}}})
    scenario.build_initial()
run_scenario(scenario.with_profiles(), out_root=sys.argv[1])
sweep(scenario, "solver.t_end", [0.01], out_root=sys.argv[1], workers=1)
assert chlab.cli.main(["weights", "certify", "tail-profiles",
                       "--out", sys.argv[1], "--quiet"]) == 0
print(json.dumps({{"scipy": sorted(m for m in sys.modules
                                  if m.partition(".")[0] == "scipy"),
                  "numpy.random": sorted(m for m in sys.modules
                                         if m.startswith("numpy.random")),
                  "_hashlib": "_hashlib" in sys.modules}}))
"""


def test_cli_path_loads_no_scipy_and_no_openssl(tmp_path):
    done = subprocess.run([sys.executable, "-c", _CLI_PATH, str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["scipy"] == [], f"scipy loaded: {loaded['scipy']}"
    assert loaded["numpy.random"] == [], (
        f"numpy.random loaded: {loaded['numpy.random']}")
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("no built-in SHA-256 module: configs hash with OpenSSL")
    assert not loaded["_hashlib"], "OpenSSL's hashlib backend loaded"


# Imports the CLI, then prints every sweep-only module loaded.
_CLI_IMPORT = f"""
import sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import chlab.cli
print(sorted(m for m in sys.modules
             if m == "csv" or m.partition(".")[0] == "multiprocessing"))
"""


def test_cli_import_loads_no_sweep_only_module():
    # multiprocessing and csv serve only a sweep, which imports them itself
    done = subprocess.run([sys.executable, "-c", _CLI_IMPORT],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", f"loaded: {done.stdout}"


def _commands(parser: argparse.ArgumentParser) -> set:
    """Every command ``parser`` dispatches, a nested one as "group name"."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= {f"{name} {n}" for n in _commands(sub)} or {name}
    return found


def _named_commands(text: str, groups: set) -> set:
    """The command of each line of ``text`` that starts with ``chlab``."""
    return {f"{first} {second}" if first in groups else first
            for first, second in re.findall(r"^\s*chlab (\S+) ?(\S*)",
                                            text, re.M)}


def test_docs_name_exactly_the_cli_commands():
    from chlab.cli import build_parser

    commands = _commands(build_parser())
    groups = {c.partition(" ")[0] for c in commands if " " in c}
    docstring = ast.get_docstring(_tree(PACKAGE / "cli.py"))
    quick_start = (ROOT / "README.md").read_text().partition(
        "## Quick start")[2].partition("\n## ")[0]
    assert "weights certify" in commands
    assert _named_commands(docstring, groups) == commands
    assert _named_commands(quick_start, groups) == commands


def _readme_row_names(artifact):
    """The backticked names in README's table row of ``artifact``, past
    its first cell."""
    [row] = [line for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith(f"| `{artifact}` |")]
    return set(re.findall(r"`([^`]+)`", row.split(" | ", 1)[1]))


def test_readme_names_exactly_the_summary_keys(tmp_path):
    from chlab.config import scenario_from_dict
    from chlab.runner import run_scenario

    scenario = scenario_from_dict({"name": "keys",
                                   "grid": {"L": 20.0, "N": 512},
                                   "initial_data": {"kind": "gaussian"},
                                   "solver": {"t_end": 0.01}})
    outdir = run_scenario(scenario, out_root=tmp_path).outdir
    keys = set(json.loads((outdir / "summary.json").read_text()))
    assert _readme_row_names("summary.json") == keys


def test_readme_names_exactly_the_record_keys(tmp_path):
    # a certificate file's keys: its own, each record's, each certificate's
    from chlab.cli import main

    for command in (["weights", "certify"], ["classify"]):
        assert main(command + ["algebraic-persistence", "--out",
                               str(tmp_path), "--quiet"]) == 0
    [certificates] = tmp_path.glob("*/weight_certificates.json")
    [classification] = tmp_path.glob("*/classification.json")
    doc = json.loads(certificates.read_text())
    keys = set(doc).union(*({*record, *record["certificate"]}
                            for record in doc["certificates"]))
    assert _readme_row_names("weight_certificates.json") == keys
    assert _readme_row_names("classification.json") == set(
        json.loads(classification.read_text()))
