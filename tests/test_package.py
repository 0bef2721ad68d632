"""Package surface: every exported name and annotation resolves, every import is used, and
the CLI imports no scipy unless a grid needs it."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import typing

import pytest

import bibeta

# __main__ defines nothing and runs the CLI when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(bibeta.__path__) if info.name != "__main__")


def test_all_names_resolve():
    missing = [name for name in bibeta.__all__ if not hasattr(bibeta, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from bibeta import *", namespace)
    assert set(bibeta.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    """typing.get_type_hints resolves for every function, class and method a module defines."""
    module = importlib.import_module(f"bibeta.{name}")
    for obj in vars(module).values():
        if not (inspect.isfunction(obj) or inspect.isclass(obj)) or obj.__module__ != module.__name__:
            continue
        typing.get_type_hints(obj)
        if inspect.isclass(obj):
            for member in vars(obj).values():
                if inspect.isfunction(member):
                    typing.get_type_hints(member)


def imported_but_unused(path: pathlib.Path) -> list:
    """Module-level imports never named in the module's code or in its string annotations."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= {n.id for n in ast.walk(ast.parse(const.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used)


SOURCES = sorted(p for p in pathlib.Path(bibeta.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    """Each module-level import in a module is used there (__init__ re-exports, __future__ exempt)."""
    assert imported_but_unused(path) == []


def test_unused_import_guard_can_fail(tmp_path):
    """The check above sees an import used nowhere, and one used only in a string annotation."""
    source = tmp_path / "module.py"
    source.write_text('import operator\nfrom typing import Tuple\n\ndef f(x: "Tuple[int]") -> None:\n    pass\n')
    assert imported_but_unused(source) == ["module.py:1 operator"]


def test_number_format_is_spelled_only_in_serialize():
    """CSV cells are "%.12g"; serialize owns that format, and every other module hands it floats."""
    modules = pathlib.Path(bibeta.__file__).parent.glob("*.py")
    spelled = [f"{p.name}:{i}" for p in sorted(modules) if p.name != "serialize.py"
               for i, line in enumerate(p.read_text().splitlines(), 1) if ".12g" in line]
    assert spelled == []


def test_cli_import_does_not_load_scipy():
    """scipy.special costs 0.10–0.15 s of import time (2-core Xeon) that every CLI invocation would pay."""
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bibeta, bibeta.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


CORE = {"bibeta", "bibeta.cli", "bibeta.families", "bibeta.serialize", "bibeta.special"}
# subcommand -> (argv, the bibeta modules it may load, whether it may load concurrent.futures).
# None of these runs loads scipy: only an exact cell does (test_exact_cells_load_scipy_special).
SUBCOMMAND_MODULES = {
    "tables": (["tables", "--table", "6"], CORE | {"bibeta.survivability"}, False),
    "closure_check": (["closure-check", "--family", "an8", "--alphas", "1,2,3,0.5,1.5,2.5,0.7,1.2",
                       "--which", "both"], CORE | {"bibeta.survivability"}, False),
    "sample": (["sample", "--family", "an5", "--alphas", "5,5,5,5,1e-4", "--n", "100"],
               CORE | {"bibeta.sampling"}, True),
    "density": (["density", "--family", "an5", "--alphas", "5,5,5,5,1e-4", "--m", "10", "--mc-samples", "10000"],
                CORE | {"bibeta.sampling", "bibeta.grids"}, True),
    "posterior": (["posterior", "--prior-family", "ol-minus", "--prior-alphas", "10,2.5,5",
                   "--data", "100,35,27,39", "--m", "20"],
                  CORE | {"bibeta.sampling", "bibeta.grids", "bibeta.inference"}, False),
    "posterior_synth": (["posterior", "--prior-family", "ol-minus", "--prior-alphas", "10,2.5,5",
                         "--synth-n", "100", "--m", "20"],
                        CORE | {"bibeta.sampling", "bibeta.grids", "bibeta.inference", "bibeta.synth"}, False),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_its_modules(tmp_path, name):
    """Each subcommand imports only the modules it runs: `tables` and `closure-check` load no
    sampling, grids, inference or synth, and with them no thread pool and no scipy."""
    argv, allowed, pool = SUBCOMMAND_MODULES[name]
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from bibeta.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] in ('bibeta', 'scipy', 'concurrent')))"
    )
    done = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, check=True)
    rc, loaded = done.stdout.split(" ", 1)
    loaded = set(ast.literal_eval(loaded))
    assert rc == "0"
    assert {m for m in loaded if m.startswith("bibeta")} <= allowed
    assert not {m for m in loaded if m.startswith("scipy")}
    assert any(m.startswith("concurrent") for m in loaded) == pool


def test_package_names_resolve_on_first_use():
    """`import bibeta` loads no submodule; a public name imports its own module, and the package's
    `survivability` stays the function after its module is imported directly."""
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, bibeta\n"
        "print(sorted(m for m in sys.modules if m.startswith('bibeta.')))\n"
        "from bibeta import BetaParams\n"
        "print(sorted(m for m in sys.modules if m.startswith('bibeta.')))\n"
        "import bibeta.survivability\n"
        "from bibeta import survivability\n"
        "print(callable(survivability), set(bibeta.__all__) <= set(dir(bibeta)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "['bibeta.special']", "True True"]


def test_cli_import_does_not_load_thread_pool():
    """concurrent.futures costs ~12 ms of CLI import; only block assembly loads it."""
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bibeta, bibeta.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_build_the_digit_table():
    """The kernels' lookup tables (digits, per-exponent layouts, Schubfach's powers of ten; about 3 ms
    together) are built on first use, not by `import bibeta.cli`: every cached table is empty."""
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import bibeta, bibeta.cli, bibeta.serialize as s\n"
            "tables = {k: f.cache_info().currsize for k, f in vars(s).items() if hasattr(f, 'cache_info')}\n"
            "print(sorted(tables), sum(tables.values()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['_digit_words', '_layout', '_powers_of_ten'] 0"


SCIPY_FREE_RUNS = {
    "sample_ol_minus": ["sample", "--family", "ol-minus", "--alphas", "10,2.5,5", "--n", "100"],
    "sample_an5": ["sample", "--family", "an5", "--alphas", "5,5,5,5,1e-4", "--n", "100"],
    "density_indep": ["density", "--family", "indep", "--alphas", "2,3,1,4", "--m", "10"],
    "density_an5": ["density", "--family", "an5", "--alphas", "5,5,5,5,1e-4", "--m", "10", "--mc-samples", "10000"],
    "posterior_ol_minus": ["posterior", "--prior-family", "ol-minus", "--prior-alphas", "10,2.5,5",
                           "--data", "100,35,27,39", "--m", "20"],
    "posterior_an5": ["posterior", "--prior-family", "an5", "--prior-alphas", "5,5,5,5,1e-4",
                      "--data", "100,35,27,39", "--m", "20", "--mc-samples", "10000"],
}


def scipy_modules_after(argv, out):
    """Run the CLI in a fresh interpreter; return its exit code and the scipy modules it loaded."""
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from bibeta.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


@pytest.mark.parametrize("name", sorted(SCIPY_FREE_RUNS))
def test_runs_without_exact_cells_do_not_load_scipy(tmp_path, name):
    """Sampling, closed forms and histograms never import scipy."""
    assert scipy_modules_after(SCIPY_FREE_RUNS[name], tmp_path / "out") == "0 []"


def test_exact_cells_load_scipy_special(tmp_path):
    """The check above can fail: an AN8 prior with one shared component imports scipy.special."""
    argv = ["density", "--family", "an8", "--alphas", "10,0,0,2.5,0,0,0,5", "--m", "10"]
    assert "scipy.special" in scipy_modules_after(argv, tmp_path / "out")


def scipy_special_names(path: pathlib.Path) -> set:
    """The scipy.special names a module looks up, through `import scipy.special [as s]`,
    `from scipy import special [as s]` or `from scipy.special import name`."""
    tree = ast.parse(path.read_text())
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "scipy.special"}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            aliases |= {a.asname or a.name for a in node.names if a.name == "special"}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            names |= {a.name for a in node.names}
    return names | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and ast.unparse(n.value) in aliases}


def version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def test_scipy_floor_has_every_special_function():
    """Every scipy.special function the package calls exists at the declared scipy floor: each
    `versionadded` in a docstring is no newer than it (betaincc, used by exact cells, is 1.11.0)."""
    import scipy.special

    pyproject = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    floor = version(re.search(r'"scipy>=([\d.]+)"', pyproject).group(1))
    names = set().union(*map(scipy_special_names, pathlib.Path(bibeta.__file__).parent.glob("*.py")))
    assert "betaincc" in names
    added = {name: re.search(r"versionadded::\s*([\d.]+)", getattr(scipy.special, name).__doc__ or "")
             for name in sorted(names)}
    newer = {name: m.group(1) for name, m in added.items() if m and version(m.group(1)) > floor + (0,) * 3}
    assert newer == {}
