"""Package surface: every exported name resolves; the CLI imports no scipy unless a grid needs it."""

import os
import subprocess
import sys

import pytest

import bibeta


def test_all_names_resolve():
    missing = [name for name in bibeta.__all__ if not hasattr(bibeta, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from bibeta import *", namespace)
    assert set(bibeta.__all__) <= set(namespace)


def test_cli_import_does_not_load_scipy():
    """scipy costs ~0.5 s of import time that every CLI invocation would pay."""
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bibeta, bibeta.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_thread_pool():
    """concurrent.futures costs ~12 ms of CLI import; only block assembly loads it."""
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bibeta, bibeta.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
