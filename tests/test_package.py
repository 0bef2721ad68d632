"""Package surface: every exported name resolves; the CLI imports no scipy."""

import os
import subprocess
import sys

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
