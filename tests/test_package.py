"""Package surface: every exported name resolves."""

import bibeta


def test_all_names_resolve():
    missing = [name for name in bibeta.__all__ if not hasattr(bibeta, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from bibeta import *", namespace)
    assert set(bibeta.__all__) <= set(namespace)
