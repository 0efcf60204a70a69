"""The benchmark's tracer can wrap and restore every name it traces.

``perfbench/child.py`` replaces each traced function under the name its
calling module bound it to.  A change to the package that unbinds one of
those names fails here, not only in a traced benchmark run.
"""

import os
import sys

from edgestat import constructions, dist, gm, verify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_wraps_and_restores_every_traced_name(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    monkeypatch.syspath_prepend(PERFBENCH)
    try:
        import child

        tracer = child.Tracer(str(tmp_path))
        try:
            child.install_tracer(tracer, gm, verify, dist, constructions)
        finally:
            not_restored = tracer.unwrap()
    finally:
        for name in ("child", "tracer"):
            sys.modules.pop(name, None)
    assert not_restored == []
