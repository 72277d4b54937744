"""The benchmark's tracer (perfbench/tracer.py) wraps hb's functions and
methods by name.  Installing and uninstalling it here makes a deleted or
renamed name fail in the test suite instead of in a benchmark run, and
checks that uninstalling puts every original back."""

import importlib.util
import sys
from pathlib import Path

# every hb module the tracer patches or rebinds in, loaded up front: the
# CLI imports its layers only when a command runs
import hb.algebra  # noqa: F401
import hb.building  # noqa: F401
import hb.cli  # noqa: F401
import hb.discriminant  # noqa: F401
import hb.eisenstein  # noqa: F401
import hb.fields  # noqa: F401
import hb.fourier  # noqa: F401
import hb.laurent  # noqa: F401
import hb.oracle  # noqa: F401
import hb.poly  # noqa: F401
import hb.units  # noqa: F401
import hb.verify  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of hb's modules and of the classes they define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "hb" and not name.startswith("hb."):
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if isinstance(val, type) and val.__module__ == name:
                for key, member in vars(val).items():
                    out[(name, attr, key)] = member
    return out


def test_tracer_install_and_uninstall_restore_every_binding():
    before = _bindings()
    tracer = _load_tracer().Tracer().install()
    try:
        during = _bindings()
        wrapped = [k for k in before if during.get(k) is not before[k]]
        assert ("hb.oracle", "p_delta_direct") in wrapped
        assert ("hb.building", "Cochain", "eval_rep") in wrapped
        assert ("hb.fields", "FF", "sub") in wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
