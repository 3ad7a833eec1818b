"""Guard for the benchmark's per-layer hooks.

`perfbench/tracer.py` patches library functions by module or class
attribute name. A rename in the library would otherwise only surface when
someone runs the traced benchmark.
"""

import types
from pathlib import Path

import nettack
import nettack.experiment  # noqa: F401  (makes every patched module an attribute)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    # Compiled from source so that nothing (no bytecode cache) is written
    # under perfbench/.
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def raw_attr(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_resolve_and_uninstall_restores():
    tracer = load_tracer()
    targets = [(tracer._resolve(nettack, owner_path), attr)
               for _, owner_path, attr, _, _ in tracer.PATCHES]
    before = [raw_attr(owner, attr) for owner, attr in targets]

    t = tracer.Tracer()
    t.install(nettack)
    try:
        for (owner, attr), orig in zip(targets, before):
            assert raw_attr(owner, attr) is not orig, f"{owner.__name__}.{attr} not patched"
    finally:
        t.uninstall()

    for (owner, attr), orig in zip(targets, before):
        assert raw_attr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"
