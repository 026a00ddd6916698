"""The traced benchmark run finds every name it wraps.

`perfbench/tracer.py` wraps functions and methods of `src/hookforge` by
name and reads a few more (the `@cache`d functions' `cache_info`,
`identity._materialize` and `cli.build_units`).  A rename in `src/` would
crash a traced run; this test makes tier-1 fail instead.  It imports the
tracer's tables and changes nothing under `perfbench/`.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# read directly by `tracer.install`, outside its tables
READ_DIRECTLY = (("identity", "_materialize"), ("cli", "build_units"))


def load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its `import workloads`
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_or_reads_exists(monkeypatch):
    tracer = load_tracer(monkeypatch)
    mods = tracer._modules()
    missing = []
    for targets in tracer.SPANS.values():
        for owner, name in targets:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mods[owner], cls_name, None)
                if cls is None or meth not in vars(cls):
                    missing.append(f"{owner}.{name}")
            elif not callable(getattr(mods[owner], name, None)):
                missing.append(f"{owner}.{name}")
    for owner, name in tracer.CACHED:
        if not hasattr(getattr(mods[owner], name, None), "cache_info"):
            missing.append(f"{owner}.{name}.cache_info")
    for owner, name in READ_DIRECTLY:
        if not callable(getattr(mods[owner], name, None)):
            missing.append(f"{owner}.{name}")
    assert missing == []

