"""The traced benchmark run wraps library functions by attribute name.

`perfbench/bench_trace.py` replaces ``owner.__dict__[attr]`` for every
target it lists, so each must stay an attribute of that very module or
class, not one it inherits or re-exports under another name.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_is_an_own_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_trace

    targets = bench_trace._targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert targets and not missing
