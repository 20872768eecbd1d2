"""The benchmark's layer hooks still resolve in the package.

`perfbench/spans.py` wraps, by attribute path, the functions each layer's
time is charged to, and reads a work count from named arguments of each
call. A wrapped function that is renamed or deleted leaves its layer
unmeasured, and a renamed argument loses the count. This reads its `WRAPPED`
table as it stands and checks both against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.WRAPPED)


WRAPPED = _wrapped()


@pytest.mark.parametrize("name", list(WRAPPED))
def test_wrapped_function_resolves_with_the_arguments_it_counts(name):
    module_name, *path, attr = name.split(".")
    fn = importlib.import_module(f"matchdim.{module_name}")
    for part in (*path, attr):
        fn = getattr(fn, part)
    assert callable(fn)
    # the work count reads its arguments by name: a["n"], a["schedule"], ...
    read = {c for c in WRAPPED[name].__code__.co_consts if isinstance(c, str)}
    assert read <= set(inspect.signature(fn).parameters)
