"""Valid command-line invocations print the bytes recorded in tests/golden/cli.json.

The corpus is recorded at the lowest x86-64 CPU dispatch (see
tests/golden/update.py), which numpy can be held to from version 2.4 on, so
the test skips on other architectures and on older numpy.
`python tests/golden/update.py` rewrites it and lists each moved value.
"""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath as umath

_NUMPY = tuple(int(part) for part in np.__version__.split(".")[:2])

pytestmark = [
    pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                       reason="the golden corpus is recorded for x86-64 only"),
    pytest.mark.skipif(_NUMPY < (2, 4), reason="numpy before 2.4 does not know the X86_V3 and "
                       "X86_V4 groups, so it cannot run at the corpus's dispatch"),
]

_SPEC = importlib.util.spec_from_file_location(
    "golden_update", Path(__file__).resolve().parent / "golden" / "update.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_outputs_match_corpus():
    for expected, got in zip(golden.load(), golden.capture(), strict=True):
        assert got == expected, golden._moves(expected, got)


@pytest.mark.skipif(not any(umath.__cpu_features__.get(f) for f in umath.__cpu_dispatch__),
                    reason="this CPU has none of numpy's optional dispatch targets")
def test_capture_fails_unless_dispatch_is_lowered(monkeypatch):
    monkeypatch.setitem(golden.DISPATCH, "NPY_DISABLE_CPU_FEATURES", "")
    with pytest.raises(RuntimeError, match="numpy still dispatches to"):
        golden.capture()
