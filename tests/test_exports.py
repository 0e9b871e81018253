import subprocess
import sys

import dickelift
from dickelift import entanglement, optimize, probabilities, sampling, statevector

SUBMODULES = (probabilities, statevector, optimize, entanglement, sampling)


def test_each_export_listed_once():
    assert len(dickelift.__all__) == len(set(dickelift.__all__))


def test_exports_are_version_and_submodule_exports():
    expected = {"__version__"}.union(*(module.__all__ for module in SUBMODULES))
    assert set(dickelift.__all__) == expected
    assert len(expected) == 44


def test_exports_are_the_defining_objects():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(dickelift, name) is getattr(module, name), (module.__name__, name)


def test_import_does_not_load_cli():
    proc = subprocess.run(
        [sys.executable, "-c", "import dickelift, sys; print('dickelift.cli' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_runtime_imports_only_numpy_stack():
    # scipy, mpmath, sympy, hypothesis and pytest are test-only dependencies
    test_only = ("scipy", "mpmath", "sympy", "hypothesis", "pytest")
    code = ("import dickelift, dickelift.cli, sys; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {test_only!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
