"""Every example script imports against the current API.

Importing a script by path runs its imports and definitions but not
its ``main()``, so an API that an example uses and a change removes or
renames fails here, without running the example's measurements.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_exist() -> None:
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path: Path) -> None:
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
