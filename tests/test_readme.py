"""README.md's python examples: all of them compile, and the quick start runs."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FENCES = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert FENCES


@pytest.mark.parametrize("index", range(len(FENCES)))
def test_python_example_compiles(index):
    compile(FENCES[index], f"README.md python example {index}", "exec")


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    quick_start = re.search(r"^## Library quick start\n+```python\n(.*?)^```$", text,
                            flags=re.DOTALL | re.MULTILINE).group(1)
    namespace = {}
    exec(compile(quick_start, "README.md quick start", "exec"), namespace)
    chains, rows = namespace["chains"], namespace["rows"]
    assert namespace["steps_source"] == "mle" and len(chains) == 4
    assert all(r.rhat < 1.05 for r in rows)
