"""The documented public API resolves: README's library example runs, and
every name in `hilbertcm.__all__` exists."""

import re
from pathlib import Path

import hilbertcm

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def test_readme_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", readme_section("Library"), re.DOTALL)
    exec(compile(code, f"{README}:Library", "exec"), {})


def test_all_names_resolve():
    assert len(hilbertcm.__all__) == len(set(hilbertcm.__all__))
    missing = [name for name in hilbertcm.__all__ if not hasattr(hilbertcm, name)]
    assert not missing
