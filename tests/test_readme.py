"""README's library example runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first ```python block under README's "Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library example\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example_runs():
    source = library_example()
    assert "gamma_generations" in source and "hall_persistence_check" in source
    exec(compile(source, "README.md", "exec"), {})
