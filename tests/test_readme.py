"""README's smoke example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def smoke_example() -> str:
    """The first python block after the smoke-test paragraph."""
    text = README.read_text()
    start = text.index("A static pair makes a compact smoke test.")
    return re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)


def test_smoke_example_prints_what_its_comments_say(capsys):
    code = smoke_example()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["-2.0", "0.25"]
    assert re.findall(r"^print\(.*#\s*(\S+)$", code, re.M) == printed
