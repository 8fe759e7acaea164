"""The README's library example runs, and its comments show what it returns."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_and_its_comments_hold():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    namespace: dict = {}
    exec(block, namespace)
    shown = {code.strip(): comment.strip() for code, _, comment in (line.partition("#") for line in block.splitlines()) if comment}
    S = namespace["S"]
    assert shown.pop("S = ts.split_system(T)") == f"iset={S.iset}, jset={S.jset}" == "iset=(3,), jset=(1, 2)"
    got = {expr: repr(eval(expr, namespace)) for expr in shown}
    assert got == shown == {
        'ts.partition(S, "literal").classes': "((1, 3), (2,))",
        "ts.check_decomposition(S).ok": "True",
        "ts.is_minimal(S).verdict": "'not_minimal'",
    }
