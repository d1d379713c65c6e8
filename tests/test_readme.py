"""The README's library tour runs, and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    return section[section.index("```python\n") + 10:section.index("```\n", 10)]


def test_library_tour_runs_and_prints_what_it_says():
    tour = library_tour()
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    checked = 0
    for line in tour.splitlines():
        match = re.fullmatch(r"print\((.*)\)\s+# (.*)", line)
        if match is None:
            continue
        try:
            want = ast.literal_eval(match[2])
        except (ValueError, SyntaxError):
            continue  # a comment in words, such as "alpha ~ 1"
        assert eval(match[1], namespace) == want, line
        checked += 1
    assert checked == 6
