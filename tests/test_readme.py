"""The README's library example runs as written."""

import math
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced_python(section: str) -> str:
    """The first fenced python block under the README heading `## section`."""
    with open(README) as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_example_scores_the_amfa_track(capsys):
    namespace = {}
    exec(compile(fenced_python("Library"), README, "exec"), namespace)
    row = namespace["row"]
    assert row["algorithm"] == "amfa"
    assert row["matched_epochs"] == len(namespace["t"]) - row["excluded_epochs"] > 0
    assert all(math.isfinite(row[key]) for key in ("rmse", "std", "max", "composite"))
    assert capsys.readouterr().out.startswith("amfa: ")
