"""The README's library example runs as written, and its configuration
block shows the real defaults."""

import json
import math
import os
import re

from climbloc.cli import DEFAULT_CONFIG

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced(section: str, language: str) -> str:
    """The first fenced `language` block under the README heading `## section`."""
    with open(README) as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def concrete_entries(shown: dict, defaults: dict, path=""):
    """(dotted key, shown value, default value) for every key of `shown`
    that is not a "..." placeholder, descending into objects."""
    for key, value in shown.items():
        if key == "...":
            continue
        if isinstance(value, dict):
            yield from concrete_entries(value, defaults[key], f"{path}{key}.")
        else:
            yield f"{path}{key}", value, defaults[key]


def test_configuration_block_shows_the_defaults():
    shown = json.loads(fenced("Configuration", "json"))
    entries = list(concrete_entries(shown, DEFAULT_CONFIG))
    assert len(entries) > 20
    for dotted, value, default in entries:
        assert value == default, dotted
    # every setting outside sim is shown
    rest = {key: value for key, value in DEFAULT_CONFIG.items() if key != "sim"}
    assert {dotted for dotted, _, _ in concrete_entries(rest, rest)} <= {dotted for dotted, _, _ in entries}


def test_library_example_scores_the_amfa_track(capsys):
    namespace = {}
    exec(compile(fenced("Library", "python"), README, "exec"), namespace)
    row = namespace["row"]
    assert row["algorithm"] == "amfa"
    assert row["matched_epochs"] == len(namespace["t"]) - row["excluded_epochs"] > 0
    assert all(math.isfinite(row[key]) for key in ("rmse", "std", "max", "composite"))
    assert capsys.readouterr().out.startswith("amfa: ")
