"""README's key table and library example, checked against the code they describe."""

import json
import re
from pathlib import Path

from kerrgate.config import _INCREASING, _TABLE, DEFAULTS

README = Path(__file__).resolve().parents[1] / "README.md"

# | `section.key` | `default` | rule words | meaning |
_ROW = re.compile(r"^\| `([a-z_]+\.[a-z_0-9]+)` \| `([^`|]*)` \| ([^|]*) \| ([^|]*) \|$")


def _section(text: str, heading: str) -> str:
    """The lines under ``heading`` up to the next heading of level 2 or 3."""
    body = text.split("\n" + heading + "\n", 1)[1]
    return re.split(r"\n##+ ", body, maxsplit=1)[0]


def _key_rows(text: str) -> list:
    """(key, default, rule, meaning) of each row of the key table."""
    return [match.groups() for line in _section(text, "### Keys").split("\n") if (match := _ROW.match(line))]


def test_key_table_states_every_leaf_once_as_the_table_does():
    text = README.read_text()
    rows = _key_rows(text)
    leaves = [(section + "." + key, leaf) for section, keys in _TABLE.items() for key, leaf in keys.items()]
    assert [row[0] for row in rows] == [path for path, _ in leaves]
    for (path, default, words, meaning), (_, (_, rule)) in zip(rows, leaves):
        section, key = path.split(".")
        assert default == json.dumps(DEFAULTS[section][key]), path
        assert words == rule[1], path
        assert meaning.strip(), path
    for section, lower, upper in _INCREASING:
        assert "`%s.%s` < `%s.%s`" % (section, lower, section, upper) in " ".join(text.split()), (lower, upper)


def test_library_example_runs_as_written():
    block = _section(README.read_text(), "## Library").split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["rates"].shape == (31, 41, 2)
