"""The README's library table names only API that imports."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# the surd row's backticks hold a formula and floor/ceil, the cli row's a command
UNCHECKED = {"quivex.surd", "quivex.cli"}


def test_library_table_names_import_from_their_module():
    checked = set()
    for line in README.read_text().splitlines():
        row = re.fullmatch(r"\| `(quivex\.\w+)` \| (.*) \|", line)
        if row is None or row[1] in UNCHECKED:
            continue
        module = importlib.import_module(row[1])
        for name in re.findall(r"`([^`]+)`", row[2]):
            assert name.isidentifier(), (row[1], name)
            assert hasattr(module, name), f"README names {row[1]}.{name}, which does not exist"
        checked.add(row[1])
    assert checked == {f"quivex.{m}" for m in ("quiver", "schofield", "kronecker", "expander", "finfield")}
