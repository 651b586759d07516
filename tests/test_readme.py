"""The README's library table names only API that imports, and its examples run."""

import importlib
import re
import shlex
from pathlib import Path

from quivex.cli import run

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


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_python_example_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_command_examples_without_files_exit_0():
    # verify and theta-scan read a file the README does not ship
    lines = [line for block in _blocks("sh") for line in block.splitlines()]
    commands = [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("quivex ")]
    runnable = [argv for argv in commands if not {"--rep", "--quiver"} & set(argv)]
    assert len(runnable) == len(commands) - 2
    for argv in runnable:
        assert run(argv) == 0, argv
