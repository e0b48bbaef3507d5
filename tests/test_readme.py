"""README agrees with the code: the Modules table, the CLI synopsis and the spec fields."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

from deconfound import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_modules_table_names_exist():
    # every backticked name in a library row of the "Modules" table is an attribute of that
    # module; the deconfound.cli row names the command, not attributes
    table = README.split("\n## Modules", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(deconfound\.\w+)` \| (.*) \|$", table, re.M)
    missing = []
    for module, contents in rows:
        if module == "deconfound.cli":
            continue
        attributes = vars(importlib.import_module(module))
        for span in re.findall(r"`([^`]*)`", contents):
            name = re.match(r"[A-Za-z_]\w*", span)
            if name and name.group() not in attributes:
                missing.append(f"{module}.{name.group()}")
    assert len(rows) >= 6, f"expected the Modules table's six rows, found {len(rows)}"
    assert not missing, f"README's Modules table names what its module lacks: {missing}"


def help_text(command: str) -> str:
    """What ``deconfound <command> --help`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return out.getvalue()


FLAG = r"--[a-z][a-z0-9-]*"


def synopsis() -> dict:
    """Each subcommand's lines of README's "Command line" synopsis, by subcommand."""
    block = README.split("## Command line", 1)[1].split("```", 2)[1]
    lines, command = {}, None
    for line in block.splitlines():
        if line.startswith("deconfound "):
            command = line.split()[1]
            lines[command] = ""
        if command:
            lines[command] += line + "\n"
    return lines


def test_synopsis_flags_are_accepted():
    # every flag the "Command line" synopsis shows is one its subcommand accepts
    missing = []
    for command, lines in synopsis().items():
        text = help_text(command)
        for flag in re.findall(FLAG, lines):
            if not re.search(re.escape(flag) + r"(?![\w-])", text):
                missing.append(f"{command} {flag}")
    assert not missing, f"README shows flags the CLI does not accept: {missing}"


def test_accepted_flags_are_on_the_synopsis():
    # the converse: every long flag a subcommand's --help lists is on its synopsis lines,
    # where deconfound's "[fit flags]" stands for fit's
    shown = synopsis()
    missing = []
    for command, lines in shown.items():
        if "[fit flags]" in lines:
            lines += shown["fit"]
        documented = set(re.findall(FLAG, lines)) | {"--help"}
        missing += [f"{command} {flag}" for flag in re.findall(FLAG, help_text(command))
                    if flag not in documented]
    assert len(shown) == 5, f"expected five subcommands on the synopsis, found {sorted(shown)}"
    assert not missing, f"the CLI accepts flags README's synopsis omits: {sorted(set(missing))}"


def test_spec_fields_are_the_loaders():
    # the spec fields README lists are exactly the keys of the loader's field tables
    text = README.split("**Experiment spec JSON**", 1)[1]
    listed = set(re.findall(r"`(\w+)`", text.split("fields:", 1)[1].split(".", 1)[0]))
    tables = [v for k, v in vars(cli).items() if k.startswith("_") and k.endswith("_FIELDS")]
    loaded = set().union(*tables)
    assert not listed - loaded, f"README lists fields the loader rejects: {sorted(listed - loaded)}"
    assert not loaded - listed, f"the loader takes fields README omits: {sorted(loaded - listed)}"
