"""README names the library's code by backticked dotted names, e.g. `qwave.sim` or `sim._interleaved_outer`,
and lists the options of each command and of each sweep axis.

A rename or a deletion in `src/qwave` that leaves such a name behind, or an
option added to `cli.RunConfig` and not to README's lists, would otherwise
pass the suite and leave the README out of date.
"""

import importlib
import re
from dataclasses import fields
from pathlib import Path

from qwave import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem for path in (ROOT / "src" / "qwave").glob("*.py")} - {"__init__"}
DOTTED = re.compile(r"`(qwave\.)?(\w+(?:\.\w+)*)`")


def _named() -> list[str]:
    """Each backticked name that starts with `qwave.` or with one of its modules, without the `qwave.`."""
    text = (ROOT / "README.md").read_text()
    return [m.group(2) for m in DOTTED.finditer(text) if m.group(1) or m.group(2).split(".")[0] in MODULES]


def test_readme_names_some_of_the_library():
    assert {"sim", "pipeline", "sim._interleaved_outer"} <= set(_named())


def test_every_dotted_name_in_the_readme_resolves():
    for name in _named():
        module, *attrs = name.split(".")
        assert module in MODULES, f"README names `qwave.{name}`, but there is no module qwave.{module}"
        obj = importlib.import_module(f"qwave.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"README names `{name}`, but qwave.{module} has no {attr!r}"
            obj = getattr(obj, attr)


def _option_lists() -> dict[tuple[str, ...], list[str]]:
    """README's bullets `- `name`: `--flag`, ...` (or `- `a` and `b`: ...`): the names -> their sorted flags."""
    text = (ROOT / "README.md").read_text()
    bullets = re.finditer(r"^- (`\w+`(?: and `\w+`)*): (.*(?:\n  .*)*)", text, re.MULTILINE)
    return {tuple(re.findall(r"`(\w+)`", b.group(1))): sorted(re.findall(r"`(--[\w-]+)`", b.group(2)))
            for b in bullets}


def _flags(tag: str, name: str) -> list[str]:
    """The sorted flags of the RunConfig fields whose `tag` metadata names `name`."""
    return sorted(f"--no-{f.name}" if f.metadata["parse"] is cli._parse_bool else f"--{f.name.replace('_', '-')}"
                  for f in fields(cli.RunConfig) if name in f.metadata[tag])


def test_readme_lists_the_options_of_each_command():
    lists = _option_lists()
    for command in cli._EVERY_COMMAND:
        assert lists[(command,)] == _flags("commands", command), f"README's `{command}` options"


def test_readme_lists_the_options_of_each_sweep_axis():
    text = (ROOT / "README.md").read_text()
    besides = re.search(r"Each axis reads only some of the sweep options, besides (.*?):", text, re.DOTALL)
    every = sorted(re.findall(r"`(--[\w-]+)`", besides.group(1)))
    assert every == sorted(set.intersection(*(set(_flags("axes", axis)) for axis in cli._EVERY_AXIS)))
    listed = {names: flags for names, flags in _option_lists().items() if set(names) <= set(cli._EVERY_AXIS)}
    assert sorted(axis for names in listed for axis in names) == sorted(cli._EVERY_AXIS)
    for names, flags in listed.items():
        for axis in names:
            assert sorted(flags + every) == _flags("axes", axis), f"README's axis `{axis}` options"
