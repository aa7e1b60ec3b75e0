"""README names the library's code by backticked dotted names, e.g. `qwave.sim` or `sim._interleaved_outer`.

A rename or a deletion in `src/qwave` that leaves such a name behind would
otherwise pass the suite and leave the README pointing at nothing.
"""

import importlib
import re
from pathlib import Path

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
