"""Modules of the package call each other through public names only."""

import re
from pathlib import Path

import divisorlab

PACKAGE = Path(divisorlab.__file__).resolve().parent


def test_no_module_reaches_into_another_modules_private_names():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    private_ref = re.compile(r"\b(" + "|".join(modules) + r")\._[A-Za-z]")
    hits = [f"{p.name}:{i}: {line.strip()}"
            for p in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if private_ref.search(line)]
    assert not hits, "\n".join(hits)
