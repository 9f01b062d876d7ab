"""Modules of the package call each other through public names only, and
refuse a request over the memory budget in one place."""

import ast
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


def test_memory_budget_error_is_built_in_check_budget_alone():
    # one refusal: every MemoryBudgetError( call lies inside sieve.check_budget
    budget = next(node for node in ast.parse((PACKAGE / "sieve.py").read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == "check_budget")
    inside = range(budget.lineno, budget.end_lineno + 1)
    calls = [(p.name, node.lineno)
             for p in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "MemoryBudgetError"]
    stray = [f"{name}:{line}" for name, line in calls if name != "sieve.py" or line not in inside]
    assert calls and not stray, "\n".join(stray)
