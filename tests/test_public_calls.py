"""Modules of the package call each other through public names only,
refuse a request over the memory budget in one place, and go on with a numpy
integer or float argument as the Python int or float it stands for."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import divisorlab
from divisorlab import exponents, laurent, remainder, sieve, zetasum

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


# each call takes its integer arguments through ``i``; the contour case runs
# first on an empty sweep cache, where a numpy precision once raised
# OverflowError (with a sweep of that precision cached, it spun in mpf_log)
NUMPY_INTEGER_CALLS = {
    "residue_contour_oracle": lambda i: laurent.residue_contour_oracle(2, i(32), 100.0),
    "exp_sum": lambda i: zetasum.exp_sum(10, i(20), 100.0),
    "expsum_bound_grid": lambda i: zetasum.expsum_bound_grid([i(16)], [1e6]),
    "dk_block": lambda i: sieve.dk_block(3, 1, i(1000)),
    "dk_blocks": lambda i: list(sieve.dk_blocks(3, [1], [100], i(1000))),
    "exp_sum_bits": lambda i: zetasum.exp_sum(10, 20, 100.0, precision_bits=i(128)),
    "zeta_em_bits": lambda i: zetasum.zeta_em(0.75, 100.0, precision_bits=i(128)),
    "afe_residual_bits": lambda i: zetasum.afe_residual(0.75, 100.0, precision_bits=i(128)),
    "envelopes": lambda i: remainder.envelopes(i(3), 1e4),
    "alpha_bound": lambda i: exponents.alpha_bound(i(30), exponents.ExponentParams()),
    "beta_bound": lambda i: exponents.beta_bound(i(30), exponents.ExponentParams()),
    "thm3_exponent": lambda i: exponents.thm3_exponent(i(10 ** 6), 0.1),
    "ExponentParams": lambda i: exponents.ExponentParams(k=i(30)),
    "moment_integral": lambda i: zetasum.moment_integral(i(1), 2.0, 50.0),
    "moment_h_max": lambda i: exponents.moment_h_max(i(100), 1.0),
    "zeta_h_max": lambda i: exponents.zeta_h_max(i(500), 1.0),
}


@pytest.mark.parametrize("name", NUMPY_INTEGER_CALLS)
def test_numpy_integers_act_as_python_ints(name):
    call = NUMPY_INTEGER_CALLS[name]
    if name == "residue_contour_oracle":
        laurent._contour_zetas.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = repr(call(np.int64))
    assert got == repr(call(int))


# each call takes its float arguments through ``f``; the result's fields must
# hold Python floats, as numpy's float64 repr differs from the float's, and a
# float32 or float16 argument must act as the Python float it stands for
NUMPY_FLOAT_CALLS = {
    "moment_h_max": lambda f: exponents.moment_h_max(100, f(1.0)),
    "zeta_h_max": lambda f: exponents.zeta_h_max(f(500.0), 1.0),
    "afe_residual": lambda f: zetasum.afe_residual(f(0.75), f(100.0)),
    "moment_integral": lambda f: zetasum.moment_integral(1, f(2.0), f(50.0)),
    "mvt_check": lambda f: zetasum.mvt_check(8, f(50.0)),
    "ExponentParams": lambda f: exponents.ExponentParams(B=f(4.45), theta=f(0.8),
                                                         eps0=f(1e-6), delta=f(1e-3)),
    "residue_contour_oracle": lambda f: laurent.residue_contour_oracle(2, 32, f(100.0)),
}


NUMPY_FLOAT_ROWS = [pytest.param(name, ftype, id=name if ftype is np.float64
                                 else f"{name}-{ftype.__name__}")
                    for ftype in (np.float64, np.float32, np.float16)
                    for name in NUMPY_FLOAT_CALLS]


@pytest.mark.parametrize("name, ftype", NUMPY_FLOAT_ROWS)
def test_numpy_floats_act_as_python_floats(name, ftype):
    call = NUMPY_FLOAT_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = repr(call(ftype))
    assert got == repr(call(lambda v: float(ftype(v))))
