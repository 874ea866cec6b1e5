"""The C march's parameter order, pinned without a C build.

The engine driver passes the march's arguments by name in the order of
``march.MARCH_PARAMS`` (the Python signature of ``cext.march_steps``),
``cext`` forwards them through ctypes as bare addresses and integers,
and ``_march.c`` reads them in its prototype's order. Nothing checks
the three agree at run time: a misordered argument silently marches
the wrong memory. These tests read the sources and check they do.
"""

import inspect
import re
from pathlib import Path

from repro.kernels import cext, march

SOURCE = Path(cext.__file__).with_name("_march.c").read_text()

#: Prototype parameters ``march_steps`` derives instead of taking.
DERIVED = {"n_ranks": "step_ranks", "units": "kind"}


def _balanced(text: str, opener: str) -> str:
    """The text between ``opener``'s parenthesis (or bracket) and its
    matching close."""
    start = text.index(opener) + len(opener)
    close = {"(": ")", "[": "]"}[opener[-1]]
    depth = 1
    for at in range(start, len(text)):
        depth += {opener[-1]: 1, close: -1}.get(text[at], 0)
        if depth == 0:
            return text[start:at]
    raise AssertionError(f"unbalanced {opener!r}")


def _prototype() -> list[str]:
    params = _balanced(SOURCE, "int64_t repro_march_steps(")
    return [re.findall(r"\w+", param)[-1] for param in params.split(",")]


def test_prototype_minus_derived_parameters_is_march_params():
    names = [n for n in _prototype() if n not in DERIVED and n != "out"]
    assert names == list(march.MARCH_PARAMS)


def test_argtypes_have_one_entry_per_prototype_parameter():
    body = _balanced(inspect.getsource(cext._load), "func.argtypes = [")
    types, commented = [], []
    for line in body.splitlines():
        code, _, comment = line.partition("#")
        types += [t for t in code.replace(",", " ").split() if t]
        commented += re.findall(r"\w+", comment)
    assert len(types) == len(_prototype())
    # The comments name each entry's parameter, in prototype order.
    assert commented == _prototype()


def test_march_steps_passes_the_arguments_in_prototype_order():
    call = _balanced(inspect.getsource(cext.march_steps), "_FUNC(")
    passed = []
    for arg in (a.strip() for a in call.split(",") if a.strip()):
        derived = re.fullmatch(r"(\w+)\.shape\[0\]", arg)
        wrapped = re.fullmatch(r"(?:_ptr|float)\((\w+)\)|(\w+)", arg)
        assert derived or wrapped, arg
        if derived:
            passed.append(
                next(k for k, v in DERIVED.items() if v == derived[1])
            )
        else:
            passed.append(wrapped[1] or wrapped[2])
    assert passed == _prototype()
