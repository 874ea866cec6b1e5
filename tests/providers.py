"""The compiled march provider as the tests see it.

The C march (``cext``) is the one provider. A test that marches it is
parametrised over :data:`MARCH_PROVIDERS` or marked
:data:`requires_c_march`: it skips, naming the build error, on a host
without a C build — unless ``REPRO_KERNELS`` forces ``cext``: then a
broken build fails it instead.
"""

import os

import pytest

from repro.kernels import cext


def _c_build_missing() -> bool:
    return os.environ.get("REPRO_KERNELS") != "cext" and not cext.available()


#: Skips a test that marches the C build on a host without one.
requires_c_march = pytest.mark.skipif(
    _c_build_missing(), reason=f"no C march: {cext.build_error()}"
)

#: The ``provider`` values of the tests that march the compiled tier.
MARCH_PROVIDERS = [pytest.param("cext", marks=requires_c_march)]
