"""Compiled inner-loop backend for the fast engine's packed kernel.

The packed kernel still pays one Python dispatch per tREFI; this
package removes it by marching a lookahead window of up to K
consecutive steps, each with its own plan and its ranks' refresh
scheduler ticks, inside one compiled call. Its one *provider*, ``cext``, is a small C file
compiled on demand with any C compiler on PATH and bound via ctypes
(:mod:`repro.kernels.cext`); :mod:`repro.kernels.march` states what
it computes.

The fast engine runs the march when the C build succeeds and the
pure-NumPy kernel (no compiled tier) otherwise. The ``REPRO_KERNELS``
environment variable (``cext`` or ``none``; :class:`forced_provider`
in tests) is the only override, and a forced ``cext`` that cannot
build fails loudly at simulator construction. Results are
bit-identical to the scalar reference engine either way, pinned by
the property suite.
"""

from __future__ import annotations

import os

__all__ = [
    "available",
    "forced_provider",
    "get_march",
    "provider",
    "unavailable_reason",
]

_VALID_FORCES = {"cext", "none"}


def _check_force(name: str | None, source: str) -> str | None:
    if name is not None and name not in _VALID_FORCES:
        raise ValueError(
            f"unknown provider {name!r} in {source}; expected one of "
            f"{sorted(_VALID_FORCES)}"
        )
    return name


#: Test/debug override: None = auto-resolve, otherwise "cext" or
#: "none". Seeded from the REPRO_KERNELS environment variable; tests
#: use :func:`forced_provider`.
_FORCED: str | None = _check_force(
    os.environ.get("REPRO_KERNELS") or None, "REPRO_KERNELS"
)


class forced_provider:
    """Context manager pinning provider resolution (for tests).

    ``forced_provider("none")`` simulates a host with no compiled
    backend; ``forced_provider("cext")`` demands the C march.
    """

    def __init__(self, name: str | None) -> None:
        self.name = _check_force(name, "forced_provider")
        self._previous: str | None = None

    def __enter__(self) -> "forced_provider":
        global _FORCED
        self._previous = _FORCED
        _FORCED = self.name
        return self

    def __exit__(self, *exc_info) -> None:
        global _FORCED
        _FORCED = self._previous


def _cext_available() -> bool:
    from . import cext

    return cext.available()


def provider() -> str | None:
    """The compiled provider the fast engine uses: ``"cext"``, or
    ``None`` when no compiled tier runs. A forced ``cext`` that cannot
    build raises instead of resolving to ``None``."""
    if _FORCED == "none":
        return None
    if _cext_available():
        return "cext"
    if _FORCED == "cext":
        raise RuntimeError(
            "REPRO_KERNELS forces the 'cext' provider, but it is "
            f"unavailable: {unavailable_reason()}. Make a C compiler "
            "(cc, gcc or clang) available on PATH, or unset "
            "REPRO_KERNELS to fall back to the pure-NumPy kernel."
        )
    return None


def available() -> bool:
    """True when a compiled march provider can run on this host."""
    return provider() is not None


def unavailable_reason() -> str:
    """Human-readable reason :func:`available` is False."""
    if _FORCED == "none":
        return "provider resolution is forced off (test override)"
    from . import cext

    return cext.build_error() or "C provider unavailable"


def get_march():
    """The C march callable (:func:`repro.kernels.cext.march_steps`),
    or None when no provider is available."""
    if provider() is None:
        return None
    from . import cext

    return cext.march_steps
