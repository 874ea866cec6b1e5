"""Half-Double transitive attacks (paper Section V-E).

The attacker hammers row C continuously; the defense obligingly
refreshes C's neighbours B and D at every REF, and those mitigative
refreshes are themselves silent activations that disturb A and E —
rows two away from the hammered one. Without a countermeasure the
victim two rows out absorbs one silent activation per REF: 8192 per
tREFW, which is why plain MINT's threshold would degrade to 8192
(MinTRH-D 4096) and why MINT adds the transitive-mitigation slot.
"""

from __future__ import annotations

from ..sim.trace import Trace
from .base import AttackParams
from .classic import single_sided


def half_double(
    params: AttackParams | None = None, center: int | None = None
) -> Trace:
    """Continuous hammering of ``center``; victims are center±2.

    The damage mechanism lives in the mitigation path, not the trace:
    the trace is just a single-sided pattern, and the simulation engine
    models the silent activations of victim refreshes.
    """
    params = params or AttackParams()
    center = params.base_row if center is None else center
    trace = single_sided(params, row=center)
    return Trace(name=f"half-double(center={center})", intervals=trace.intervals)


def half_double_distance(
    distance: int,
    params: AttackParams | None = None,
    center: int | None = None,
) -> Trace:
    """Recursive Half-Double targeting rows ``center ± distance``.

    With radius-2 victim refresh the failure moves to distance 3, etc.
    (Section V-E: "refreshing two rows on either side ... does not
    mitigate transitive attacks"). The trace is identical; the label
    records the intended victim distance for the experiment harness.
    """
    if distance < 2:
        raise ValueError("transitive attacks target distance >= 2")
    params = params or AttackParams()
    center = params.base_row if center is None else center
    trace = single_sided(params, row=center)
    return Trace(
        name=f"half-double(center={center},distance={distance})",
        intervals=trace.intervals,
    )
