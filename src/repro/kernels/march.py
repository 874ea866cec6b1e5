"""The multi-step channel march: its contract and constants.

The march itself is C (``_march.c``, compiled and bound by
:mod:`repro.kernels.cext`); this module states what it computes and
holds the constants the engine driver and the tracker lowerings share
with it. One call executes up to ``num_steps`` consecutive tREFIs of a
*window* of packed kernel plans, exactly as the engine buffered them,
without returning to the engine between steps. Step ``s`` runs plan
``pos_plan[phase + s]``, and each step rank's refresh scheduler ticks
there as :meth:`~repro.dram.refresh.RefreshScheduler.tick` does: it
postpones while the plan's interval on that rank wants to
(``want[j * n_ranks + i]``) and fewer than ``max_postponed`` REFs are
owed (``postponed``, per rank, in and out), and otherwise issues the
owed REFs plus this one. The march reads and writes flat
``int64``/``float64`` arrays and the ``uint8`` flipped bitmap only (the
window lowered by the engine driver; ``_march.c`` documents each
parameter).

Semantics mirror :mod:`repro.sim.kernel`'s
``_FusedChannelKernel._step`` exactly for the shapes its compiled
driver admits (see ``_FusedChannelKernel._compiled_march`` there): one
rank set per window, and every tracker lowered (see the lowering
contract in :mod:`repro.trackers.base`) to one of four kinds:

0. the null tracker;
1. MINT — one ``randint(m_low, m_low + m_span - 1)`` per REF draws
   the next SAN; CAN carries across steps without a REF, and a
   transitive slot (draw 0) keeps the SAR for the next REF, even the
   next one of the same batch;
2. InDRAM-PARA, overwrite variant — a sampled SAR fed one ``random()``
   uniform per activation;
3. a per-row counter table with a trip threshold: Graphene (a trip
   frees the entry; the table holds ``c_cap`` entries) or PRAC
   (``c_cap < 0``: an alert resets the count, and every victim refresh
   counts as an activation). Trips queue in act order and the whole
   queue is mitigated at the next REF; the alerts PRAC's victim
   refreshes raise wait for the REF after that.

The march draws both from each unit's own Mersenne Twister state
(``mt``, one row per unit), exactly as ``random.Random`` does: the
driver loads each tracker's ``getstate()`` words before a call, and
after it moves the generator on by the words the unit drew
(``mt_used``), so a march that stops early leaves the next call, or
the per-step path, to continue the very same stream. Counter state
lives in compact *slots*: the window's activated rows and their
in-range neighbours out to the most REFs of one step, per unit, so a
march never allocates a per-row table.
Activations outside the bank are legal no-ops on the disturbance
arrays; their rows' unmitigated-run counters live in ``o_since`` /
``o_speak``, addressed by negative counter keys. ``env`` holds each
unit's disturbance envelope ``[lo, hi)`` (see
:class:`~repro.dram.rowstate.PackedRows`): the driver has widened it
over the plans' activation scatter, every mitigation widens it over its
bumps, and the rolling auto-refresh zeroes only the part of its slice
inside it (the rest is zero already).

Flips are recorded in the march, exactly as the per-step path records
them: a unit whose plan has adjacent aggressors (``exact``), or whose
aggregated scatter would take some victim to ``trh`` on a cell not yet
flipped, replays its acts in act order instead (reset the row, bump
each neighbour, check for a flip —
``DenseRowDisturbanceModel.activate_many``), and every victim-refresh
bump checks for a flip in ``DenseRowDisturbanceModel.mitigate``'s
order. Each event goes into the caller's buffer as ``(cell, step)`` in
``ev`` plus its disturbance in ``ev_dist``, and a step begins only
while the buffer has room for every flip it could record, an exact
unit's replay counting its distinct victims (a full buffer only ends
the call: the driver starts the next one). The march also stops
before a step whose counter kinds could leave what the slots and the
queue hold: a Graphene table that could overflow (the Misra-Gries
decrement never runs here), a queued PRAC alert whose cascade could
count a row that is not a slot, or a queue without room; such a step
commits nothing, its scheduler tick included. The driver replays the rest of such a
window through the per-step Python path.
"""

from __future__ import annotations

import inspect

from . import cext

__all__ = [
    "KIND_COUNTER",
    "KIND_MINT",
    "KIND_NULL",
    "KIND_SAMPLED",
    "MARCH_PARAMS",
    "STOP_DONE",
    "STOP_FULL",
    "STOP_STATE",
]

#: The tracker kinds the march implements (numbered as in the module
#: docstring); a tracker names its kind in its
#: :class:`~repro.trackers.base.Lowering`.
KIND_NULL, KIND_MINT, KIND_SAMPLED, KIND_COUNTER = range(4)

#: Why a march returned: all steps ran, the next step needs state the
#: slots/queue cannot hold, or the event buffer might not hold the next
#: step's flips.
STOP_DONE = 0
STOP_STATE = 1
STOP_FULL = 2

#: The march's parameter names in call order (the driver passes each
#: argument by its name).
MARCH_PARAMS = tuple(inspect.signature(cext.march_steps).parameters)
