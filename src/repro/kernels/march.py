"""The multi-step channel march, in flat-array form.

One call executes up to ``num_steps`` consecutive tREFIs of a *cycle*
of packed kernel plans — the steady state where every rank replays the
same few cached intervals in a fixed order — without returning to the
engine between steps. Cycle position ``t`` runs plan ``pos_plan[t]``
and issues ``pos_refs[t * n_ranks + i]`` REFs on step rank ``i``: 0
while the rank postpones, up to ``max_postponed + 1`` when it pays the
debt back, 1 without postponement. An identical-interval run is the
period-1 cycle with one REF per step. The body is written against flat
``int64``/``float64`` arrays and the ``uint8`` flipped bitmap only (the
cycle lowered by the engine driver), in plain loops that map one to one onto ``_march.c``. This
interpreted body is the reference the C march
(:mod:`repro.kernels.cext`) is tested against.

Semantics mirror :mod:`repro.sim.kernel`'s
``_FusedChannelKernel._step`` exactly for the shapes its compiled
driver admits (see ``_FusedChannelKernel._compiled_march`` there): no
order-sensitive exact replays, a REF schedule the scheduler repeats
every period, and every tracker lowered
(see the lowering contract in :mod:`repro.trackers.base`) to one of
four kinds:

0. the null tracker;
1. MINT — its per-REF ``randint`` is pre-extracted into ``draws``; CAN
   carries across steps without a REF, and a transitive slot (draw 0)
   keeps the SAR for the next REF, even the next one of the same batch;
2. InDRAM-PARA, overwrite variant — a sampled SAR fed one pre-drawn
   uniform per activation (``p_draws``);
3. a per-row counter table with a trip threshold: Graphene (a trip
   frees the entry; the table holds ``c_cap`` entries) or PRAC
   (``c_cap < 0``: an alert resets the count, and every victim refresh
   counts as an activation). Trips queue in act order and the whole
   queue is mitigated at the next REF; the alerts PRAC's victim
   refreshes raise wait for the REF after that.

The random streams come from :mod:`repro.kernels.mt` and are consumed
through per-unit cursors (``m_draw_off``, ``p_draw_off``), so the march
itself is deterministic and the driver reads back exactly how many
values it used. Counter state lives in compact *slots*: the cycle's
activated rows and their in-range neighbours out to the most REFs of
one step, per unit, so a march never allocates a per-row table.
Activations outside the bank are legal no-ops on the disturbance
arrays; their rows' unmitigated-run counters live in ``o_since`` /
``o_speak``, addressed by negative counter keys. ``env`` holds each
unit's disturbance envelope ``[lo, hi)`` (see
:class:`~repro.dram.rowstate.PackedRows`): the driver has widened it
over the plans' activation scatter, every mitigation widens it over its
bumps, and the rolling auto-refresh zeroes only the part of its slice
inside it (the rest is zero already).

Flips are recorded in the march, exactly as the per-step path records
them: an activation step whose aggregated scatter would take some
victim of a unit to ``trh`` on a cell not yet flipped replays that
unit's acts in act order instead (reset the row, bump each neighbour,
check for a flip — ``_activate_many_exact``), and every victim-refresh
bump checks for a flip in ``DenseRowDisturbanceModel.mitigate``'s
order. Each event goes into the caller's buffer as ``(cell, step)`` in
``ev`` plus its disturbance in ``ev_dist``, and a step begins only
while the buffer has room for every flip it could record (a full
buffer only ends the call: the driver starts the next one). The march
also stops before a step whose counter kinds could leave what the
slots and the queue hold: a Graphene table that could overflow (the
Misra-Gries decrement never runs here), a queued PRAC alert whose
cascade could count a row that is not a slot, or a queue without room.
The driver replays the rest of such a run through the per-step Python
path.
"""

from __future__ import annotations

import inspect

__all__ = [
    "KIND_COUNTER",
    "KIND_MINT",
    "KIND_NULL",
    "KIND_SAMPLED",
    "MARCH_PARAMS",
    "march_steps",
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


def _bump(dist, peak, flipped, key, trh, ev, ev_dist, n_ev, step):
    """One unit of disturbance on cell ``key``; its first crossing of
    ``trh`` flips the cell and records an event. Returns the updated
    event count."""
    value = dist[key] + 1.0
    dist[key] = value
    if value > peak[key]:
        peak[key] = value
    if value >= trh and flipped[key] == 0:
        flipped[key] = 1
        ev[2 * n_ev] = key
        ev[2 * n_ev + 1] = step
        ev_dist[n_ev] = value
        n_ev += 1
    return n_ev


def _mitigate(dist, peak, flipped, since, o_since, env, unit, num_rows,
              row, skey, d, trh, ev, ev_dist, n_ev, step):
    """Victim refresh at distance d around ``row`` of one unit: refresh
    row ± d, each refresh activation bumps its own neighbours (the
    transitive channel), then the refreshed pair is restored — same op
    order as DramDevice.mitigate on the radius-1 dense model. The
    unit's disturbance envelope first widens over the bumps' reach,
    row ± (d + 1). ``skey`` is the aggressor's unmitigated-run counter
    (see ``since_keys``). Returns the updated event count."""
    base = unit * num_rows
    lo = row - d - 1
    hi = row + d + 2
    if lo < 0:
        lo = 0
    if hi > num_rows:
        hi = num_rows
    if lo < hi:
        if lo < env[2 * unit]:
            env[2 * unit] = lo
        if hi > env[2 * unit + 1]:
            env[2 * unit + 1] = hi
    for off in (-d, d):
        victim = row + off
        if 0 <= victim < num_rows:
            dist[base + victim] = 0.0
    for off in (-d, d):
        victim = row + off
        if 0 <= victim < num_rows:
            dist[base + victim] = 0.0
            for noff in (-1, 1):
                neighbour = victim + noff
                if 0 <= neighbour < num_rows:
                    n_ev = _bump(dist, peak, flipped, base + neighbour, trh,
                                 ev, ev_dist, n_ev, step)
    for off in (-d, d):
        victim = row + off
        if 0 <= victim < num_rows:
            dist[base + victim] = 0.0
    # Unmitigated-run resets: the aggressor and every refreshed victim.
    if skey >= 0:
        since[skey] = 0
    else:
        o_since[-1 - skey] = 0
    for off in (-d, d):
        victim = row + off
        if 0 <= victim < num_rows:
            since[base + victim] = 0
    return n_ev


def _count(unit, s, c_cnt, c_live, c_thr, c_cap, c_trips, q_buf, q_len,
           q_cap):
    """One activation of counter slot ``s``; a trip queues the slot."""
    v = c_cnt[s]
    if v < 0:  # a new table entry / a row's first activation
        v = 0
        c_live[unit] += 1
    v += 1
    if v >= c_thr[unit]:
        q_buf[unit * q_cap + q_len[unit]] = s
        q_len[unit] += 1
        c_trips[unit] += 1
        if c_cap[unit] < 0:  # PRAC: the alert resets the count
            v = 0
        else:  # Graphene: the trip frees the entry
            v = -1
            c_live[unit] -= 1
    c_cnt[s] = v


def _march_steps_impl(
    dist,  # float64[units * num_rows] packed disturbance
    peak,  # float64[units * num_rows] running per-row peak
    flipped,  # uint8[units * num_rows] packed flipped bitmap
    since,  # int64[units * num_rows] unmitigated-run counters
    speak,  # int64[units * num_rows] unmitigated-run peaks
    env,  # int64[2 * units] per-unit disturbance envelope [lo, hi)
    o_since,  # int64[O] counters of the out-of-range activated rows
    o_speak,  # int64[O] their peaks
    mitig,  # int64[units] per-march mitigation tally (scratch, zeroed)
    transmit,  # int64[units] per-march transitive tally (scratch, zeroed)
    reset_keys,  # int64[:] activated in-range rows (self-reset)
    reset_off,  # int64[J * units + 1] plan j unit u's reset keys at
    #             reset_off[j * units + u]
    victims,  # int64[:] unique victim keys of the activation scatter
    delta,  # float64[:] per-victim summed disturbance
    victim_off,  # int64[J * units + 1] plan j unit u's victims/deltas
    since_keys,  # int64[:] activated rows' counters: k >= 0 is since[k],
    #              k < 0 out-of-range row o_since[-1 - k]
    since_counts,  # int64[:] per-row activation counts
    since_off,  # int64[J + 1] plan j's since keys/counts offsets
    acts,  # int64[:] per-(plan, unit) raw act rows, concatenated
    act_skey,  # int64[:] each act row's counter key (as in since_keys)
    acts_off,  # int64[J * units + 1] plan j unit u's acts at j * units + u
    step_ranks,  # int64[:] ranks active in every step (ascending)
    num_banks,
    num_rows,
    ref_counts,  # int64[num_ranks] rolling auto-refresh counters
    refw,
    slice_rows,
    pos_plan,  # int64[period] the plan of each cycle position
    pos_refs,  # int64[period * n_ranks] REFs per position per step rank
    period,
    phase,  # the cycle position of the first step
    kind,  # int64[units] 0 null, 1 MINT, 2 PARA, 3 counter table
    m_can,  # int64[units] MINT current activation number
    m_san,  # int64[units] MINT selected activation number (-1 = none)
    m_sar,  # int64[units] MINT/PARA selected address register
    m_skey,  # int64[units] the SAR row's counter key
    m_valid,  # int64[units] MINT/PARA SAR valid flag
    m_dist,  # int64[units] MINT pending mitigation distance
    m_sel,  # int64[units] MINT selections / PARA samples tally
    m_draw_off,  # int64[units] MINT cursor into draws (one per REF)
    draws,  # int64[:] MINT pre-extracted per-REF randint values
    p_prob,  # float64[units] PARA sampling probability
    p_over,  # int64[units] PARA overwrites tally
    p_draw_off,  # int64[units] PARA cursor into p_draws (one per act)
    p_draws,  # float64[:] PARA pre-drawn per-activation uniforms
    c_thr,  # int64[units] counter trip threshold
    c_cap,  # int64[units] Graphene table capacity (< 0: PRAC)
    c_live,  # int64[units] live table entries
    c_trips,  # int64[units] trips tally
    c_tcap,  # int64[J * units] most trips plan j's acts cause on unit u
    slot_rows,  # int64[S] row of each counter slot
    slot_prev,  # int64[S] slot of row - 1 (-1 = not a slot)
    slot_next,  # int64[S] slot of row + 1 (-1 = not a slot)
    slot_skey,  # int64[S] each slot row's counter key
    c_cnt,  # int64[S] per-slot count (-1 = no entry / never activated)
    act_slot,  # int64[:] slot of each raw act (parallel to acts)
    uniq_off,  # int64[J * units + 1] plan j unit u's distinct act slots
    uniq_slot,  # int64[:] distinct act slots, per (plan, unit)
    q_buf,  # int64[units * q_cap] queued trips (slots), per unit
    q_len,  # int64[units] queue lengths
    q_cap,
    ev,  # int64[2 * ev_cap] flip events: flipped cell, step offset
    ev_dist,  # float64[ev_cap] each event's disturbance
    ev_cap,
    num_steps,
    trh,
):
    """Returns ``(steps_done, stop, events, flip_steps)``: ``events``
    flip events are in the buffer, and ``flip_steps`` steps replayed
    some unit's acts in act order."""
    units = kind.shape[0]
    n_ranks = step_ranks.shape[0]
    n_ev = 0
    flip_steps = 0
    t = phase
    for step in range(num_steps):
        j = pos_plan[t]
        refs_at = t * n_ranks
        # Step-start checks, before the step changes any state: the
        # counter kinds' state limits, then room for the step's flip
        # events. A REF issues at most one MINT/PARA mitigation per unit.
        mits = 0
        for rank_i in range(n_ranks):
            rank = step_ranks[rank_i]
            refs = pos_refs[refs_at + rank_i]
            for bank in range(num_banks):
                unit = rank * num_banks + bank
                if kind[unit] == 1 or kind[unit] == 2:
                    mits += refs
                if kind[unit] != 3:
                    continue
                pending = q_len[unit] + c_tcap[j * units + unit]
                # PRAC: each REF's victim refreshes can alert twice per
                # mitigation, and those alerts wait for the next REF.
                grow = 1
                if c_cap[unit] < 0:
                    for _ in range(1, refs):
                        grow *= 2
                if 3 * pending * grow > q_cap:
                    return step, STOP_STATE, n_ev, flip_steps
                if c_cap[unit] >= 0:
                    absent = 0
                    for i in range(uniq_off[j * units + unit],
                                   uniq_off[j * units + unit + 1]):
                        if c_cnt[uniq_slot[i]] < 0:
                            absent += 1
                    if c_live[unit] + absent > c_cap[unit]:
                        return step, STOP_STATE, n_ev, flip_steps
                    issued = pending
                else:
                    # Every row a queued alert's cascade can count over
                    # this step's REFs must be a slot.
                    for i in range(q_len[unit]):
                        s = q_buf[unit * q_cap + i]
                        for _ in range(refs):
                            row = slot_rows[s]
                            if row < 1 or row > num_rows:
                                break
                            s = slot_prev[s]
                            if s < 0:
                                return step, STOP_STATE, n_ev, flip_steps
                        s = q_buf[unit * q_cap + i]
                        for _ in range(refs):
                            row = slot_rows[s]
                            if row < -1 or row + 1 >= num_rows:
                                break
                            s = slot_next[s]
                            if s < 0:
                                return step, STOP_STATE, n_ev, flip_steps
                    issued = pending * (2 * grow - 1)
                if refs > 0:
                    mits += issued
        # Each flip is a distinct cell: at most one per victim of the
        # plan, and four per mitigation (a victim pair's neighbours).
        grown = victim_off[(j + 1) * units] - victim_off[j * units]
        if n_ev + grown + 4 * mits > ev_cap:
            return step, STOP_FULL, n_ev, flip_steps
        # Tracker observation. MINT captures the SAN-th activation since
        # its last REF (CAN carries across REF-less steps); PARA and the
        # counter tables replay the raw acts in order.
        for rank_i in range(n_ranks):
            rank = step_ranks[rank_i]
            for bank in range(num_banks):
                unit = rank * num_banks + bank
                k = kind[unit]
                lo = acts_off[j * units + unit]
                n = acts_off[j * units + unit + 1] - lo
                if k == 1:
                    at = m_san[unit] - m_can[unit] - 1
                    if m_san[unit] >= 1 and at >= 0 and at < n:
                        m_sar[unit] = acts[lo + at]
                        m_skey[unit] = act_skey[lo + at]
                        m_valid[unit] = 1
                        m_sel[unit] += 1
                    m_can[unit] += n
                elif k == 2:
                    for i in range(lo, lo + n):
                        if p_draws[p_draw_off[unit]] < p_prob[unit]:
                            if m_valid[unit] == 1:
                                p_over[unit] += 1
                            m_sar[unit] = acts[i]
                            m_skey[unit] = act_skey[i]
                            m_valid[unit] = 1
                            m_sel[unit] += 1
                        p_draw_off[unit] += 1
                elif k == 3:
                    for i in range(lo, lo + n):
                        _count(unit, act_slot[i], c_cnt, c_live, c_thr,
                               c_cap, c_trips, q_buf, q_len, q_cap)
        # Unmitigated-run counters.
        for i in range(since_off[j], since_off[j + 1]):
            key = since_keys[i]
            if key >= 0:
                total = since[key] + since_counts[i]
                since[key] = total
                if total > speak[key]:
                    speak[key] = total
            else:
                key = -1 - key
                total = o_since[key] + since_counts[i]
                o_since[key] = total
                if total > o_speak[key]:
                    o_speak[key] = total
        # The activation scatter, unit by unit: reset activated rows,
        # add victim disturbance, track peaks. A unit where some victim
        # would reach trh on a cell not yet flipped replays its acts in
        # act order instead, so each flip records its crossing value.
        replayed = 0
        for rank_i in range(n_ranks):
            rank = step_ranks[rank_i]
            for bank in range(num_banks):
                unit = rank * num_banks + bank
                at = j * units + unit
                crossing = 0
                for i in range(victim_off[at], victim_off[at + 1]):
                    key = victims[i]
                    if dist[key] + delta[i] >= trh and flipped[key] == 0:
                        crossing = 1
                        break
                if crossing == 0:
                    for i in range(reset_off[at], reset_off[at + 1]):
                        dist[reset_keys[i]] = 0.0
                    for i in range(victim_off[at], victim_off[at + 1]):
                        key = victims[i]
                        value = dist[key] + delta[i]
                        dist[key] = value
                        if value > peak[key]:
                            peak[key] = value
                    continue
                replayed = 1
                base = unit * num_rows
                for i in range(acts_off[at], acts_off[at + 1]):
                    row = acts[i]
                    if row >= 0 and row < num_rows:
                        dist[base + row] = 0.0
                    if row >= 1 and row <= num_rows:
                        n_ev = _bump(dist, peak, flipped, base + row - 1,
                                     trh, ev, ev_dist, n_ev, step)
                    if row >= -1 and row + 1 < num_rows:
                        n_ev = _bump(dist, peak, flipped, base + row + 1,
                                     trh, ev, ev_dist, n_ev, step)
        flip_steps += replayed
        # The step's REFs, rank by rank (ranks are independent): each
        # sweeps the rank's next auto-refresh slice, then lets every
        # unit mitigate.
        for rank_i in range(n_ranks):
            rank = step_ranks[rank_i]
            for _ in range(pos_refs[refs_at + rank_i]):
                index = ref_counts[rank] % refw
                ref_counts[rank] += 1
                lo = index * slice_rows
                if index == refw - 1:
                    hi = num_rows
                else:
                    hi = lo + slice_rows
                    if hi > num_rows:
                        hi = num_rows
                # Rows outside a unit's envelope are zero already.
                for bank in range(num_banks):
                    unit = rank * num_banks + bank
                    base = unit * num_rows
                    start = lo
                    stop = hi
                    if start < env[2 * unit]:
                        start = env[2 * unit]
                    if stop > env[2 * unit + 1]:
                        stop = env[2 * unit + 1]
                    if stop > start:
                        dist[base + start : base + stop] = 0.0
                for bank in range(num_banks):
                    unit = rank * num_banks + bank
                    k = kind[unit]
                    if k == 1:
                        if m_valid[unit] == 1:
                            d = m_dist[unit]
                            n_ev = _mitigate(dist, peak, flipped, since,
                                             o_since, env, unit, num_rows,
                                             m_sar[unit], m_skey[unit], d,
                                             trh, ev, ev_dist, n_ev, step)
                            mitig[unit] += 1
                            if d > 1:
                                transmit[unit] += 1
                        # CAN returns to 0 and the next SAN is drawn
                        # (pre-extracted; 0 only with the transitive
                        # slot, which keeps the SAR for the next REF).
                        m_can[unit] = 0
                        draw = draws[m_draw_off[unit]]
                        m_draw_off[unit] += 1
                        if draw == 0:
                            if m_valid[unit] == 1:
                                m_dist[unit] += 1
                            m_san[unit] = -1
                        else:
                            m_valid[unit] = 0
                            m_sar[unit] = 0
                            m_dist[unit] = 1
                            m_san[unit] = draw
                    elif k == 2:
                        if m_valid[unit] == 1:
                            n_ev = _mitigate(dist, peak, flipped, since,
                                             o_since, env, unit, num_rows,
                                             m_sar[unit], m_skey[unit], 1,
                                             trh, ev, ev_dist, n_ev, step)
                            mitig[unit] += 1
                            m_valid[unit] = 0
                            m_sar[unit] = 0
                    elif k == 3:
                        first = unit * q_cap
                        queued = q_len[unit]
                        for i in range(queued):
                            s = q_buf[first + i]
                            row = slot_rows[s]
                            n_ev = _mitigate(dist, peak, flipped, since,
                                             o_since, env, unit, num_rows,
                                             row, slot_skey[s], 1, trh, ev,
                                             ev_dist, n_ev, step)
                            mitig[unit] += 1
                            if c_cap[unit] < 0:
                                # PRAC counts each refresh activation;
                                # its alerts wait for the next REF.
                                if row >= 1 and row <= num_rows:
                                    _count(unit, slot_prev[s], c_cnt, c_live,
                                           c_thr, c_cap, c_trips, q_buf,
                                           q_len, q_cap)
                                if row >= -1 and row + 1 < num_rows:
                                    _count(unit, slot_next[s], c_cnt, c_live,
                                           c_thr, c_cap, c_trips, q_buf,
                                           q_len, q_cap)
                        rest = q_len[unit] - queued
                        for i in range(rest):
                            q_buf[first + i] = q_buf[first + queued + i]
                        q_len[unit] = rest
        t += 1
        if t == period:
            t = 0
    return num_steps, STOP_DONE, n_ev, flip_steps


#: The interpreted reference march (the ``interpreted`` provider).
march_steps = _march_steps_impl

#: The march's parameter names in call order, shared by every provider
#: (the driver passes each argument by its name).
MARCH_PARAMS = tuple(inspect.signature(_march_steps_impl).parameters)
