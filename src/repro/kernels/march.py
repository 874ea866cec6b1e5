"""The multi-step channel march, in flat-array form.

One call executes up to ``num_steps`` consecutive tREFIs of a packed
kernel plan — the steady state where every rank replays the same
cached interval — without returning to the engine between steps. The
body is written against flat ``int64``/``float64`` arrays only (the
plan lowered by the engine driver), in plain loops that map one to one
onto ``_march.c``. This interpreted body is the reference the C march
(:mod:`repro.kernels.cext`) is tested against.

Semantics mirror ``_FusedChannelKernel._step`` exactly for the shapes
the driver admits (see ``_FusedChannelKernel._compiled_march``): no
order-sensitive exact replays, no out-of-range activations, every
tracker a MINT or a null tracker, one REF per active rank per step.
MINT's per-REF random draw is pre-extracted into ``draws``
(:mod:`repro.kernels.mt`), so the march itself is deterministic.

Flip safety is by construction rather than per-write checks: a step
begins only while ``bound + step_gain < trh``, where ``bound`` is a
running upper bound on every disturbance cell and ``step_gain`` the
largest single-step increase any cell can see (max activation delta
plus the worst mitigation bump). The march returns early the moment
the next step could cross the threshold, and the driver replays the
remainder through the per-step Python path, which records flip events
in exact order.
"""

from __future__ import annotations

__all__ = ["march_steps"]


def _march_steps_impl(
    dist,  # float64[units * num_rows] packed disturbance
    peak,  # float64[units * num_rows] running per-row peak
    since,  # int64[units * num_rows] unmitigated-run counters
    speak,  # int64[units * num_rows] unmitigated-run peaks
    mitig,  # int64[units] per-march mitigation tally (scratch, zeroed)
    transmit,  # int64[units] per-march transitive tally (scratch, zeroed)
    reset_keys,  # int64[:] activated in-range rows (self-reset)
    victims,  # int64[:] unique victim keys of the activation scatter
    delta,  # float64[:] per-victim summed disturbance
    since_keys,  # int64[:] activated in-range rows (counter scatter)
    since_counts,  # int64[:] per-row activation counts
    acts,  # int64[:] per-unit raw act rows, concatenated
    acts_off,  # int64[units + 1] unit u's acts = acts[off[u]:off[u+1]]
    step_ranks,  # int64[:] ranks active this step (ascending)
    num_banks,
    num_rows,
    ref_counts,  # int64[num_ranks] rolling auto-refresh counters
    refw,
    slice_rows,
    kind,  # int64[units] 0 = null tracker, 1 = MINT
    m_san,  # int64[units] selected activation number (-1 = none)
    m_sar,  # int64[units] selected address register
    m_valid,  # int64[units] SAR valid flag
    m_dist,  # int64[units] pending mitigation distance
    m_sel,  # int64[units] selections tally
    m_draw_off,  # int64[units] unit u's draws = draws[off[u] : off[u]+K]
    draws,  # int64[:] pre-extracted per-REF randint values
    num_steps,
    trh,
    step_gain,
    bound,
):
    n_reset = reset_keys.shape[0]
    n_victims = victims.shape[0]
    n_since = since_keys.shape[0]
    n_ranks = step_ranks.shape[0]
    for step in range(num_steps):
        if bound + step_gain >= trh:
            return step, bound
        # MINT captures: CAN is 0 at every step start (each step ends
        # with a REF), so the SAN-th activation is acts[san - 1].
        for rank_i in range(n_ranks):
            rank = step_ranks[rank_i]
            for bank in range(num_banks):
                unit = rank * num_banks + bank
                if kind[unit] == 1:
                    san = m_san[unit]
                    if san >= 1 and san <= acts_off[unit + 1] - acts_off[unit]:
                        m_sar[unit] = acts[acts_off[unit] + san - 1]
                        m_valid[unit] = 1
                        m_sel[unit] += 1
        # Unmitigated-run counters.
        for i in range(n_since):
            key = since_keys[i]
            total = since[key] + since_counts[i]
            since[key] = total
            if total > speak[key]:
                speak[key] = total
        # The activation scatter: reset activated rows, add victim
        # disturbance, track peaks (flip-free under the bound guard).
        for i in range(n_reset):
            dist[reset_keys[i]] = 0.0
        for i in range(n_victims):
            key = victims[i]
            value = dist[key] + delta[i]
            dist[key] = value
            if value > peak[key]:
                peak[key] = value
            if value > bound:
                bound = value
        # REF: rolling auto-refresh slice per active rank.
        for rank_i in range(n_ranks):
            rank = step_ranks[rank_i]
            index = ref_counts[rank] % refw
            ref_counts[rank] += 1
            lo = index * slice_rows
            if index == refw - 1:
                hi = num_rows
            else:
                hi = lo + slice_rows
                if hi > num_rows:
                    hi = num_rows
            if hi > lo:
                for bank in range(num_banks):
                    base = (rank * num_banks + bank) * num_rows
                    dist[base + lo : base + hi] = 0.0
        # REF: per-unit MINT mitigation, then the pre-drawn SAN draw.
        for rank_i in range(n_ranks):
            rank = step_ranks[rank_i]
            for bank in range(num_banks):
                unit = rank * num_banks + bank
                if kind[unit] != 1:
                    continue
                base = unit * num_rows
                if m_valid[unit] == 1:
                    row = m_sar[unit]
                    d = m_dist[unit]
                    mitig[unit] += 1
                    if d > 1:
                        transmit[unit] += 1
                    # Victim refresh at distance d: refresh row +/- d,
                    # each refresh activation bumps its own neighbours
                    # (the transitive channel), then the refreshed pair
                    # is restored — same op order as DramDevice.mitigate
                    # on the radius-1 dense model.
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
                                    value = dist[base + neighbour] + 1.0
                                    dist[base + neighbour] = value
                                    if value > peak[base + neighbour]:
                                        peak[base + neighbour] = value
                                    if value > bound:
                                        bound = value
                    for off in (-d, d):
                        victim = row + off
                        if 0 <= victim < num_rows:
                            dist[base + victim] = 0.0
                    # Unmitigated-run resets: the aggressor and every
                    # refreshed victim.
                    since[base + row] = 0
                    for off in (-d, d):
                        victim = row + off
                        if 0 <= victim < num_rows:
                            since[base + victim] = 0
                # CAN returns to 0 and the next interval's SAN is drawn
                # (pre-extracted; 0 only with the transitive slot).
                draw = draws[m_draw_off[unit] + step]
                if draw == 0:
                    if m_valid[unit] == 1:
                        m_dist[unit] += 1
                    m_san[unit] = -1
                else:
                    m_valid[unit] = 0
                    m_sar[unit] = 0
                    m_dist[unit] = 1
                    m_san[unit] = draw
    return num_steps, bound


#: The interpreted reference march (the ``interpreted`` provider).
march_steps = _march_steps_impl
