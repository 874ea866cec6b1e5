/* The multi-step channel march.
 *
 * Compiled on demand by repro/kernels/cext.py (any C compiler on PATH)
 * and loaded through ctypes; this is the compiled provider. The
 * engine's bit-identity pins run it against the scalar reference
 * engine, and march.py states its semantics.
 *
 * One call marches a window of lowered plans as written: step s runs
 * plan pos_plan[phase + s], and each step rank's refresh scheduler
 * ticks as RefreshScheduler.tick does, postponing while its plan wants
 * it to (want) and max_postponed allows, else issuing the owed REFs
 * plus this one. MINT's CAN carries across REF-less steps, MINT and
 * PARA draw from their units' Mersenne Twister states (one randint per
 * REF, one random() per act), and a counter queue drains at every REF.
 *
 * Flips are recorded as the per-step path records them: a unit with
 * adjacent aggressors (exact), or whose aggregated activation scatter
 * would take a victim to trh on a cell not yet flipped, replays its
 * acts in act order, and every victim-refresh bump checks for a flip.
 * Each event lands in ev (cell, step offset) and ev_dist (disturbance).
 *
 * env holds each unit's disturbance envelope [lo, hi): every
 * mitigation widens it over its bumps, and the auto-refresh sweep
 * zeroes only the part of its slice inside it.
 *
 * Tracker kinds: 0 null, 1 MINT, 2 InDRAM-PARA (overwrite), 3 a
 * per-row counter table (Graphene, or PRAC when c_cap < 0); see
 * march.py for the kinds. All arrays are caller-owned, contiguous, and
 * int64, double, uint8 (the flipped bitmap) or uint32 (the twister
 * states). Returns the number of fully executed steps (< num_steps
 * when the next step needs state the slots/queue cannot hold, or the
 * event buffer might not hold its flips), and writes the stop reason
 * (0 done, 1 state, 2 event buffer), the event count and the number
 * of steps whose act-order replays recorded a flip through out[0..2].
 */

#include <stdint.h>

#if defined(_WIN32)
#define MARCH_API __declspec(dllexport)
#else
#define MARCH_API
#endif

/* The Mersenne Twister (MT19937) exactly as CPython's random.Random
 * runs it. A stream's state is MT_N words and, in word MT_N, its
 * position in the block (random.Random.getstate()'s layout); the block
 * turns over lazily, only when a word is wanted past its end, so a
 * stream that ends on a block boundary keeps position MT_N. used
 * counts the words drawn. */
#define MT_N 624
#define MT_M 397

static uint32_t genrand(uint32_t *mt, int64_t *used)
{
    if (mt[MT_N] >= MT_N) {
        int kk;
        uint32_t y;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ ((y & 1U) * 0x9908b0dfU);
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M - MT_N] ^ (y >> 1) ^
                     ((y & 1U) * 0x9908b0dfU);
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ ((y & 1U) * 0x9908b0dfU);
        mt[MT_N] = 0;
    }
    uint32_t y = mt[mt[MT_N]];
    mt[MT_N] += 1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    *used += 1;
    return y;
}

/* randint(low, low + span - 1) is low + _randbelow(span): k =
 * span.bit_length() top bits of a word (getrandbits(k)), redrawn until
 * below span; 0 < span < 2**32. */
static int64_t randbelow(uint32_t *mt, int64_t *used, int64_t span)
{
    int k = 1;
    while ((span >> k) != 0)
        k++;
    uint32_t r = genrand(mt, used) >> (32 - k);
    while ((int64_t)r >= span)
        r = genrand(mt, used) >> (32 - k);
    return (int64_t)r;
}

/* random(): (a >> 5) * 2**26 + (b >> 6) of two words, over 2**53. */
static double random53(uint32_t *mt, int64_t *used)
{
    uint32_t a = genrand(mt, used) >> 5;
    uint32_t b = genrand(mt, used) >> 6;
    return ((double)a * 67108864.0 + (double)b) *
           (1.0 / 9007199254740992.0);
}

/* One unit of disturbance on cell key; its first crossing of trh flips
 * the cell and records an event. Returns the updated event count. */
static int64_t bump(double *dist, double *peak, uint8_t *flipped,
                    int64_t key, double trh, int64_t *ev, double *ev_dist,
                    int64_t n_ev, int64_t step)
{
    double value = dist[key] + 1.0;
    dist[key] = value;
    if (value > peak[key])
        peak[key] = value;
    if (value >= trh && flipped[key] == 0) {
        flipped[key] = 1;
        ev[2 * n_ev] = key;
        ev[2 * n_ev + 1] = step;
        ev_dist[n_ev] = value;
        n_ev += 1;
    }
    return n_ev;
}

/* Victim refresh at distance d around row of one unit: refresh row +- d,
 * each refresh activation bumps its own neighbours (the transitive
 * channel), then the refreshed pair is restored -- the op order of
 * DramDevice.mitigate on the radius-1 dense model. The unit's
 * disturbance envelope first widens over the bumps' reach,
 * row +- (d + 1); skey is the aggressor's unmitigated-run counter key.
 * Returns the updated event count. */
static int64_t mitigate(double *dist, double *peak, uint8_t *flipped,
                        int64_t *since, int64_t *o_since, int64_t *env,
                        int64_t unit, int64_t num_rows, int64_t row,
                        int64_t skey, int64_t d, double trh, int64_t *ev,
                        double *ev_dist, int64_t n_ev, int64_t step)
{
    int64_t base = unit * num_rows;
    int64_t lo = row - d - 1;
    int64_t hi = row + d + 2;
    if (lo < 0)
        lo = 0;
    if (hi > num_rows)
        hi = num_rows;
    if (lo < hi) {
        if (lo < env[2 * unit])
            env[2 * unit] = lo;
        if (hi > env[2 * unit + 1])
            env[2 * unit + 1] = hi;
    }
    for (int64_t pass = 0; pass < 2; pass++) {
        int64_t victim = row + (pass == 0 ? -d : d);
        if (victim >= 0 && victim < num_rows)
            dist[base + victim] = 0.0;
    }
    for (int64_t pass = 0; pass < 2; pass++) {
        int64_t victim = row + (pass == 0 ? -d : d);
        if (victim < 0 || victim >= num_rows)
            continue;
        dist[base + victim] = 0.0;
        for (int64_t np = 0; np < 2; np++) {
            int64_t neighbour = victim + (np == 0 ? -1 : 1);
            if (neighbour >= 0 && neighbour < num_rows)
                n_ev = bump(dist, peak, flipped, base + neighbour, trh, ev,
                            ev_dist, n_ev, step);
        }
    }
    for (int64_t pass = 0; pass < 2; pass++) {
        int64_t victim = row + (pass == 0 ? -d : d);
        if (victim >= 0 && victim < num_rows)
            dist[base + victim] = 0.0;
    }
    if (skey >= 0)
        since[skey] = 0;
    else
        o_since[-1 - skey] = 0;
    for (int64_t pass = 0; pass < 2; pass++) {
        int64_t victim = row + (pass == 0 ? -d : d);
        if (victim >= 0 && victim < num_rows)
            since[base + victim] = 0;
    }
    return n_ev;
}

/* One activation of counter slot s; a trip queues the slot. */
static void count(int64_t unit, int64_t s, int64_t *c_cnt, int64_t *c_live,
                  const int64_t *c_thr, const int64_t *c_cap,
                  int64_t *c_trips, int64_t *q_buf, int64_t *q_len,
                  int64_t q_cap)
{
    int64_t v = c_cnt[s];
    if (v < 0) {
        v = 0;
        c_live[unit] += 1;
    }
    v += 1;
    if (v >= c_thr[unit]) {
        q_buf[unit * q_cap + q_len[unit]] = s;
        q_len[unit] += 1;
        c_trips[unit] += 1;
        if (c_cap[unit] < 0) {
            v = 0;
        } else {
            v = -1;
            c_live[unit] -= 1;
        }
    }
    c_cnt[s] = v;
}

/* One tick of a rank's refresh scheduler, RefreshScheduler.tick line
 * for line: the REFs this tREFI issues (0 while it postpones). */
static int64_t tick(int64_t want, int64_t *postponed, int64_t max_postponed)
{
    if (want != 0 && *postponed < max_postponed) {
        *postponed += 1;
        return 0;
    }
    int64_t count = *postponed + 1;
    *postponed = 0;
    return count;
}

/* A march's return: the steps it executed, with the stop reason, the
 * events in the buffer and the replayed flip steps through out. */
static int64_t finish(int64_t *out, int64_t steps, int64_t stop,
                      int64_t n_ev, int64_t flip_steps)
{
    out[0] = stop;
    out[1] = n_ev;
    out[2] = flip_steps;
    return steps;
}

/* The parameters. J plans; unit u = rank * num_banks + bank, of
 * num_rows rows each (unsized per-unit arrays are [units]); S counter
 * slots; O out-of-range activated rows.
 *   dist, peak        [units * num_rows] disturbance, running peak
 *   flipped           [units * num_rows] flipped bitmap
 *   since, speak      [units * num_rows] unmitigated-run counters, peaks
 *   env               [2 * units] per-unit disturbance envelope [lo, hi)
 *   o_since, o_speak  [O] the out-of-range rows' counters and peaks
 *   mitig, transmit   [units] per-march mitigation and transitive
 *                     tallies (scratch, zeroed)
 *   reset_keys        activated in-range rows (self-reset); plan j
 *                     unit u's at reset_off[j * units + u]
 *   victims, delta    unique victim keys of the activation scatter and
 *                     their summed disturbance, at victim_off[j * units + u]
 *   exact             [J * units] 1 where plan j's unit u has adjacent
 *                     aggressors: it always replays its acts in act order
 *   since_keys        activated rows' counters: k >= 0 is since[k], k < 0
 *                     the out-of-range row o_since[-1 - k]; with
 *                     since_counts (activations), at since_off[j]
 *   acts, act_skey    raw act rows per (plan, unit) and their counter
 *                     keys, at acts_off[j * units + u]
 *   step_ranks        [n_ranks] ranks active in every step (ascending)
 *   ref_counts        [num_ranks] rolling auto-refresh counters; refw
 *                     slices of slice_rows rows
 *   postponed         [num_ranks] REFs each rank's scheduler owes, at most
 *                     max_postponed
 *   pos_plan          the window: the plan of each step
 *   want              [J * n_ranks] 1 where plan j's interval on step
 *                     rank i asks to postpone its REF
 *   phase             the window position of the first step
 *   kind              [units] 0 null, 1 MINT, 2 PARA, 3 counter table
 *   m_can, m_san      MINT current / selected activation number (-1 none)
 *   m_sar, m_skey     MINT/PARA selected address register, its counter key
 *   m_valid, m_dist   MINT/PARA SAR valid flag, MINT pending distance
 *   m_sel             MINT selections / PARA samples tally
 *   m_low, m_span     MINT's per-REF randint(m_low, m_low + m_span - 1)
 *   p_prob, p_over    PARA sampling probability, overwrites tally
 *   mt                [units * (MT_N + 1)] each drawing unit's twister
 *                     state (see genrand); mt_used [units] the words
 *                     each drew (scratch, zeroed)
 *   c_thr, c_cap      counter trip threshold, Graphene capacity (< 0 PRAC)
 *   c_live, c_trips   live table entries, trips tally
 *   c_tcap            [J * units] most trips plan j's acts cause on unit u
 *   slot_rows         [S] row of each counter slot; slot_prev/slot_next
 *                     the slot of row -/+ 1 (-1 = not a slot), slot_skey
 *                     its counter key, c_cnt its count (-1 = no entry)
 *   act_slot          slot of each raw act (parallel to acts)
 *   uniq_slot         distinct act slots, at uniq_off[j * units + u]
 *   q_buf, q_len      [units * q_cap] queued trips (slots), queue lengths
 *   ev, ev_dist       [2 * ev_cap] flip events (cell, step offset) and
 *                     [ev_cap] their disturbance
 */
MARCH_API int64_t repro_march_steps(
    double *dist, double *peak, uint8_t *flipped, int64_t *since,
    int64_t *speak, int64_t *env, int64_t *o_since, int64_t *o_speak,
    int64_t *mitig, int64_t *transmit,
    const int64_t *reset_keys, const int64_t *reset_off,
    const int64_t *victims, const double *delta, const int64_t *victim_off,
    const int64_t *exact,
    const int64_t *since_keys, const int64_t *since_counts,
    const int64_t *since_off,
    const int64_t *acts, const int64_t *act_skey, const int64_t *acts_off,
    const int64_t *step_ranks, int64_t n_ranks,
    int64_t num_banks, int64_t num_rows,
    int64_t *ref_counts, int64_t refw, int64_t slice_rows,
    int64_t *postponed, int64_t max_postponed,
    const int64_t *pos_plan, const int64_t *want, int64_t phase,
    const int64_t *kind, int64_t units,
    int64_t *m_can, int64_t *m_san, int64_t *m_sar, int64_t *m_skey,
    int64_t *m_valid, int64_t *m_dist, int64_t *m_sel,
    const int64_t *m_low, const int64_t *m_span,
    const double *p_prob, int64_t *p_over,
    uint32_t *mt, int64_t *mt_used,
    const int64_t *c_thr, const int64_t *c_cap, int64_t *c_live,
    int64_t *c_trips, const int64_t *c_tcap,
    const int64_t *slot_rows, const int64_t *slot_prev,
    const int64_t *slot_next, const int64_t *slot_skey, int64_t *c_cnt,
    const int64_t *act_slot, const int64_t *uniq_off,
    const int64_t *uniq_slot,
    int64_t *q_buf, int64_t *q_len, int64_t q_cap,
    int64_t *ev, double *ev_dist, int64_t ev_cap,
    int64_t num_steps, double trh, int64_t *out)
{
    int64_t n_ev = 0;
    int64_t flip_steps = 0;
    for (int64_t step = 0; step < num_steps; step++) {
        int64_t j = pos_plan[phase + step];
        /* Step-start checks: counter-kind state limits, event room. The
         * ticks run on copies: a step stopped here commits nothing. */
        int64_t mits = 0;
        for (int64_t rank_i = 0; rank_i < n_ranks; rank_i++) {
            int64_t rank = step_ranks[rank_i];
            int64_t owed = postponed[rank];
            int64_t refs = tick(want[j * n_ranks + rank_i], &owed,
                                max_postponed);
            for (int64_t bank = 0; bank < num_banks; bank++) {
                int64_t unit = rank * num_banks + bank;
                if (kind[unit] == 1 || kind[unit] == 2)
                    mits += refs;
                if (kind[unit] != 3)
                    continue;
                int64_t pending = q_len[unit] + c_tcap[j * units + unit];
                int64_t grow = 1;
                if (c_cap[unit] < 0) {
                    /* Saturates past q_cap: any pending trip stops. */
                    for (int64_t r = 1; r < refs && grow <= q_cap; r++)
                        grow *= 2;
                }
                if (3 * pending * grow > q_cap)
                    return finish(out, step, 1, n_ev, flip_steps);
                int64_t issued;
                if (c_cap[unit] >= 0) {
                    int64_t absent = 0;
                    for (int64_t i = uniq_off[j * units + unit];
                         i < uniq_off[j * units + unit + 1]; i++) {
                        if (c_cnt[uniq_slot[i]] < 0)
                            absent += 1;
                    }
                    if (c_live[unit] + absent > c_cap[unit])
                        return finish(out, step, 1, n_ev, flip_steps);
                    issued = pending;
                } else {
                    for (int64_t i = 0; i < q_len[unit]; i++) {
                        int64_t s = q_buf[unit * q_cap + i];
                        for (int64_t r = 0; r < refs; r++) {
                            int64_t row = slot_rows[s];
                            if (row < 1 || row > num_rows)
                                break;
                            s = slot_prev[s];
                            if (s < 0)
                                return finish(out, step, 1, n_ev,
                                              flip_steps);
                        }
                        s = q_buf[unit * q_cap + i];
                        for (int64_t r = 0; r < refs; r++) {
                            int64_t row = slot_rows[s];
                            if (row < -1 || row + 1 >= num_rows)
                                break;
                            s = slot_next[s];
                            if (s < 0)
                                return finish(out, step, 1, n_ev,
                                              flip_steps);
                        }
                    }
                    issued = pending * (2 * grow - 1);
                }
                if (refs > 0)
                    mits += issued;
            }
        }
        int64_t grown = victim_off[(j + 1) * units] - victim_off[j * units];
        if (n_ev + grown + 4 * mits > ev_cap)
            return finish(out, step, 2, n_ev, flip_steps);
        /* Tracker observation (MINT capture, PARA / counter replay). */
        for (int64_t rank_i = 0; rank_i < n_ranks; rank_i++) {
            int64_t rank = step_ranks[rank_i];
            for (int64_t bank = 0; bank < num_banks; bank++) {
                int64_t unit = rank * num_banks + bank;
                int64_t k = kind[unit];
                int64_t lo = acts_off[j * units + unit];
                int64_t n = acts_off[j * units + unit + 1] - lo;
                if (k == 1) {
                    int64_t at = m_san[unit] - m_can[unit] - 1;
                    if (m_san[unit] >= 1 && at >= 0 && at < n) {
                        m_sar[unit] = acts[lo + at];
                        m_skey[unit] = act_skey[lo + at];
                        m_valid[unit] = 1;
                        m_sel[unit] += 1;
                    }
                    m_can[unit] += n;
                } else if (k == 2) {
                    uint32_t *state = mt + unit * (MT_N + 1);
                    for (int64_t i = lo; i < lo + n; i++) {
                        if (random53(state, &mt_used[unit]) <
                            p_prob[unit]) {
                            if (m_valid[unit] == 1)
                                p_over[unit] += 1;
                            m_sar[unit] = acts[i];
                            m_skey[unit] = act_skey[i];
                            m_valid[unit] = 1;
                            m_sel[unit] += 1;
                        }
                    }
                } else if (k == 3) {
                    for (int64_t i = lo; i < lo + n; i++)
                        count(unit, act_slot[i], c_cnt, c_live, c_thr,
                              c_cap, c_trips, q_buf, q_len, q_cap);
                }
            }
        }
        /* Unmitigated-run counters. */
        for (int64_t i = since_off[j]; i < since_off[j + 1]; i++) {
            int64_t key = since_keys[i];
            if (key >= 0) {
                int64_t total = since[key] + since_counts[i];
                since[key] = total;
                if (total > speak[key])
                    speak[key] = total;
            } else {
                key = -1 - key;
                int64_t total = o_since[key] + since_counts[i];
                o_since[key] = total;
                if (total > o_speak[key])
                    o_speak[key] = total;
            }
        }
        /* Activation scatter per unit: reset, add, peak; an exact unit
         * or one with a crossing replays its acts in act order. */
        int64_t step_ev = n_ev;
        for (int64_t rank_i = 0; rank_i < n_ranks; rank_i++) {
            int64_t rank = step_ranks[rank_i];
            for (int64_t bank = 0; bank < num_banks; bank++) {
                int64_t unit = rank * num_banks + bank;
                int64_t at = j * units + unit;
                int64_t crossing = exact[at];
                for (int64_t i = victim_off[at];
                     i < victim_off[at + 1] && crossing == 0; i++) {
                    int64_t key = victims[i];
                    crossing = dist[key] + delta[i] >= trh && flipped[key] == 0;
                }
                if (crossing == 0) {
                    for (int64_t i = reset_off[at]; i < reset_off[at + 1]; i++)
                        dist[reset_keys[i]] = 0.0;
                    for (int64_t i = victim_off[at]; i < victim_off[at + 1];
                         i++) {
                        int64_t key = victims[i];
                        double value = dist[key] + delta[i];
                        dist[key] = value;
                        if (value > peak[key])
                            peak[key] = value;
                    }
                    continue;
                }
                int64_t base = unit * num_rows;
                for (int64_t i = acts_off[at]; i < acts_off[at + 1]; i++) {
                    int64_t row = acts[i];
                    if (row >= 0 && row < num_rows)
                        dist[base + row] = 0.0;
                    if (row >= 1 && row <= num_rows)
                        n_ev = bump(dist, peak, flipped, base + row - 1, trh,
                                    ev, ev_dist, n_ev, step);
                    if (row >= -1 && row + 1 < num_rows)
                        n_ev = bump(dist, peak, flipped, base + row + 1, trh,
                                    ev, ev_dist, n_ev, step);
                }
            }
        }
        flip_steps += n_ev > step_ev;
        /* The step's REFs, rank by rank: auto-refresh slice, then each
         * unit's mitigations. */
        for (int64_t rank_i = 0; rank_i < n_ranks; rank_i++) {
            int64_t rank = step_ranks[rank_i];
            int64_t refs = tick(want[j * n_ranks + rank_i], &postponed[rank],
                                max_postponed);
            for (int64_t r = 0; r < refs; r++) {
                int64_t index = ref_counts[rank] % refw;
                ref_counts[rank] += 1;
                int64_t lo = index * slice_rows;
                int64_t hi;
                if (index == refw - 1) {
                    hi = num_rows;
                } else {
                    hi = lo + slice_rows;
                    if (hi > num_rows)
                        hi = num_rows;
                }
                /* Rows outside a unit's envelope are zero already. */
                for (int64_t bank = 0; bank < num_banks; bank++) {
                    int64_t unit = rank * num_banks + bank;
                    double *base = dist + unit * num_rows;
                    int64_t start = lo;
                    int64_t stop = hi;
                    if (start < env[2 * unit])
                        start = env[2 * unit];
                    if (stop > env[2 * unit + 1])
                        stop = env[2 * unit + 1];
                    for (int64_t row = start; row < stop; row++)
                        base[row] = 0.0;
                }
                for (int64_t bank = 0; bank < num_banks; bank++) {
                    int64_t unit = rank * num_banks + bank;
                    int64_t k = kind[unit];
                    if (k == 1) {
                        if (m_valid[unit] == 1) {
                            int64_t d = m_dist[unit];
                            n_ev = mitigate(dist, peak, flipped, since,
                                            o_since, env, unit, num_rows,
                                            m_sar[unit], m_skey[unit], d,
                                            trh, ev, ev_dist, n_ev, step);
                            mitig[unit] += 1;
                            if (d > 1)
                                transmit[unit] += 1;
                        }
                        m_can[unit] = 0;
                        int64_t draw = m_low[unit] +
                                       randbelow(mt + unit * (MT_N + 1),
                                                 &mt_used[unit],
                                                 m_span[unit]);
                        if (draw == 0) {
                            if (m_valid[unit] == 1)
                                m_dist[unit] += 1;
                            m_san[unit] = -1;
                        } else {
                            m_valid[unit] = 0;
                            m_sar[unit] = 0;
                            m_dist[unit] = 1;
                            m_san[unit] = draw;
                        }
                    } else if (k == 2) {
                        if (m_valid[unit] == 1) {
                            n_ev = mitigate(dist, peak, flipped, since,
                                            o_since, env, unit, num_rows,
                                            m_sar[unit], m_skey[unit], 1,
                                            trh, ev, ev_dist, n_ev, step);
                            mitig[unit] += 1;
                            m_valid[unit] = 0;
                            m_sar[unit] = 0;
                        }
                    } else if (k == 3) {
                        int64_t first = unit * q_cap;
                        int64_t queued = q_len[unit];
                        for (int64_t i = 0; i < queued; i++) {
                            int64_t s = q_buf[first + i];
                            int64_t row = slot_rows[s];
                            n_ev = mitigate(dist, peak, flipped, since,
                                            o_since, env, unit, num_rows,
                                            row, slot_skey[s], 1, trh, ev,
                                            ev_dist, n_ev, step);
                            mitig[unit] += 1;
                            if (c_cap[unit] < 0) {
                                if (row >= 1 && row <= num_rows)
                                    count(unit, slot_prev[s], c_cnt, c_live,
                                          c_thr, c_cap, c_trips, q_buf,
                                          q_len, q_cap);
                                if (row >= -1 && row + 1 < num_rows)
                                    count(unit, slot_next[s], c_cnt, c_live,
                                          c_thr, c_cap, c_trips, q_buf,
                                          q_len, q_cap);
                            }
                        }
                        int64_t rest = q_len[unit] - queued;
                        for (int64_t i = 0; i < rest; i++)
                            q_buf[first + i] = q_buf[first + queued + i];
                        q_len[unit] = rest;
                    }
                }
            }
        }
    }
    return finish(out, num_steps, 0, n_ev, flip_steps);
}

/* n values of one twister stream, as the march draws them: randint
 * values low + _randbelow(span) into ints, or (span 0) random()
 * values into floats. Returns the words drawn. */
MARCH_API int64_t repro_mt_draw(uint32_t *mt, int64_t n, int64_t low,
                                int64_t span, int64_t *ints,
                                double *floats)
{
    int64_t used = 0;
    for (int64_t i = 0; i < n; i++) {
        if (span > 0)
            ints[i] = low + randbelow(mt, &used, span);
        else
            floats[i] = random53(mt, &used);
    }
    return used;
}
