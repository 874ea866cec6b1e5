/* The multi-step channel march — C mirror of march.py.
 *
 * Compiled on demand by repro/kernels/cext.py (any C compiler on PATH)
 * and loaded through ctypes; this is the compiled provider. The body
 * must stay semantically line-for-line with _march_steps_impl in
 * march.py: the engine's bit-identity pins run the same lowered plans
 * through both and the interpreted reference.
 *
 * All arrays are caller-owned, contiguous, and either int64 or double;
 * see march.py for the parameter contract. Returns the number of fully
 * executed steps (< num_steps when the flip-safety bound would be
 * violated by the next step) and writes the updated disturbance bound
 * through bound_io.
 */

#include <stdint.h>

#if defined(_WIN32)
#define MARCH_API __declspec(dllexport)
#else
#define MARCH_API
#endif

MARCH_API int64_t repro_march_steps(
    double *dist, double *peak, int64_t *since, int64_t *speak,
    int64_t *mitig, int64_t *transmit,
    const int64_t *reset_keys, int64_t n_reset,
    const int64_t *victims, const double *delta, int64_t n_victims,
    const int64_t *since_keys, const int64_t *since_counts, int64_t n_since,
    const int64_t *acts, const int64_t *acts_off,
    const int64_t *step_ranks, int64_t n_ranks,
    int64_t num_banks, int64_t num_rows,
    int64_t *ref_counts, int64_t refw, int64_t slice_rows,
    const int64_t *kind,
    int64_t *m_san, int64_t *m_sar, int64_t *m_valid, int64_t *m_dist,
    int64_t *m_sel,
    const int64_t *m_draw_off, const int64_t *draws,
    int64_t num_steps, double trh, double step_gain, double *bound_io)
{
    double bound = *bound_io;
    for (int64_t step = 0; step < num_steps; step++) {
        if (bound + step_gain >= trh) {
            *bound_io = bound;
            return step;
        }
        /* MINT captures (CAN == 0 at every step start). */
        for (int64_t rank_i = 0; rank_i < n_ranks; rank_i++) {
            int64_t rank = step_ranks[rank_i];
            for (int64_t bank = 0; bank < num_banks; bank++) {
                int64_t unit = rank * num_banks + bank;
                if (kind[unit] == 1) {
                    int64_t san = m_san[unit];
                    int64_t n = acts_off[unit + 1] - acts_off[unit];
                    if (san >= 1 && san <= n) {
                        m_sar[unit] = acts[acts_off[unit] + san - 1];
                        m_valid[unit] = 1;
                        m_sel[unit] += 1;
                    }
                }
            }
        }
        /* Unmitigated-run counters. */
        for (int64_t i = 0; i < n_since; i++) {
            int64_t key = since_keys[i];
            int64_t total = since[key] + since_counts[i];
            since[key] = total;
            if (total > speak[key])
                speak[key] = total;
        }
        /* Activation scatter: reset, add, peak (flip-free by bound). */
        for (int64_t i = 0; i < n_reset; i++)
            dist[reset_keys[i]] = 0.0;
        for (int64_t i = 0; i < n_victims; i++) {
            int64_t key = victims[i];
            double value = dist[key] + delta[i];
            dist[key] = value;
            if (value > peak[key])
                peak[key] = value;
            if (value > bound)
                bound = value;
        }
        /* REF: rolling auto-refresh slice per active rank. */
        for (int64_t rank_i = 0; rank_i < n_ranks; rank_i++) {
            int64_t rank = step_ranks[rank_i];
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
            if (hi > lo) {
                for (int64_t bank = 0; bank < num_banks; bank++) {
                    double *base =
                        dist + (rank * num_banks + bank) * num_rows;
                    for (int64_t row = lo; row < hi; row++)
                        base[row] = 0.0;
                }
            }
        }
        /* REF: per-unit MINT mitigation, then the pre-drawn SAN draw. */
        for (int64_t rank_i = 0; rank_i < n_ranks; rank_i++) {
            int64_t rank = step_ranks[rank_i];
            for (int64_t bank = 0; bank < num_banks; bank++) {
                int64_t unit = rank * num_banks + bank;
                if (kind[unit] != 1)
                    continue;
                int64_t base = unit * num_rows;
                if (m_valid[unit] == 1) {
                    int64_t row = m_sar[unit];
                    int64_t d = m_dist[unit];
                    mitig[unit] += 1;
                    if (d > 1)
                        transmit[unit] += 1;
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
                            int64_t neighbour =
                                victim + (np == 0 ? -1 : 1);
                            if (neighbour >= 0 && neighbour < num_rows) {
                                double value =
                                    dist[base + neighbour] + 1.0;
                                dist[base + neighbour] = value;
                                if (value > peak[base + neighbour])
                                    peak[base + neighbour] = value;
                                if (value > bound)
                                    bound = value;
                            }
                        }
                    }
                    for (int64_t pass = 0; pass < 2; pass++) {
                        int64_t victim = row + (pass == 0 ? -d : d);
                        if (victim >= 0 && victim < num_rows)
                            dist[base + victim] = 0.0;
                    }
                    since[base + row] = 0;
                    for (int64_t pass = 0; pass < 2; pass++) {
                        int64_t victim = row + (pass == 0 ? -d : d);
                        if (victim >= 0 && victim < num_rows)
                            since[base + victim] = 0;
                    }
                }
                int64_t draw = draws[m_draw_off[unit] + step];
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
            }
        }
    }
    *bound_io = bound;
    return num_steps;
}
