"""On-demand C build of the march kernel (the compiled tier).

A plain C compiler is all the compiled tier needs. This module
compiles ``_march.c`` once per source revision into a private
build directory (``_build/`` next to the sources, gitignored;
override with ``REPRO_KERNELS_BUILD_DIR``), removes the builds of
older revisions there, and binds the symbol
through :mod:`ctypes`. Everything degrades gracefully: no compiler, an
unwritable tree, or a failed build simply mark the provider
unavailable and the fast engine keeps using its pure-NumPy kernel.

The exported :func:`march_steps` is the march's Python signature: the
engine driver passes its arguments in the order of its parameter
names (``march.MARCH_PARAMS``), whose contract ``_march.c`` documents.
MINT and PARA draw inside the march from ``random.Random`` twister
states: :func:`load_stream` copies a generator's state into its unit's
row of ``mt``, and :func:`settle_stream` moves the generator on by the
words the march drew. :func:`draw` is the one-stream form of the
march's draws.
"""

from __future__ import annotations

import array
import contextlib
import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = [
    "MT_STATE",
    "available",
    "build_error",
    "draw",
    "load_stream",
    "march_steps",
    "settle_stream",
]

#: Words of one twister state row (``mt``): MT19937's 624 state words,
#: then the position in the block, as ``random.Random.getstate()``
#: holds them.
MT_STATE = 625

_SOURCE = Path(__file__).with_name("_march.c")
#: A finished build's name; ``mkstemp``'s in-flight temp names never match.
_BUILD_NAME = re.compile(r"march-[0-9a-f]{16}\.so")
_FUNC = None
_DRAW = None
_ERROR: str | None = None
_TRIED = False


def _build_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_BUILD_DIR")
    if override:
        return Path(override)
    return _SOURCE.parent / "_build"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _prune(build: Path, keep: str) -> None:
    """Unlink the builds of older source revisions, best effort: only
    one is live, and each source edit would otherwise add one."""
    with contextlib.suppress(OSError):
        for path in build.iterdir():
            if path.name != keep and _BUILD_NAME.fullmatch(path.name):
                with contextlib.suppress(OSError):
                    path.unlink()


def _load() -> None:
    """Resolve the compiled symbol, building the shared object if this
    source revision has not been built yet. Runs at most once."""
    global _FUNC, _DRAW, _ERROR, _TRIED
    if _TRIED:
        return
    _TRIED = True
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        _ERROR = f"kernel source unreadable: {exc}"
        return
    compiler = _compiler()
    if compiler is None:
        _ERROR = "no C compiler (cc/gcc/clang) on PATH"
        return
    digest = hashlib.sha256(source).hexdigest()[:16]
    build = _build_dir()
    shared = build / f"march-{digest}.so"
    if not shared.exists():
        tmp = None
        try:
            build.mkdir(parents=True, exist_ok=True)
            # Compile into a temp name and rename: concurrent test
            # workers may race the build, and rename is atomic.
            fd, tmp = tempfile.mkstemp(
                suffix=".so", prefix="march-", dir=build
            )
            os.close(fd)
            proc = subprocess.run(
                [
                    compiler,
                    "-O3",
                    "-fPIC",
                    "-shared",
                    "-o",
                    tmp,
                    str(_SOURCE),
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                _ERROR = (
                    f"C build failed ({compiler}): "
                    f"{proc.stderr.strip()[:500]}"
                )
                return
            os.replace(tmp, shared)
            tmp = None
            _prune(build, shared.name)
        except (OSError, subprocess.SubprocessError) as exc:
            _ERROR = f"C build failed: {exc}"
            return
        finally:
            # Every failure leaves the build directory as it found it.
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
    try:
        lib = ctypes.CDLL(str(shared))
        func = lib.repro_march_steps
        draw_fn = lib.repro_mt_draw
    except (OSError, AttributeError) as exc:
        _ERROR = f"compiled kernel unloadable: {exc}"
        return
    i64 = ctypes.c_int64
    # Arrays pass as bare addresses (see _ptr); the comments say which
    # parameters are double (or, the flipped bitmap, uint8, the twister
    # states uint32) arrays.
    p_f64 = p_i64 = p_u8 = p_u32 = ctypes.c_void_p
    func.restype = i64
    func.argtypes = [
        p_f64, p_f64, p_u8,  # dist, peak, flipped
        p_i64, p_i64, p_i64,  # since, speak, env
        p_i64, p_i64,  # o_since, o_speak
        p_i64, p_i64,  # mitig, transmit
        p_i64, p_i64,  # reset_keys, reset_off
        p_i64, p_f64, p_i64,  # victims, delta, victim_off
        p_i64,  # exact
        p_i64, p_i64,  # since_keys, since_counts
        p_i64,  # since_off
        p_i64, p_i64, p_i64,  # acts, act_skey, acts_off
        p_i64, i64,  # step_ranks, n_ranks
        i64, i64,  # num_banks, num_rows
        p_i64, i64, i64,  # ref_counts, refw, slice_rows
        p_i64, i64,  # postponed, max_postponed
        p_i64, p_i64, i64,  # pos_plan, want, phase
        p_i64, i64,  # kind, units
        p_i64, p_i64, p_i64, p_i64,  # m_can, m_san, m_sar, m_skey
        p_i64, p_i64, p_i64,  # m_valid, m_dist, m_sel
        p_i64, p_i64,  # m_low, m_span
        p_f64, p_i64,  # p_prob, p_over
        p_u32, p_i64,  # mt, mt_used
        p_i64, p_i64, p_i64,  # c_thr, c_cap, c_live
        p_i64, p_i64,  # c_trips, c_tcap
        p_i64, p_i64, p_i64,  # slot_rows, slot_prev, slot_next
        p_i64, p_i64,  # slot_skey, c_cnt
        p_i64, p_i64, p_i64,  # act_slot, uniq_off, uniq_slot
        p_i64, p_i64, i64,  # q_buf, q_len, q_cap
        p_i64, p_f64, i64,  # ev, ev_dist, ev_cap
        i64, ctypes.c_double,  # num_steps, trh
        p_i64,  # out
    ]
    draw_fn.restype = i64
    draw_fn.argtypes = [p_u32, i64, i64, i64, p_i64, p_f64]
    _FUNC = func
    _DRAW = draw_fn


def available() -> bool:
    _load()
    return _FUNC is not None


def build_error() -> str | None:
    """Why the provider is unavailable (None when it is available)."""
    _load()
    return _ERROR


def _ptr(array) -> int:
    """``array``'s data address. A call passes some sixty arrays, and a
    ctypes view over a writable buffer finds one in about a third of
    the time ``array.ctypes.data`` takes (0.7 vs 2.2 µs); an empty or
    read-only array takes the slow lookup. A typed ``ctypes.data_as``
    cast would leave a reference cycle per argument per call: garbage
    that piles up between collections over a long run of march calls."""
    if array.size:
        try:
            return ctypes.addressof(ctypes.c_char.from_buffer(array))
        except (TypeError, ValueError):
            pass
    return array.ctypes.data


def march_steps(
    dist, peak, flipped, since, speak, env, o_since, o_speak, mitig,
    transmit,
    reset_keys, reset_off, victims, delta, victim_off, exact,
    since_keys, since_counts, since_off,
    acts, act_skey, acts_off, step_ranks, num_banks, num_rows,
    ref_counts, refw, slice_rows, postponed, max_postponed,
    pos_plan, want, phase,
    kind, m_can, m_san, m_sar, m_skey, m_valid, m_dist, m_sel,
    m_low, m_span,
    p_prob, p_over, mt, mt_used,
    c_thr, c_cap, c_live, c_trips, c_tcap,
    slot_rows, slot_prev, slot_next, slot_skey, c_cnt,
    act_slot, uniq_off, uniq_slot,
    q_buf, q_len, q_cap,
    ev, ev_dist, ev_cap,
    num_steps, trh,
):
    """Run the C march (see :mod:`repro.kernels.march`); returns
    ``(steps_done, stop, events, flip_steps)``: ``events`` flip events
    are in the buffer, and on ``flip_steps`` steps some unit's act-order
    replay recorded a flip.

    All array arguments must be C-contiguous with the dtypes the
    engine's window lowering produces (int64/float64, the flipped bitmap
    uint8, the twister states uint32); the driver guarantees that.
    """
    _load()
    import numpy as np

    out = np.zeros(3, dtype=np.int64)
    done = _FUNC(
        _ptr(dist), _ptr(peak), _ptr(flipped), _ptr(since), _ptr(speak),
        _ptr(env), _ptr(o_since), _ptr(o_speak),
        _ptr(mitig), _ptr(transmit),
        _ptr(reset_keys), _ptr(reset_off),
        _ptr(victims), _ptr(delta), _ptr(victim_off), _ptr(exact),
        _ptr(since_keys), _ptr(since_counts),
        _ptr(since_off),
        _ptr(acts), _ptr(act_skey), _ptr(acts_off),
        _ptr(step_ranks), step_ranks.shape[0],
        num_banks, num_rows,
        _ptr(ref_counts), refw, slice_rows,
        _ptr(postponed), max_postponed,
        _ptr(pos_plan), _ptr(want), phase,
        _ptr(kind), kind.shape[0],
        _ptr(m_can), _ptr(m_san), _ptr(m_sar), _ptr(m_skey),
        _ptr(m_valid), _ptr(m_dist), _ptr(m_sel),
        _ptr(m_low), _ptr(m_span),
        _ptr(p_prob), _ptr(p_over), _ptr(mt), _ptr(mt_used),
        _ptr(c_thr), _ptr(c_cap), _ptr(c_live),
        _ptr(c_trips), _ptr(c_tcap),
        _ptr(slot_rows), _ptr(slot_prev), _ptr(slot_next),
        _ptr(slot_skey), _ptr(c_cnt), _ptr(act_slot), _ptr(uniq_off),
        _ptr(uniq_slot),
        _ptr(q_buf), _ptr(q_len), q_cap,
        _ptr(ev), _ptr(ev_dist), ev_cap,
        num_steps, float(trh), _ptr(out),
    )
    stop, events, flip_steps = out.tolist()
    return int(done), stop, events, flip_steps


def load_stream(rng, row) -> float | None:
    """Copy ``rng``'s twister state into ``row`` (``MT_STATE`` uint32
    words) and return its ``gauss_next``, which the march never uses
    but :func:`settle_stream` may have to restore."""
    _, words, gauss = rng.getstate()
    # Through array('I'), the state tuple converts about twice as fast
    # as NumPy converts it.
    row[:] = array.array("I", words)
    return gauss


def settle_stream(rng, row, used: int, gauss) -> None:
    """Move ``rng`` on by the ``used`` twister words a march drew from
    its state in ``row``: it then holds ``row``'s state, exactly where
    the scalar calls would have left it."""
    if not used:
        return
    if used < MT_STATE:
        # A skip of at most one block is cheapest in C: getrandbits(32 *
        # w) draws exactly w twister words, turning the block over as
        # lazily as the scalar calls would.
        rng.getrandbits(32 * used)
        return
    # A long one would build a huge Python int: install the state.
    rng.setstate((3, tuple(row.tolist()), gauss))


def draw(rng, n: int, bounds: tuple[int, int] | None = None) -> list:
    """The next ``n`` values of ``rng.randint(*bounds)`` (or, without
    ``bounds``, of ``rng.random()``), drawn by the C twister as the
    march draws them; ``rng`` ends where ``n`` scalar calls leave it."""
    low, span = (0, 0) if bounds is None else (
        bounds[0], bounds[1] - bounds[0] + 1
    )
    if bounds is not None and not 0 < span < 1 << 32:
        raise ValueError(f"randint{bounds} is not a one-word draw")
    _load()
    import numpy as np

    row = np.empty(MT_STATE, dtype=np.uint32)
    gauss = load_stream(rng, row)
    ints = np.empty(n, dtype=np.int64)
    floats = np.empty(n, dtype=np.float64)
    used = _DRAW(_ptr(row), n, low, span, _ptr(ints), _ptr(floats))
    settle_stream(rng, row, used, gauss)
    return (floats if bounds is None else ints).tolist()
