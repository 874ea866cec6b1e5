"""R1 ``seed-policy`` — all randomness flows through derived streams.

Every bit-exactness claim in this repository (reference == fast ==
compiled, N-bank == rank == channel, worker-count-invariant
Monte-Carlo) holds because every random draw comes from a
``random.Random`` instance seeded through
:mod:`repro.sim.seeding` (``stable_seed`` / ``derive_rng``) off a
scenario's task seed. One draw from the *module-level* global RNG — or
from the wall clock — breaks that: the result stops being a pure
function of the scenario and starts depending on import order, test
order, or the time of day.

What this rule flags
--------------------
Everywhere in the linted tree:

* calls to the module-level ``random`` API (``random.random()``,
  ``random.randint``, ``random.seed``, ``random.getstate`` /
  ``setstate``, ...) — use a ``random.Random`` instance built from a
  derived seed instead;
* any call into ``numpy.random`` (legacy global state *and*
  ``default_rng``) — NumPy draws are not part of the repo's pinned RNG
  streams;
* ``random.Random()`` with no arguments and ``random.SystemRandom`` —
  both seed from OS entropy.

Additionally, inside the simulation packages (:data:`SIM_PACKAGES` —
``repro/sim``, ``repro/trackers``, ``repro/attacks``,
``repro/kernels``, ``repro/core``, ``repro/dram``):

* wall-clock and OS-entropy reads: ``time.time`` / ``perf_counter`` /
  ``monotonic`` (and ``_ns`` variants), ``datetime.now`` / ``utcnow``
  / ``today``, ``os.urandom``, ``uuid.uuid1`` / ``uuid4``, and the
  ``secrets`` module. Timing a *benchmark script* is fine; timing (or
  entropy) inside a simulation path is a determinism bug.

Suppress a deliberate exception with
``# repro-lint: allow[seed-policy] <one-line justification>``.
"""

from __future__ import annotations

import ast

from ..astutil import ImportMap
from ..findings import Finding
from .base import Rule, register_rule

#: Packages whose modules must be wall-clock- and OS-entropy-free.
SIM_PACKAGES = (
    "repro/sim",
    "repro/trackers",
    "repro/attacks",
    "repro/kernels",
    "repro/core",
    "repro/dram",
)

#: Module-level ``random`` functions that mutate or read global state.
GLOBAL_RANDOM_CALLS = frozenset(
    f"random.{name}" for name in (
        "betavariate", "binomialvariate", "choice", "choices",
        "expovariate", "gammavariate", "gauss", "getrandbits",
        "getstate", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    )
)

#: Wall-clock / OS-entropy reads banned under :data:`SIM_PACKAGES`.
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})


def in_sim_packages(path: str) -> bool:
    """True when ``path`` lies under one of :data:`SIM_PACKAGES`."""
    slashed = f"/{path}"
    return any(f"/{package}/" in slashed for package in SIM_PACKAGES)


def global_rng_message(origin: str) -> str | None:
    """The violation message for a call to ``origin``, or ``None``.

    Shared with the tracker-contract rule, which applies the same
    matcher to ``on_activate_batch`` bodies.
    """
    if origin in GLOBAL_RANDOM_CALLS:
        return (
            f"module-level '{origin}()' uses the global RNG; draw from "
            "a random.Random seeded via repro.sim.seeding "
            "(stable_seed/derive_rng) instead"
        )
    if origin == "numpy.random" or origin.startswith("numpy.random."):
        return (
            f"'{origin}' is outside the repo's pinned RNG streams; all "
            "randomness must come from random.Random instances seeded "
            "via repro.sim.seeding"
        )
    if origin == "random.SystemRandom" or origin.startswith(
        "random.SystemRandom."
    ):
        return (
            "random.SystemRandom draws from OS entropy and can never "
            "be reproduced; use a derived random.Random stream"
        )
    return None


@register_rule
class SeedPolicyRule(Rule):
    """R1: no global-RNG, wall-clock, or OS-entropy randomness."""

    id = "seed-policy"
    summary = (
        "randomness must flow through repro.sim.seeding derived "
        "streams (no global random/np.random; no wall clock or OS "
        "entropy in simulation packages)"
    )

    def check(
        self, tree: ast.Module, source: str, path: str
    ) -> list[Finding]:
        imports = ImportMap(tree)
        sim_scoped = in_sim_packages(path)
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            origin = imports.resolve(node.func)
            if origin is None:
                continue
            message = global_rng_message(origin)
            if message is None and origin == "random.Random" and not (
                node.args or node.keywords
            ):
                message = (
                    "random.Random() with no seed draws its state from "
                    "OS entropy; seed it from a stream derived via "
                    "repro.sim.seeding"
                )
            if message is None and sim_scoped and (
                origin in WALLCLOCK_CALLS
                or origin == "secrets"
                or origin.startswith("secrets.")
            ):
                message = (
                    f"'{origin}()' reads the wall clock or OS entropy "
                    "inside a simulation package; simulation results "
                    "must be pure functions of the scenario"
                )
            if message is not None:
                findings.append(self.finding(path, node, message))
        return findings
