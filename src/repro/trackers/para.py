"""InDRAM-PARA: PARA adapted to the in-DRAM setting (paper Section III).

Each activation is sampled with probability ``p`` into the single-entry
Sampled Address Register (SAR); at REF the SAR (if valid) is mitigated.

Two variants, matching the paper's Figures 2 and 4:

* **Overwrite** (default): a later sample evicts the current SAR, so
  early positions in the tREFI window have low survival probability
  (Equation 2, Fig 3).
* **No-overwrite**: sampling stops once SAR is valid, so late positions
  have low sampling probability (Equation 3, Fig 5).

Both exhibit a 2.7x dip in mitigation probability at the most vulnerable
position and a 37% chance of selecting nothing even when all 73 slots
are used (Equation 4), which is why the paper proposes MINT instead.
This design is also equivalent to single-entry PrIDE (Section IX).
"""

from __future__ import annotations

import random

from ..constants import SAR_BITS
from ..kernels.march import KIND_SAMPLED
from .base import Lowering, MarchUnit, MitigationRequest, Tracker


class InDramParaTracker(Tracker):
    """Present-centric single-entry probabilistic tracker.

    Parameters
    ----------
    sample_probability:
        p; the paper uses 1/73 (one over MaxACT).
    overwrite:
        True for the classic variant (Fig 2), False for the
        no-overwrite variant (Fig 4).
    """

    centric = "present"
    observes_mitigations = False

    def __init__(
        self,
        sample_probability: float = 1.0 / 73.0,
        overwrite: bool = True,
        rng: random.Random | None = None,
    ) -> None:
        if not 0.0 < sample_probability <= 1.0:
            raise ValueError("sample_probability must be in (0, 1]")
        self.p = sample_probability
        self.overwrite = overwrite
        # ad-hoc convenience default: every engine/Session path
        # repro-lint: allow[seed-policy] passes a derived rng
        self.rng = rng or random.Random()
        self.sar: int | None = None
        self.name = "InDRAM-PARA" if overwrite else "InDRAM-PARA(NoOW)"
        self.samples = 0
        self.overwrites = 0

    def on_activate(self, row: int) -> None:
        if not self.overwrite and self.sar is not None:
            return
        if self.rng.random() < self.p:
            if self.sar is not None:
                self.overwrites += 1
            self.sar = row
            self.samples += 1

    def on_activate_batch(self, rows, counts=None) -> None:
        """Batched sampling that preserves the scalar RNG stream.

        The overwrite variant draws exactly once per activation no
        matter what, so the batch draws the same ``len(rows)`` uniforms
        from the same ``random.Random`` the scalar loop would — bit-for-
        bit identical SAR outcomes — and only then reduces: the SAR ends
        on the *last* sampled position. (A single binomial draw per
        batch would be distributionally equivalent but would desync the
        RNG stream and break scalar/vectorized result identity, which
        the engine pins.) The no-overwrite variant stops consuming
        randomness once the SAR latches, so its draw count is
        data-dependent and the scalar loop is the only exact form.
        """
        if not self.overwrite:
            super().on_activate_batch(rows, counts)
            return
        n = len(rows)
        if n == 0:
            return
        random_ = self.rng.random
        p = self.p
        hits = [i for i in range(n) if random_() < p]
        if not hits:
            return
        if self.sar is not None:
            self.overwrites += len(hits)
        else:
            self.overwrites += len(hits) - 1
        self.samples += len(hits)
        self.sar = int(rows[hits[-1]])

    def on_refresh(self) -> list[MitigationRequest]:
        requests = []
        if self.sar is not None:
            requests.append(MitigationRequest(self.sar))
        self.sar = None
        return requests

    def lower(self) -> Lowering | None:
        if not self.overwrite:
            return None  # its draw count depends on the SAR
        return Lowering(KIND_SAMPLED, self.rng, prob=self.p)

    def march_in(self, unit: MarchUnit) -> bool:
        # Between REFs (a postponed one) the SAR may hold a sample.
        sar = self.sar
        unit["m_valid"] = sar is not None
        unit["m_sar"] = sar or 0
        unit["m_sel"] = self.samples
        unit["p_over"] = self.overwrites
        return True

    def march_out(self, unit: MarchUnit) -> None:
        self.sar = unit["m_sar"] if unit["m_valid"] else None
        self.samples = unit["m_sel"]
        self.overwrites = unit["p_over"]

    def reset(self) -> None:
        self.sar = None
        self.samples = 0
        self.overwrites = 0

    @property
    def entries(self) -> int:
        return 1

    @property
    def storage_bits(self) -> int:
        # SAR only; no CAN/SAN needed (sampling is per-activation).
        return SAR_BITS


class McParaPolicy:
    """Memory-controller-side PARA (Section VIII-E).

    Not a :class:`Tracker`: MC-PARA does not live in the DRAM. On every
    activation it decides, with probability p, to issue a blocking DRFM
    for that row. Used by the performance model for Fig 17.
    """

    name = "MC-PARA"

    def __init__(
        self, probability: float, rng: random.Random | None = None
    ) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.p = probability
        # ad-hoc convenience default: every engine/Session path
        # repro-lint: allow[seed-policy] passes a derived rng
        self.rng = rng or random.Random()
        self.drfms_issued = 0

    def should_mitigate(self, row: int) -> bool:
        """Decide whether this activation triggers a DRFM."""
        if self.rng.random() < self.p:
            self.drfms_issued += 1
            return True
        return False
