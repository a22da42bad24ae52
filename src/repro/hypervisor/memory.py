"""Guest memory with Xen-style dirty-page logging.

Xen's live migration tracks dirtying at 4 KiB page granularity through a
log-dirty bitmap; each pre-copy round clears the log and re-sends pages
dirtied during the previous round.  This module reproduces that mechanism
with two levels of fidelity:

* a **dirty log** for exact per-round accounting (a page counter, see
  below), and
* the **occupancy formula** for the distinct-page statistics of random
  writes: a workload issuing ``N`` uniform writes over a working set of
  ``W`` pages leaves a given page untouched with probability
  ``(1 - 1/W)^N``, so the expected number of distinct pages dirtied is
  ``W · (1 - (1 - 1/W)^N)`` — the classic coupon-collector saturation.

The stochastic update draws the number of *newly* dirtied pages from a
binomial over the currently clean working pages.  Writes are uniform over
the working set, so *which* clean pages they hit is unobservable: every
migration path reads the log only through its count.  The log is
therefore a counter, and one update costs one binomial draw — O(1) in
the working set, whatever the VM's size.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.units import PAGE_SIZE_BYTES, mib_to_pages

__all__ = ["expected_distinct_pages", "VmMemory"]


def expected_distinct_pages(writes: float, working_pages: int) -> float:
    """Expected distinct pages touched by ``writes`` uniform random writes.

    Parameters
    ----------
    writes:
        Number of (possibly fractional) page-write operations.
    working_pages:
        Size of the working set in pages.

    Returns
    -------
    float
        ``W · (1 − (1 − 1/W)^N)``, computed in log-space for numerical
        stability; 0 when either argument is 0.
    """
    if writes <= 0 or working_pages <= 0:
        return 0.0
    w = float(working_pages)
    if w == 1.0:
        # Degenerate working set: at most one distinct page, and fractional
        # write counts (rate × short dt) cannot touch more than they are.
        return min(1.0, writes)
    log_miss = writes * math.log1p(-1.0 / w)
    # The continuous-N extension slightly exceeds N for fractional N < 1;
    # distinct pages can never outnumber the writes that touched them.
    return min(w * (1.0 - math.exp(log_miss)), writes)


class VmMemory:
    """Guest memory image with a log-dirty page counter.

    Parameters
    ----------
    ram_mb:
        Guest memory size in MiB; the image is ``ram_mb`` worth of 4 KiB
        pages, all of which are transferred by a migration.
    """

    def __init__(self, ram_mb: int) -> None:
        if ram_mb <= 0:
            raise ConfigurationError(f"ram_mb must be positive, got {ram_mb!r}")
        self.ram_mb = int(ram_mb)
        self.n_pages = mib_to_pages(ram_mb)
        self._logging = False
        self._working_pages = 0
        self._write_rate_pages_s = 0.0
        # Dirty-page accounting.  Pages are only ever marked by advance()
        # — always uniformly inside the working set — and cleared
        # wholesale by clear_dirty(), so while the working set stays
        # fixed (which every migration path guarantees: the dirty
        # process is only re-synced on suspend/resume, with the same
        # workload) the log reduces exactly to a counter: every
        # observable (dirty_count, clean-set size, the RNG draws) is a
        # function of counts alone.  This makes the whole log O(1)
        # instead of O(n_pages) bitmap passes per pre-copy round, and
        # advance() draws only the binomial count, never a page choice
        # (RNG stream v3, docs/performance.md "RNG stream versions").
        # Resizing the working set while pages are logged is rejected
        # (see set_dirty_process): page identity is gone, so the
        # inside/outside split could not be reconstructed.
        #
        # The counter lives in a plain int until a compute-mode kernel
        # row adopts it (bind_dirty_slot), after which reads and writes
        # go through the row's int64 ``dirty_logged`` slot — the log
        # state then rides the same structured array as the VM's
        # vectorized CPU feature.
        self._dirty_local = 0
        self._dirty_row: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Dirty-counter storage (plain int, or a kernel SoA row slot)
    # ------------------------------------------------------------------
    @property
    def _dirty_logged(self) -> int:
        row = self._dirty_row
        if row is None:
            return self._dirty_local
        return int(row["dirty_logged"][0])

    @_dirty_logged.setter
    def _dirty_logged(self, value: int) -> None:
        row = self._dirty_row
        if row is None:
            self._dirty_local = value
        else:
            row["dirty_logged"] = value

    def bind_dirty_slot(self, row: np.ndarray) -> None:
        """Move the dirty counter into a kernel row's ``dirty_logged`` slot.

        Carries the current count over, so binding mid-run (the kernels
        attach lazily) is transparent; page counts are far below int64
        range.  Called by :meth:`VirtualMachine.attach_kernel`.
        """
        row["dirty_logged"] = self._dirty_local
        self._dirty_row = row

    # ------------------------------------------------------------------
    # Workload coupling
    # ------------------------------------------------------------------
    def set_dirty_process(self, write_rate_pages_s: float, working_set_fraction: float) -> None:
        """Configure the page-dirtying process driven by the guest workload."""
        if write_rate_pages_s < 0:
            raise ConfigurationError(
                f"write rate must be non-negative, got {write_rate_pages_s!r}"
            )
        if not 0.0 <= working_set_fraction <= 1.0:
            raise ConfigurationError(
                f"working_set_fraction must be in [0, 1], got {working_set_fraction!r}"
            )
        new_working = int(round(working_set_fraction * self.n_pages))
        if (
            self._logging
            and self._dirty_logged
            and new_working != self._working_pages
        ):
            # The counter log cannot attribute already-dirty pages to a
            # *resized* working set (page identity is gone), so fail
            # loudly rather than silently diverge from the bitmap
            # semantics.  No migration path resizes the set while
            # logging: the dirty process is only re-synced on
            # suspend/resume, with the same workload.
            raise ConfigurationError(
                "cannot resize the working set while dirty pages are "
                f"logged ({self._dirty_logged} dirty, "
                f"{self._working_pages} -> {new_working} pages)"
            )
        self._write_rate_pages_s = float(write_rate_pages_s)
        self._working_pages = new_working

    def stop_dirty_process(self) -> None:
        """Suspend dirtying (VM paused or destroyed)."""
        self._write_rate_pages_s = 0.0

    @property
    def write_rate_pages_s(self) -> float:
        """Configured raw page-write rate."""
        return self._write_rate_pages_s

    @property
    def working_pages(self) -> int:
        """Configured working-set size in pages."""
        return self._working_pages

    # ------------------------------------------------------------------
    # Dirty logging (migration side)
    # ------------------------------------------------------------------
    @property
    def logging(self) -> bool:
        """Whether log-dirty mode is active."""
        return self._logging

    def enable_logging(self) -> None:
        """Start log-dirty mode with a clean log (shadow page tables on)."""
        self._logging = True
        self._dirty_logged = 0

    def disable_logging(self) -> None:
        """Leave log-dirty mode and drop the log."""
        self._logging = False
        self._dirty_logged = 0

    def dirty_count(self) -> int:
        """Number of pages currently marked dirty (0 when not logging)."""
        return self._dirty_logged if self._logging else 0

    def clear_dirty(self) -> int:
        """Clear the log (start of a pre-copy round); returns pages cleared."""
        if not self._logging:
            return 0
        count = self._dirty_logged
        self._dirty_logged = 0
        return count

    def advance(self, dt: float, rng: np.random.Generator) -> int:
        """Advance the dirtying process by ``dt`` seconds of guest execution.

        Marks newly dirtied pages in the log (if active) according to the
        occupancy statistics of random uniform writes.  Returns the number
        of *newly* dirtied pages (0 when not logging — without the log
        there is nothing to record, exactly as in Xen).
        """
        if dt < 0:
            raise ConfigurationError(f"dt must be non-negative, got {dt!r}")
        if not self._logging or dt == 0.0:
            return 0
        w = self._working_pages
        rate = self._write_rate_pages_s
        if w <= 0 or rate <= 0.0:
            return 0
        writes = rate * dt
        # Probability that a specific working page got touched at least once.
        p_touched = 1.0 - math.exp(writes * math.log1p(-1.0 / w)) if w > 1 else 1.0
        clean = w - self._dirty_logged
        if clean <= 0:
            return 0
        n_new = int(rng.binomial(clean, min(max(p_touched, 0.0), 1.0)))
        if n_new == 0:
            return 0
        self._dirty_logged += n_new
        return n_new

    # ------------------------------------------------------------------
    # Steady-state dirtying ratio (the model feature of Eq. 1)
    # ------------------------------------------------------------------
    #: Default DR observation window.  Eq. 1's "pages marked as dirty over
    #: a given amount of time" must be read on the timescale of a transfer
    #: phase: a 60 s window lets pagedirtier's 42 k pages/s writer touch
    #: its full working set, mapping the MEMLOAD sweep (5–95 %) onto DR
    #: almost one-to-one.  A 1 s window would compress the whole sweep
    #: into a few percent and make γ(t) unidentifiable.
    DR_WINDOW_S: float = 60.0

    def dirtying_ratio_percent(self, window_s: float = DR_WINDOW_S) -> float:
        """Steady-state DR(v,t) in percent over an observation window.

        Eq. 1 defines DR as dirty pages over total pages; operationally the
        paper observes "a high percentage of memory pages marked as dirty
        over a given amount of time".  We therefore report the expected
        distinct pages dirtied within ``window_s`` as a fraction of the
        guest's total pages.  With the default migration-scale window the
        writer saturates its working set — mapping MEMLOAD's 5–95 % sweep
        directly onto DR, as the paper's experiment design intends.
        """
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s!r}")
        distinct = expected_distinct_pages(
            self._write_rate_pages_s * window_s, self._working_pages
        )
        return 100.0 * distinct / self.n_pages

    # ------------------------------------------------------------------
    @property
    def image_bytes(self) -> int:
        """Bytes a migration must move for the full memory image."""
        return self.n_pages * PAGE_SIZE_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"dirty={self.dirty_count()}" if self.logging else "no-log"
        return f"<VmMemory {self.ram_mb}MB pages={self.n_pages} {state}>"
