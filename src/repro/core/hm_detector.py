"""The hardware-managed TLB mechanism (Section IV-B, Figure 1b).

x86-style TLBs are refilled by a hardware walker — there is no miss trap
for the OS to piggyback on.  The paper instead proposes a small ISA
addition letting the kernel *read* TLB contents, and a periodic scan:
every ``n`` cycles (the paper uses 10 million), compare **all pairs** of
TLBs set by set and increment the communication matrix for every virtual
page resident in both.

The all-pairs scan is Θ(P²·S) for set-associative TLBs (Table I), and —
crucially for reproducing the paper's Figure 5 artifacts — it samples the
machine at *instants*: whichever pair of threads happens to have shared
pages resident when the timer fires dominates the matrix, which is how IS
and MG end up showing spurious hot rows ("the runtime behavior ... can
present a challenge to HM").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.detection import Detector, DetectorConfig
from repro.obs.trace import NULL_TRACER, get_tracer


class HardwareManagedDetector(Detector):
    """HM mechanism: periodic all-pairs comparison of TLB contents."""

    name = "HM"

    def __init__(self, num_threads: int, config: Optional[DetectorConfig] = None):
        super().__init__(num_threads, config)
        self.scans_run = 0
        self.matches_found = 0
        self.detection_cycles = 0
        self._last_scan = 0
        self._scan_core_rr = 0
        self._tracer = NULL_TRACER

    def _on_attach(self) -> None:
        self._tlbs = self._system.tlbs
        self._cores = sorted(self._core_to_thread)
        self._last_scan = 0
        self._scan_core_rr = 0
        # Cached once per run; poll() runs once per scheduling round.
        self._tracer = get_tracer()

    def _on_rebind(self) -> None:
        self._cores = sorted(self._core_to_thread)

    def poll(self, now_cycles: int) -> Optional[List[Tuple[int, int]]]:
        """Fire one scan per elapsed period since the last one.

        Mirrors the flowchart: compare ``now - period`` against the stored
        cycle counter of the last search; fire once *per elapsed period*
        (capped at ``hm_max_catchup_scans`` per poll) and advance the
        stored counter in period multiples.  Advancing it to ``now``
        instead silently dropped scans whenever a barrier clock jump or a
        large quantum spanned several periods, drifting the effective
        scan rate below 1/period.

        Returns one ``(core, hm_routine_cycles)`` charge per scan fired,
        with the round-robin cursor advanced per scan — a catch-up burst
        spreads its cost over distinct cores, just as the OS would rotate
        the scan duty across timer ticks.  (An earlier version billed the
        whole burst to a single core and advanced the cursor once per
        poll, skewing per-core overhead under barrier clock jumps.)
        """
        period = self.config.hm_period_cycles
        due = (now_cycles - self._last_scan) // period
        if due < 1:
            return None
        fires = min(due, self.config.hm_max_catchup_scans)
        self._last_scan += fires * period
        found_before = self.matches_found
        for _ in range(fires):
            self._scan(now_cycles)
        self.scans_run += fires
        self.detection_cycles += fires * self.config.hm_routine_cycles
        charges: List[Tuple[int, int]] = []
        for _ in range(fires):
            core = self._cores[self._scan_core_rr % len(self._cores)]
            self._scan_core_rr += 1
            charges.append((core, self.config.hm_routine_cycles))
        tracer = self._tracer
        if tracer.enabled:
            tracer.event(
                "hm.scan",
                cat="detector.hm",
                cycles=now_cycles,
                args={
                    "cores": [c for c, _ in charges],
                    "scans": fires,
                    "matches": self.matches_found - found_before,
                },
            )
        return charges

    # -- the scan ---------------------------------------------------------------

    def _scan(self, now_cycles: int = 0) -> None:
        """Compare every pair of TLBs set-by-set for matching entries."""
        cores = self._cores
        c2t = self._core_to_thread
        ignored = self.ignored_pages
        sets = [self._tlbs[core].set_keys() for core in cores]
        for ai in range(len(cores)):
            thread_a = c2t[cores[ai]]
            sets_a = sets[ai]
            for bi in range(ai + 1, len(cores)):
                matches = 0
                # Set-associative: only same-set entries can match, which
                # is what drops the complexity from Θ(P²S²) (fully
                # associative) to Θ(P²S).
                for keys_a, keys_b in zip(sets_a, sets[bi]):
                    if keys_a and keys_b:
                        common = keys_a & keys_b
                        if common:
                            matches += len(common - ignored if ignored else common)
                if matches:
                    self.matches_found += matches
                    self._emit(thread_a, c2t[cores[bi]], float(matches), now_cycles)

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "mechanism": "hardware-managed",
            "scans_run": self.scans_run,
            "matches_found": self.matches_found,
            "detection_cycles": self.detection_cycles,
            "period_cycles": self.config.hm_period_cycles,
        }

    def reset(self) -> None:
        super().reset()
        self.scans_run = 0
        self.matches_found = 0
        self.detection_cycles = 0
        self._last_scan = 0
        self._scan_core_rr = 0
