"""The Figure 6 out-of-order access engine, cycle by cycle.

Structure (Section 3.2 / 4.2 and Figure 6):

* **two address generators** — generator 1 produces the first
  subsequence (used only during the first ``2**t`` cycles); generator 2
  produces every later subsequence in natural order, one address per
  cycle;
* an **order queue** that records the alignment key (module /
  within-section module field / section) of each first-subsequence
  request;
* a ``2 * 2**t`` **latch file**, modelled as two banks of ``2**t``
  latches that swap roles every subsequence: while the current
  subsequence is issued from one bank (in the order-queue order), the
  other bank fills with generator 2's next subsequence;
* the issue **arbiter** that picks the latch named by the order queue.

Every structural budget is enforced (one add per generator per cycle,
bank occupancy, queue capacity); the emitted stream is asserted — in
tests and in experiment E15 — to equal the abstract conflict-free plan
request for request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.planner import AccessPlanner
from repro.core.subsequences import build_subsequences
from repro.core.vector import VectorAccess
from repro.errors import HardwareModelError
from repro.hardware.datapath import LatchFile, OrderQueue
from repro.hardware.sequencer import Figure5AddressGenerator, GeneratedRequest


@dataclass(frozen=True)
class EngineReport:
    """Resource usage of one engine run (the Section 5-D cost audit)."""

    total_cycles: int
    generator1_adds: int
    generator2_adds: int
    latch_peak_occupancy: int
    latch_capacity: int
    order_queue_depth: int


class Figure6Engine:
    """Drives one conflict-free vector access with Figure 6's resources.

    Parameters
    ----------
    planner:
        Supplies the mapping, ``t`` and the reorder-key selection logic
        (identical to the abstract planner so the two stay in lockstep).
    vector:
        The access to perform; must lie inside the conflict-free window
        (the engine raises :class:`~repro.errors.OrderingError` through
        the decomposition otherwise, exactly like the planner).
    """

    def __init__(self, planner: AccessPlanner, vector: VectorAccess):
        self.planner = planner
        self.vector = vector
        w, key_of, _chunk = planner.decomposition(vector)
        self.key_of = key_of
        self.plan = build_subsequences(vector, w, planner.t)
        self.slots = self.plan.elements_per_subsequence  # 2**t
        self.total_subsequences = (
            self.plan.chunks * self.plan.subsequences_per_chunk
        )
        self.order_queue = OrderQueue(self.slots)
        self.bank_a = LatchFile("bank-a", self.slots)
        self.bank_b = LatchFile("bank-b", self.slots)
        self._stream: list[GeneratedRequest] | None = None
        self._report: EngineReport | None = None

    def run(self) -> list[GeneratedRequest]:
        """Produce the full issue stream (one request per cycle)."""
        if self._stream is not None:
            return self._stream

        generator1 = Figure5AddressGenerator(self.plan, start_subsequence=0)
        generator2 = (
            Figure5AddressGenerator(self.plan, start_subsequence=1)
            if self.total_subsequences > 1
            else None
        )

        stream: list[GeneratedRequest] = []
        cycle = 0

        # Phase 1 — first subsequence: issue straight from generator 1,
        # record the key order, and fill bank A with the second
        # subsequence from generator 2.
        for _ in range(self.slots):
            cycle += 1
            produced = generator1.step()
            key = self._key(produced.address)
            self.order_queue.push(key)
            stream.append(
                GeneratedRequest(cycle, produced.element_index, produced.address)
            )
            if generator2 is not None and not generator2.done:
                ahead = generator2.step()
                self.bank_a.write(
                    self._key(ahead.address), ahead.element_index, ahead.address
                )
        self.order_queue.seal()

        # Phase 2 — every later subsequence: issue from the full bank in
        # the recorded key order while the other bank fills.
        banks = (self.bank_a, self.bank_b)
        for subsequence in range(1, self.total_subsequences):
            issue_bank = banks[(subsequence - 1) % 2]
            fill_bank = banks[subsequence % 2]
            for position in range(self.slots):
                cycle += 1
                key = self.order_queue.key_at(position)
                element_index, address = issue_bank.read(key)
                stream.append(GeneratedRequest(cycle, element_index, address))
                if generator2 is not None and not generator2.done:
                    ahead = generator2.step()
                    fill_bank.write(
                        self._key(ahead.address), ahead.element_index, ahead.address
                    )
            if not issue_bank.is_empty():
                raise HardwareModelError(
                    f"bank not drained after subsequence {subsequence}"
                )

        if len(stream) != self.vector.length:
            raise HardwareModelError(
                f"engine produced {len(stream)} requests for a vector of "
                f"length {self.vector.length}"
            )
        self._stream = stream
        self._report = EngineReport(
            total_cycles=cycle,
            generator1_adds=generator1.adder.total_operations
            + generator1.reg_adder.total_operations,
            generator2_adds=(
                generator2.adder.total_operations
                + generator2.reg_adder.total_operations
                if generator2 is not None
                else 0
            ),
            latch_peak_occupancy=max(
                self.bank_a.peak_occupancy, self.bank_b.peak_occupancy
            ),
            latch_capacity=2 * self.slots,
            order_queue_depth=self.slots,
        )
        return stream

    def report(self) -> EngineReport:
        """Resource audit; runs the engine if necessary."""
        self.run()
        assert self._report is not None
        return self._report

    def request_stream(self) -> list[tuple[int, int]]:
        """Adapter matching :class:`~repro.core.planner.AccessPlan`."""
        return [
            (produced.element_index, produced.address)
            for produced in self.run()
        ]

    def _key(self, address: int) -> int:
        key = self.key_of(address)
        if not 0 <= key < self.slots:
            raise HardwareModelError(
                f"alignment key {key} outside the {self.slots}-slot latch "
                "bank — this mapping/stride pair is not supported by the "
                "Figure 6 engine"
            )
        return key
