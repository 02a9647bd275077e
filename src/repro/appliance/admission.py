"""Admission policy of the continuous-batching engine.

The event kernel (:mod:`repro.appliance.continuous`) owns simulated
time and device state; this module owns the decision taken at every
admission pass — who is admitted next, to which device, whom to evict
for it, and whom to shed:

* :class:`TenantClass` — one tenant's fair-share weight, strict
  priority tier and optional TTFT/TBT targets;
* :class:`QueueItem` — a request's one record from arrival to
  completion (the kernel's batch entry holds it, and a requeue puts
  the same record back);
* :class:`AdmissionPolicy` — per-class FIFO queues with weighted-fair
  virtual time, head-of-line blocking by tier, preemption planning and
  SLO projections.  :meth:`AdmissionPolicy.admissions` yields one
  decision at a time for the kernel to carry out; it reads device
  state and never writes it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Deque, Dict, Iterator, List, Optional,
    Sequence, Tuple,
)

from repro.appliance.scheduler import CompletedRequest, infeasible_error
from repro.errors import AdmissionError, ConfigurationError
from repro.llm.kvcache import kv_spare_bytes, peak_kv_bytes
from repro.llm.workload import InferenceRequest
from repro.perf.analytical import left_sum

if TYPE_CHECKING:  # the kernel imports this module
    from repro.appliance.continuous import (
        ContinuousBatchScheduler, _Device, _Running,
    )


@dataclass(frozen=True)
class TenantClass:
    """One tenant priority class: scheduling share and SLO targets.

    Attributes:
        name: Class name; requests select it via
            ``InferenceRequest.tenant_class``.  Unknown names resolve
            to a default-parameter class (:func:`resolve_class`), so a
            class table is never required to be exhaustive.
        weight: Fair-share weight within a priority tier.  Admission
            picks the eligible class with the least weighted service
            (admitted tokens / weight), so a weight-4 class receives
            4x the admitted tokens of a weight-1 sibling under
            sustained contention.
        priority: Strict tier; higher admits first, and may preempt
            strictly lower tiers under KV pressure.  Equal-priority
            classes never preempt each other.
        ttft_target_s: Optional time-to-first-token SLO target.  With
            ``slo_admission=True``, requests whose projected TTFT
            exceeds it are shed with a typed
            :class:`~repro.errors.AdmissionError`; completed requests
            beating it count toward goodput.
        tbt_target_s: Optional mean time-between-tokens SLO target,
            handled the same way.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    ttft_target_s: Optional[float] = None
    tbt_target_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant class name must be non-empty")
        if self.weight <= 0:
            raise ConfigurationError(
                f"class {self.name}: weight={self.weight} must be > 0")
        for label, value in (("ttft_target_s", self.ttft_target_s),
                             ("tbt_target_s", self.tbt_target_s)):
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"class {self.name}: {label}={value} must be > 0")

    def met_by(self, completed: CompletedRequest) -> bool:
        """Did a completed request meet this class's SLO targets?

        Targets that were never set are trivially met.
        """
        if self.ttft_target_s is not None \
                and completed.ttft_s > self.ttft_target_s:
            return False
        if self.tbt_target_s is not None:
            tbt = completed.mean_tbt_s
            if tbt is not None and tbt > self.tbt_target_s:
                return False
        return True


def resolve_class(table: Dict[str, TenantClass], name: str) -> TenantClass:
    """The class a request naming ``name`` runs under: its table entry,
    or a default-parameter class when the table has none."""
    tc = table.get(name)
    return tc if tc is not None else TenantClass(name=name)


@dataclass(slots=True)
class QueueItem:
    """One request's record, from arrival to completion.

    ``seq`` is the request's stable position in the arrival-sorted
    input (used for deterministic tie-breaks and wake-up dedup).  A
    requeue bumps ``failovers`` or ``preemptions`` on the record and
    sets ``requeued_at`` to the failure time, or back to ``None`` on a
    preemption, so preemptions never pollute the failover latency
    distribution.  ``peak`` memoizes the request's peak KV footprint
    once its feasibility check passed, so a head blocked for KV room is
    not re-checked at every retry; it is also the KV the request
    reserves while admitted.
    """

    request: InferenceRequest
    arrival_s: float
    seq: int
    failovers: int = 0
    preemptions: int = 0
    requeued_at: Optional[float] = None
    peak: Optional[int] = None


#: One admission verdict: ``(item, dev, victims, error, shed)``.
Decision = Tuple[QueueItem, Optional["_Device"], Sequence["_Running"],
                 Optional[AdmissionError], bool]


class AdmissionPolicy:
    """Per-class FIFO queues, weighted fair share, tiers, eviction, SLOs.

    Each tenant class keeps its own FIFO (arrival order, with
    failover/preemption victims pushed back to the front) and a
    weighted service counter.  With a single class this degenerates to
    the plain FCFS waiting list: selection always returns the one
    class, in arrival order.  ``devs`` is the kernel's device list,
    read at every decision and never written.
    """

    def __init__(self, sched: "ContinuousBatchScheduler",
                 items: Sequence[QueueItem],
                 devs: Sequence["_Device"]) -> None:
        self.sched = sched
        self.step = sched.step
        self.devs = devs
        self.kv_budget = kv_spare_bytes(sched.config, sched.memory_bytes)
        self.classes: Dict[str, TenantClass] = {
            tc.name: tc for tc in sched.classes or ()}
        self.queues: Dict[str, Deque[QueueItem]] = {}
        self.service: Dict[str, float] = {}
        for item in items:
            name = item.request.tenant_class
            dq = self.queues.get(name)
            if dq is None:
                self.classes[name] = resolve_class(self.classes, name)
                dq = self.queues[name] = deque()
                self.service[name] = 0.0
            dq.append(item)
        # Lowest tier any request can run at; classes missing from the
        # table default to priority 0.
        self.lowest_prio = min(
            [0, *(tc.priority for tc in self.classes.values())])

    def __len__(self) -> int:
        return sum(len(dq) for dq in self.queues.values())

    def _charge(self, name: str, tokens: int) -> None:
        """Add weighted service; a requeue refunds with ``-tokens``."""
        self.service[name] += tokens / self.classes[name].weight

    def requeue(self, items: Sequence[QueueItem]) -> None:
        """Put evicted records back at their class fronts, in order,
        refunding the service their admission was charged."""
        for item in items:
            self._charge(item.request.tenant_class,
                         -item.request.total_tokens)
        for item in reversed(items):
            self.queues[item.request.tenant_class].appendleft(item)

    def drain(self) -> List[QueueItem]:
        """Remove and return everything, per-class FIFO order."""
        items = [item for dq in self.queues.values() for item in dq]
        for dq in self.queues.values():
            dq.clear()
        return items

    def next_wakeup(self, now: float) -> Optional[Tuple[float, int]]:
        """``(arrival, seq)`` of the earliest class head after ``now``."""
        best: Optional[Tuple[float, int]] = None
        for dq in self.queues.values():
            if dq and dq[0].arrival_s > now:
                key = (dq[0].arrival_s, dq[0].seq)
                if best is None or key < best:
                    best = key
        return best

    def _select(self, now: float, blocked: set,
                prio_floor: Optional[int]) -> Optional[str]:
        """Next class to try: highest tier, then least weighted service.

        Skips empty queues, classes already blocked this admission
        pass, classes below the blocking tier's priority floor (a
        blocked class stalls every strictly lower tier, never its
        equal-priority siblings), and classes whose head has not
        arrived yet.  Name breaks exact service ties deterministically.
        """
        best: Optional[str] = None
        best_key: Optional[Tuple[int, float, str]] = None
        for name, dq in self.queues.items():
            if not dq or name in blocked:
                continue
            tc = self.classes[name]  # made with the queue
            if prio_floor is not None and tc.priority < prio_floor:
                continue
            if dq[0].arrival_s > now:
                continue
            key = (-tc.priority, self.service[name], name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return best

    def admissions(self, now: float) -> Iterator[Decision]:
        """Decide on the class heads, one decision at a time.

        Each step selects the eligible class by strict priority then
        weighted fair share (see :meth:`_select`) and tries its head.
        A head that cannot fit blocks its class and every strictly
        lower tier for the rest of the pass — unless evicting strictly
        lower-priority work makes room (preemption).  With a single
        class this is exactly FCFS head-of-line admission.

        A decision is ``(item, dev, victims, error, shed)`` for a head
        already taken off its queue: with ``error`` set the request is
        rejected (``shed``: its projected service level missed its
        class targets); otherwise it is admitted to ``dev`` once
        ``victims`` (empty unless preempting) are evicted.  The caller
        carries out each decision before asking for the next, so every
        decision sees the device state the previous one left.
        """
        sched = self.sched
        blocked: set = set()
        prio_floor: Optional[int] = None
        while True:
            name = self._select(now, blocked, prio_floor)
            if name is None:
                return
            tc = self.classes[name]
            queue = self.queues[name]
            item = queue[0]
            request = item.request
            if item.peak is None:  # first time at a class head
                error = infeasible_error(sched.config, sched.memory_bytes,
                                         request)
                if error is not None:
                    queue.popleft()
                    yield item, None, (), error, False
                    continue
                item.peak = peak_kv_bytes(sched.config, request.input_len,
                                          request.output_len)
            dev = self._pick_device()
            if dev is not None \
                    and dev.kv_reserved + item.peak > self.kv_budget:
                dev = None  # no KV room on the least-reserved device
            victims: List[_Running] = []
            if dev is None:
                dev, victims = self._plan_preemption(tc.priority, item.peak)
            if dev is None:
                # Head-of-line blocking: this class waits, and so does
                # every strictly lower tier.
                blocked.add(name)
                prio_floor = tc.priority if prio_floor is None \
                    else max(prio_floor, tc.priority)
                continue
            if sched.slo_admission and not item.failovers \
                    and not item.preemptions:
                error = self._slo_error(tc, item, dev, victims, now)
                if error is not None:
                    queue.popleft()
                    yield item, None, (), error, True
                    continue
            queue.popleft()
            self._charge(name, request.total_tokens)
            yield item, dev, victims, None, False

    def _pick_device(self) -> Optional["_Device"]:
        """Least-reserved surviving device with a batch slot, or None."""
        max_batch = self.sched.max_batch
        best: Optional[_Device] = None
        for dev in self.devs:
            if not dev.alive:
                continue
            if max_batch is not None and len(dev.batch) >= max_batch:
                continue
            if best is None or dev.kv_reserved < best.kv_reserved:
                best = dev
        return best

    def _plan_preemption(self, priority: int, peak: int
                         ) -> Tuple[Optional["_Device"], List["_Running"]]:
        """Cheapest strictly-lower-priority eviction set fitting ``peak``.

        Per device, victims are taken lowest-priority-first, then
        most-recently-admitted (LIFO preserves the oldest work), then
        latest batch position, until the device has both KV room and a
        batch slot.  Among viable devices the plan with the fewest
        victims wins, then the least KV freed (least over-eviction),
        then the lowest device index.
        """
        if priority <= self.lowest_prio:
            return None, []  # no running request can sit in a lower tier
        max_batch = self.sched.max_batch
        classes = self.classes
        best_key: Optional[Tuple[int, int, int]] = None
        best: Tuple[Optional[_Device], List[_Running]] = (None, [])
        for dev in self.devs:
            if not dev.alive:
                continue
            order = sorted(
                (e for e in dev.batch.values()
                 if classes[e.item.request.tenant_class].priority
                 < priority),
                key=lambda e: (classes[e.item.request.tenant_class].priority,
                               -e.admitted_s, -e.order))
            victims: List[_Running] = []
            freed = 0
            for e in [*order, None]:  # None: every candidate evicted
                fits = dev.kv_reserved - freed + peak <= self.kv_budget \
                    and (max_batch is None
                         or len(dev.batch) - len(victims) < max_batch)
                if fits or e is None:
                    break
                victims.append(e)
                freed += e.item.peak
            if not victims or not fits:
                continue
            key = (len(victims), freed, dev.index)
            if best_key is None or key < best_key:
                best_key, best = key, (dev, victims)
        return best

    def _projected_ttft(self, item: QueueItem, dev: "_Device",
                        victims: List["_Running"], now: float) -> float:
        """Projected TTFT if admitted to ``dev`` now (victims evicted).

        The prefill starts at the later of now, the stall horizon, and
        the device's next step boundary (a decode macro-step truncates
        there; a prefill-bearing unit is atomic), behind the prefills
        of already-admitted requests that have not run yet.
        """
        busy_until = dev.unit_ends[dev.next_boundary(now)] if dev.busy \
            else now
        start = max(now, dev.stall_until, busy_until)
        skip = {e.order for e in dev.unit_prefills}  # prefills in flight
        skip.update(v.order for v in victims)
        queued = left_sum(self.step.prefill_s(e.item.request.input_len)
                          for e in dev.pending if e.order not in skip)
        own = self.step.prefill_s(item.request.input_len)
        return start + queued + own - item.arrival_s

    def _projected_tbt(self, item: QueueItem, dev: "_Device",
                       victims: List["_Running"]) -> float:
        """Projected decode step time at the post-admission occupancy."""
        batch = len(dev.batch) - len(victims) + 1
        # Σ context_len over the batch minus the victims, exactly.
        context = dev.context_sum() \
            + sum(e.item.request.input_len for e in dev.pending) \
            - sum(v.context_len for v in victims)
        ctx = int(math.ceil(
            (context + item.request.input_len + 1) / batch))
        return self.step.decode_step_s(batch, ctx)

    def _slo_error(self, tc: TenantClass, item: QueueItem,
                   dev: "_Device", victims: List["_Running"],
                   now: float) -> Optional[AdmissionError]:
        """Typed rejection when the projected service level misses SLO."""
        if tc.ttft_target_s is not None:
            ttft = self._projected_ttft(item, dev, victims, now)
            if ttft > tc.ttft_target_s:
                return AdmissionError(
                    f"class {tc.name}: projected TTFT {ttft:.3f}s "
                    f"exceeds target {tc.ttft_target_s:.3f}s")
        if tc.tbt_target_s is not None:
            tbt = self._projected_tbt(item, dev, victims)
            if tbt > tc.tbt_target_s:
                return AdmissionError(
                    f"class {tc.name}: projected TBT {tbt:.4f}s "
                    f"exceeds target {tc.tbt_target_s:.4f}s")
        return None
