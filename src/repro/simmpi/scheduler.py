"""Cooperative round-robin scheduler with message matching.

The scheduler advances one fiber at a time in deterministic rank order,
matches :class:`~repro.simmpi.fiber.Send`/:class:`~repro.simmpi.fiber.Recv`
syscalls on ``(context_id, src, dst, tag)``, detects deadlock (every live
fiber blocked on a receive that can never be satisfied), and enforces a
global event budget so that runaway loops terminate deterministically.

There is no wall-clock anywhere: the same program with the same injected
fault always produces the same trace, which is what makes fault-injection
campaigns reproducible.

When a :class:`~repro.obs.events.Tracer` is attached, the scheduler emits
``send``/``recv``/``match``/``rank_blocked`` events; when a run hangs it
attaches a structured forensic snapshot (who waits on what, fiber
states, unconsumed mailbox keys, live communicators) to the raised
exception so :mod:`repro.obs.forensics` can build the wait-for graph
after the runtime is gone.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .errors import (
    DeadlockError,
    FiberCrashed,
    SchedulerInterrupt,
    SimMPIError,
    StepBudgetExceeded,
)
from .fiber import Fiber, FiberState, Progress, Recv, Send

#: Default event budget per run.  Fault-free workloads in this repository
#: use well under 10% of this; a corrupted loop bound blows through it.
DEFAULT_STEP_BUDGET = 2_000_000

MatchKey = tuple[int, int, int, int]

#: Zero-argument callable returning ``context_id -> (name, group)`` for
#: every live communicator (see ``CommFactory.context_map``).
CommLookup = Callable[[], dict[int, tuple[str, tuple[int, ...]]]]


class DeliveryTap:
    """Delivery-layer interception point for wire-fault injection.

    A tap sees every message *between* the send syscall and its
    delivery (waiter wakeup or mailbox append) and decides what is
    actually delivered — without touching application code, which is
    what makes message drop/duplication/reorder/corruption a property
    of the simulated network rather than of the workload.

    ``on_send`` returns ``None`` for normal delivery, or a list of
    payloads replacing the original: ``[]`` drops the message,
    ``[p, p]`` duplicates it, ``[p']`` corrupts it, and a tap may hold
    a payload back and release it bundled with a later send on the
    same match key (reorder).  ``pending_steps`` is drained into the
    scheduler's event counter before the next scheduling decision —
    the stall model: a stalled rank charges the global deadline budget
    exactly as runaway progress would, so stall detection rides the
    existing ``StepBudgetExceeded`` machinery.
    """

    pending_steps: int = 0

    def on_send(self, sender: int, call: "Send") -> "list[bytes] | None":
        """Intercept one send from world rank ``sender``; ``None`` =
        deliver the original payload unchanged."""
        return None


class Scheduler:
    """Runs a set of rank fibers to completion.

    Parameters
    ----------
    fibers:
        One fiber per rank, indexed by world rank.
    step_budget:
        Maximum number of syscalls (weighted) before the run is declared
        hung.
    tracer:
        Optional event tracer; ``None`` keeps the hot path untraced.
    comm_lookup:
        Optional live-communicator lookup used to annotate hang
        forensics with communicator names and groups.
    recorder:
        Optional append-only sink (anything with ``append``) receiving
        one compact tuple per scheduling decision — every syscall
        dispatch, block, and message match, in execution order.  This is
        the deterministic replay log (see :mod:`repro.verify.replay`):
        two runs of the same program are equivalent iff their recorded
        streams are identical.  ``None`` keeps the hot path unrecorded.
    tap:
        Optional :class:`DeliveryTap` intercepting message delivery for
        wire-fault injection.  ``None`` keeps the hot path untapped.
    """

    def __init__(
        self,
        fibers: list[Fiber],
        step_budget: int = DEFAULT_STEP_BUDGET,
        tracer=None,
        comm_lookup: CommLookup | None = None,
        recorder=None,
        tap: DeliveryTap | None = None,
    ):
        self.fibers = fibers
        self.step_budget = step_budget
        self.tracer = tracer
        self.comm_lookup = comm_lookup
        self.recorder = recorder
        self.tap = tap
        #: World rank of the fiber whose send is being handled — set by
        #: the run loop just before :meth:`_handle_send` so the tap sees
        #: the sender without widening the subclass-interception hook.
        self._sending_rank = -1
        #: Events consumed so far.  During :meth:`run` it holds the count
        #: before the advance in progress, so an instrument fired inside
        #: that advance sees exactly the events that preceded it.
        self.steps = 0
        #: Unconsumed messages: match key -> FIFO of payloads.
        self.mailbox: dict[MatchKey, deque[bytes]] = {}
        #: Fibers blocked on a receive: match key -> fiber.
        self.waiting: dict[MatchKey, Fiber] = {}
        #: When set (via :meth:`prime`), the next :meth:`run` starts from
        #: this ready queue instead of all fibers in rank order — the
        #: snapshot fast-forward restore path (:mod:`repro.snapshot`).
        self._resume_ready: list[Fiber] | None = None

    def prime(self, ready: list[Fiber], steps: int = 0) -> None:
        """Arm the next :meth:`run` to resume from a restored mid-run state.

        ``ready`` is the exact ready-queue content (in order); ``steps``
        seeds the event counter so the remaining budget matches the run
        being resumed.  The caller is responsible for restoring
        ``mailbox``/``waiting`` and each fiber's state/``resume_value``
        to a consistent snapshot before calling :meth:`run`.
        """
        self._resume_ready = list(ready)
        self.steps = steps

    # -- syscall handling --------------------------------------------

    def _handle_send(self, call: Send) -> None:
        if self.tap is not None:
            payloads = self.tap.on_send(self._sending_rank, call)
            if payloads is not None:
                for payload in payloads:
                    self._deliver(call, payload)
                return
        self._deliver(call, call.payload)

    def _deliver(self, call: Send, payload: bytes) -> None:
        key = (call.context_id, call.src, call.dst, call.tag)
        waiter = self.waiting.pop(key, None)
        if waiter is not None:
            waiter.resume_value = payload
            waiter.state = FiberState.READY
            waiter.wait_reason = ""
            self._ready.append(waiter)
            if self.recorder is not None:
                self.recorder.append(
                    ("M", waiter.rank, *key, len(payload))
                )
            if self.tracer is not None:
                self.tracer.emit(
                    "match", waiter.rank,
                    ctx=call.context_id, src=call.src, dst=call.dst, tag=call.tag,
                    nbytes=len(payload),
                )
        else:
            # No setdefault: it would build a throwaway deque per send.
            queue = self.mailbox.get(key)
            if queue is None:
                self.mailbox[key] = deque((payload,))
            else:
                queue.append(payload)

    def _handle_recv(self, fiber: Fiber, call: Recv) -> bool:
        """Returns True if the fiber stays ready (message available)."""
        key = (call.context_id, call.src, call.dst, call.tag)
        if self.tracer is not None:
            self.tracer.emit(
                "recv", fiber.rank,
                ctx=call.context_id, src=call.src, dst=call.dst, tag=call.tag,
            )
        queue = self.mailbox.get(key)
        if queue:
            fiber.resume_value = queue.popleft()
            if not queue:
                del self.mailbox[key]
            if self.recorder is not None:
                self.recorder.append(("R", fiber.rank, *key, len(fiber.resume_value)))
            if self.tracer is not None:
                self.tracer.emit(
                    "match", fiber.rank,
                    ctx=call.context_id, src=call.src, dst=call.dst, tag=call.tag,
                    nbytes=len(fiber.resume_value),
                )
            return True
        if key in self.waiting:  # pragma: no cover - defensive
            raise RuntimeError(f"duplicate receive posted for {key}")
        fiber.state = FiberState.BLOCKED
        fiber.wait_reason = (
            f"recv(ctx={call.context_id}, src={call.src}, dst={call.dst}, tag={call.tag:#x})"
        )
        self.waiting[key] = fiber
        if self.recorder is not None:
            self.recorder.append(("B", fiber.rank, *key))
        if self.tracer is not None:
            self.tracer.emit(
                "rank_blocked", fiber.rank,
                ctx=call.context_id, src=call.src, dst=call.dst, tag=call.tag,
            )
        return False

    # -- hang forensics ----------------------------------------------

    def _forensics(self) -> dict[str, Any]:
        """Structured snapshot attached to hang exceptions."""
        return {
            "waiting": {f.rank: key for key, f in self.waiting.items()},
            "fiber_states": {f.rank: f.state.value for f in self.fibers},
            "mailbox": [(key, len(q)) for key, q in sorted(self.mailbox.items())],
            "comms": dict(self.comm_lookup()) if self.comm_lookup is not None else {},
        }

    def _deadlock(self) -> DeadlockError:
        return DeadlockError(
            {f.rank: f.wait_reason for f in self.waiting.values()},
            **self._forensics(),
        )

    # -- main loop ----------------------------------------------------

    def run(self) -> list[Any]:
        """Drive every fiber to completion; return per-rank results.

        Raises the first error any fiber produces (the whole job aborts,
        as with a default MPI error handler), :class:`DeadlockError` when
        no progress is possible, or :class:`StepBudgetExceeded`.

        The loop is the simulator's hottest path: the fiber trampoline
        is inlined (one cached ``gen.send`` call per step), syscalls are
        dispatched on exact class identity (with an ``isinstance``
        fallback for subclassed syscalls), and the step counter lives in
        a local, written back on every exit path.  Send handling still
        goes through :meth:`_handle_send` so subclasses can intercept
        message traffic.
        """
        if self._resume_ready is None:
            ready = self._ready = deque(self.fibers)
        else:
            ready = self._ready = deque(self._resume_ready)
            self._resume_ready = None
        waiting = self.waiting
        tracer = self.tracer
        recorder = self.recorder
        tap = self.tap
        budget = self.step_budget
        handle_send = self._handle_send
        handle_recv = self._handle_recv
        READY = FiberState.READY
        DONE = FiberState.DONE
        FAILED = FiberState.FAILED
        steps = self.steps
        try:
            while ready:
                # Stall faults charge the deadline budget out of band:
                # an injected stall deposits steps on the tap, drained
                # here so the run dies with the same StepBudgetExceeded
                # a runaway loop would raise.
                if tap is not None and tap.pending_steps:
                    steps += tap.pending_steps
                    tap.pending_steps = 0
                    if steps > budget:
                        raise StepBudgetExceeded(budget, **self._forensics())
                fiber = ready.popleft()
                if fiber.state is not READY:
                    continue
                # -- inlined fiber trampoline (see Fiber.step) --------
                value = fiber.resume_value
                fiber.resume_value = None
                self.steps = steps  # live count for instruments (see __init__)
                try:
                    call = fiber.send(value)
                except StopIteration as stop:  # fiber finished
                    fiber.state = DONE
                    fiber.result = stop.value
                    if recorder is not None:
                        recorder.append(("D", fiber.rank))
                    continue
                except SimMPIError:
                    fiber.state = FAILED
                    raise
                except SchedulerInterrupt:
                    # Deliberate unwind (snapshot engine): not a crash,
                    # propagate unwrapped.
                    raise
                except BaseException as exc:
                    fiber.state = FAILED
                    raise FiberCrashed(fiber.rank, exc) from exc

                cls = call.__class__
                if cls is Send:
                    steps += 1
                    if steps > budget:
                        raise StepBudgetExceeded(budget, **self._forensics())
                    if recorder is not None:
                        recorder.append(
                            ("S", fiber.rank, call.context_id, call.src,
                             call.dst, call.tag, len(call.payload))
                        )
                    if tracer is not None:
                        tracer.emit(
                            "send", fiber.rank,
                            ctx=call.context_id, src=call.src, dst=call.dst,
                            tag=call.tag, nbytes=len(call.payload),
                        )
                    self._sending_rank = fiber.rank
                    handle_send(call)
                    ready.append(fiber)
                elif cls is Recv:
                    steps += 1
                    if steps > budget:
                        raise StepBudgetExceeded(budget, **self._forensics())
                    if handle_recv(fiber, call):
                        ready.append(fiber)
                elif cls is Progress:
                    steps += call.weight
                    if steps > budget:
                        raise StepBudgetExceeded(budget, **self._forensics())
                    if recorder is not None:
                        recorder.append(("P", fiber.rank, call.weight))
                    ready.append(fiber)
                # Subclassed syscalls take the original generic path.
                elif isinstance(call, Send):
                    steps += 1
                    if steps > budget:
                        raise StepBudgetExceeded(budget, **self._forensics())
                    if recorder is not None:
                        recorder.append(
                            ("S", fiber.rank, call.context_id, call.src,
                             call.dst, call.tag, len(call.payload))
                        )
                    if tracer is not None:
                        tracer.emit(
                            "send", fiber.rank,
                            ctx=call.context_id, src=call.src, dst=call.dst,
                            tag=call.tag, nbytes=len(call.payload),
                        )
                    self._sending_rank = fiber.rank
                    handle_send(call)
                    ready.append(fiber)
                elif isinstance(call, Recv):
                    steps += 1
                    if steps > budget:
                        raise StepBudgetExceeded(budget, **self._forensics())
                    if handle_recv(fiber, call):
                        ready.append(fiber)
                elif isinstance(call, Progress):
                    steps += call.weight
                    if steps > budget:
                        raise StepBudgetExceeded(budget, **self._forensics())
                    if recorder is not None:
                        recorder.append(("P", fiber.rank, call.weight))
                    ready.append(fiber)
                else:  # pragma: no cover - defensive
                    raise TypeError(f"fiber {fiber.rank} yielded {call!r}")

                if not ready and waiting:
                    raise self._deadlock()
        finally:
            self.steps = steps

        if waiting:
            raise self._deadlock()
        return [f.result for f in self.fibers]
