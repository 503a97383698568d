"""Asyncio front end for the sharded unlearning service.

:class:`AsyncShardedGateway` is the traffic-facing layer: concurrent
callers (one logical tenant each) submit predictions and GDPR deletion
requests as coroutines, while a single dispatcher coroutine drains the
tenant queues into a :class:`~repro.sharding.microbatch.ShardedMicroBatcher`
and resolves the callers' futures from the batched answers.

Design points:

* **Per-tenant bounded queues.** Each tenant gets its own
  ``asyncio.Queue`` of depth ``max_queue_depth``; a deletion storm from
  one tenant fills *that tenant's* queue without starving the others.
* **Admission control.** ``admission="block"`` applies backpressure: a
  submitter awaiting a full queue simply suspends until the dispatcher
  drains it. ``admission="reject"`` sheds load instead, raising
  :class:`GatewayOverloaded` immediately (callers may retry with
  backoff).
* **Round-robin fairness.** The dispatcher drains tenants round-robin,
  one request per tenant per pass, so a heavy tenant cannot monopolise
  the batcher.
* **Ordering.** Requests are fed to the batcher in drain order, and the
  batcher preserves the unsharded interleaving contract per shard (a
  prediction never observes a deletion drained after it). Per tenant,
  submission order equals drain order (FIFO queue).

The gateway never blocks the event loop on model work for longer than one
micro-batch dispatch; everything else is queue shuffling.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.exceptions import HedgeCutError
from repro.dataprep.dataset import Record
from repro.serving.audit import AuditEntry
from repro.sharding.microbatch import ShardedMicroBatcher

#: Admission-control policies for a full tenant queue.
ADMISSION_MODES = ("block", "reject")


class GatewayOverloaded(HedgeCutError):
    """A tenant queue is full and the gateway is in ``reject`` mode."""


@dataclass(frozen=True)
class GatewayConfig:
    """Admission and dispatch policy of an :class:`AsyncShardedGateway`.

    Attributes:
        max_queue_depth: per-tenant bound; the backpressure point.
        admission: ``"block"`` (await space) or ``"reject"`` (shed load).
        drain_limit: max requests the dispatcher feeds to the batcher per
            pass before flushing and yielding to the event loop; bounds the
            latency any single pass can add.
    """

    max_queue_depth: int = 256
    admission: str = "block"
    drain_limit: int = 256

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, got "
                f"{self.admission!r}"
            )
        if self.drain_limit < 1:
            raise ValueError("drain_limit must be >= 1")


@dataclass
class GatewayStats:
    """Admission and dispatch accounting."""

    n_accepted: int = 0
    n_rejected: int = 0
    n_dispatched: int = 0
    n_passes: int = 0
    queue_high_water: dict[str, int] = field(default_factory=dict)

    def accepted_per_tenant(self) -> dict[str, int]:
        return dict(self._per_tenant)

    _per_tenant: dict[str, int] = field(default_factory=dict)


class _Request:
    __slots__ = ("kind", "record", "request_id", "overrun", "future")

    def __init__(self, kind, record, request_id, overrun, future):
        self.kind = kind
        self.record = record
        self.request_id = request_id
        self.overrun = overrun
        self.future = future


class AsyncShardedGateway:
    """Concurrent front end over a shard-aware micro-batcher.

    Use as an async context manager (starts/stops the dispatcher), or call
    :meth:`start` / :meth:`stop` explicitly::

        async with AsyncShardedGateway(batcher) as gateway:
            label = await gateway.predict("tenant-a", record)
            entry = await gateway.unlearn("tenant-b", "gdpr-1", record)
    """

    def __init__(
        self,
        batcher: ShardedMicroBatcher,
        config: GatewayConfig | None = None,
    ) -> None:
        self.batcher = batcher
        self.config = config or GatewayConfig()
        self.stats = GatewayStats()
        self._queues: dict[str, asyncio.Queue[_Request]] = {}
        self._wake = asyncio.Event()
        self._running = False
        self._dispatcher: asyncio.Task | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        if self._running:
            raise HedgeCutError("gateway already started")
        self._running = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Drain every queue, then stop the dispatcher."""
        if not self._running:
            return
        self._running = False
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None

    async def __aenter__(self) -> "AsyncShardedGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def n_queued(self) -> int:
        return sum(queue.qsize() for queue in self._queues.values())

    # ------------------------------------------------------------------ #
    # submission (tenant side)
    # ------------------------------------------------------------------ #

    def _queue_for(self, tenant: str) -> asyncio.Queue:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = asyncio.Queue(maxsize=self.config.max_queue_depth)
            self._queues[tenant] = queue
        return queue

    async def _admit(self, tenant: str, request: _Request) -> None:
        if not self._running:
            raise HedgeCutError("gateway is not running; use 'async with'")
        queue = self._queue_for(tenant)
        if self.config.admission == "reject":
            try:
                queue.put_nowait(request)
            except asyncio.QueueFull:
                self.stats.n_rejected += 1
                raise GatewayOverloaded(
                    f"tenant {tenant!r} queue full "
                    f"({self.config.max_queue_depth} pending); retry later"
                ) from None
        else:
            await queue.put(request)
        self.stats.n_accepted += 1
        self.stats._per_tenant[tenant] = self.stats._per_tenant.get(tenant, 0) + 1
        depth = queue.qsize()
        if depth > self.stats.queue_high_water.get(tenant, 0):
            self.stats.queue_high_water[tenant] = depth
        self._wake.set()

    async def predict(self, tenant: str, record) -> int:
        """Aggregated hard-vote label for one record, micro-batched."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._admit(tenant, _Request("predict", record, None, False, future))
        return await future

    async def predict_proba(self, tenant: str, record) -> float:
        """Aggregated soft-vote probability for one record, micro-batched."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._admit(tenant, _Request("proba", record, None, False, future))
        return await future

    async def unlearn(
        self,
        tenant: str,
        request_id: str,
        record: Record,
        allow_budget_overrun: bool = False,
    ) -> AuditEntry:
        """Serve one deletion durably; resolves to the shard's audit entry."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._admit(
            tenant,
            _Request("unlearn", record, request_id, allow_budget_overrun, future),
        )
        return await future

    # ------------------------------------------------------------------ #
    # dispatch (service side)
    # ------------------------------------------------------------------ #

    def _drain_round(self) -> list[_Request]:
        """Round-robin: up to one request per tenant per cycle, bounded."""
        drained: list[_Request] = []
        while len(drained) < self.config.drain_limit:
            progressed = False
            for queue in self._queues.values():
                if len(drained) >= self.config.drain_limit:
                    break
                if not queue.empty():
                    drained.append(queue.get_nowait())
                    progressed = True
            if not progressed:
                break
        return drained

    def _serve(self, drained: list[_Request]) -> None:
        """Feed one drained pass through the batcher and resolve futures."""
        pairs = []
        for request in drained:
            try:
                if request.kind == "predict":
                    handle = self.batcher.submit_predict(request.record)
                elif request.kind == "proba":
                    handle = self.batcher.submit_predict_proba(request.record)
                else:
                    handle = self.batcher.submit_unlearn(
                        request.request_id,
                        request.record,
                        allow_budget_overrun=request.overrun,
                    )
            except Exception as error:  # admission-time failure: this one only
                if not request.future.done():
                    request.future.set_exception(error)
                continue
            pairs.append((request, handle))
        try:
            self.batcher.flush_unlearns()
            self.batcher.flush()
        except Exception as error:
            # A dispatch failure poisons the whole pass: requests whose
            # batch never dispatched get its error rather than hanging.
            for request, handle in pairs:
                if not request.future.done() and not handle.done:
                    request.future.set_exception(error)
        for request, handle in pairs:
            if request.future.done():
                continue
            try:
                request.future.set_result(handle.result())
            except Exception as error:  # the handle's own batch failed
                request.future.set_exception(error)
        self.stats.n_dispatched += len(pairs)
        self.stats.n_passes += 1

    async def _dispatch_loop(self) -> None:
        while True:
            drained = self._drain_round()
            if drained:
                self._serve(drained)
                # Yield so submitters can refill queues between passes.
                await asyncio.sleep(0)
                continue
            if not self._running:
                return
            self._wake.clear()
            # Re-check: a request may have been admitted between the empty
            # drain and clearing the event.
            if self.n_queued:
                continue
            await self._wake.wait()
