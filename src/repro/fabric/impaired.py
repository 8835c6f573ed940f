"""Network impairments as a fabric wrapper: loss, duplication, reordering.

DART's resilience story (paper sections 3.1 and 6) rests on the RNIC's
own validation -- stale PSNs, bad iCRC and out-of-bounds DMAs are dropped
silently while redundancy absorbs the gaps.  :class:`ImpairedFabric`
exercises that machinery with real frames: it wraps any inner fabric and,
per frame, may drop it (loss), deliver it twice (duplication) or hold it
so the next frame for the same endpoint overtakes it (reordering).

Accounting is exact by construction and property-tested: every offered
frame is either dropped by the impairment (counted in
``frames_dropped_loss``) or handed to the inner fabric, whose delivery
counters in turn reconcile with the NICs' ``frames_received`` -- no
divergence between fabric counters and what endpoints saw.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.fabric.fabric import Fabric, FabricCounters, FabricPort
from repro.rdma.frames import FrameBatch


class ImpairedFabric(Fabric):
    """Wraps another fabric, impairing frames before they reach it.

    Parameters
    ----------
    inner:
        The transport that performs actual delivery (any :class:`Fabric`).
    loss / duplication / reordering:
        Independent per-frame probabilities in [0, 1].  A reordered frame
        is held and delivered immediately *after* the next frame sent to
        the same endpoint (an adjacent swap -- enough to exercise the
        PSN stale-window logic); held frames are released by
        :meth:`flush` / :meth:`poll` at the latest.
    seed:
        Seed for the impairment draws, for reproducible scenarios.
    loss_model:
        Optional object with a ``deliver() -> bool`` method (e.g.
        :class:`~repro.network.simulation.LossModel`) that replaces the
        internal Bernoulli loss draw, letting deployments share one seeded
        loss process across layers.
    """

    def __init__(
        self,
        inner: Fabric,
        *,
        loss: float = 0.0,
        duplication: float = 0.0,
        reordering: float = 0.0,
        seed: int = 0,
        loss_model=None,
    ) -> None:
        for name, probability in (
            ("loss", loss),
            ("duplication", duplication),
            ("reordering", reordering),
        ):
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"{name} probability must be in [0, 1], got {probability}"
                )
        super().__init__()
        self.inner = inner
        self.loss = loss
        self.duplication = duplication
        self.reordering = reordering
        self._loss_model = loss_model
        self._rng = random.Random(seed)
        #: At most one held (reordered) frame per endpoint.
        self._held: Dict[int, bytes] = {}

    def __repr__(self) -> str:
        return (
            f"ImpairedFabric(loss={self.loss}, dup={self.duplication}, "
            f"reorder={self.reordering}, inner={self.inner!r})"
        )

    # ------------------------------------------------------------------
    # Endpoint registry: delegated to the inner fabric
    # ------------------------------------------------------------------

    def attach(self, endpoint_id: int, port: FabricPort) -> None:
        """Register an endpoint on the inner fabric."""
        self.inner.attach(endpoint_id, port)

    def detach(self, endpoint_id: int) -> FabricPort:
        """Remove an endpoint binding on the inner fabric."""
        return self.inner.detach(endpoint_id)

    def rebind(self, endpoint_id: int, port: FabricPort) -> Optional[FabricPort]:
        """Repoint an endpoint ID at a new port on the inner fabric."""
        return self.inner.rebind(endpoint_id, port)

    def port(self, endpoint_id: int) -> FabricPort:
        """Look up an endpoint on the inner fabric."""
        return self.inner.port(endpoint_id)

    def endpoint_ids(self) -> List[int]:
        """Endpoint IDs attached to the inner fabric."""
        return self.inner.endpoint_ids()

    @property
    def delivered(self) -> FabricCounters:
        """The inner fabric's counters (what actually reached endpoints)."""
        return self.inner.counters

    # ------------------------------------------------------------------
    # Impairment draws
    # ------------------------------------------------------------------

    def _lost(self) -> bool:
        if self._loss_model is not None:
            return not self._loss_model.deliver()
        return self.loss > 0.0 and self._rng.random() < self.loss

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def send(self, endpoint_id: int, frame: bytes) -> Optional[bool]:
        """Offer one frame, applying loss, reordering and duplication.

        Returns False for frames lost in flight, None for frames held for
        reordering, and otherwise whatever the inner fabric returned for
        the frame's own delivery.
        """
        counters = self.counters
        counters.c_offered.inc()
        self._observe_offered(frame)
        tracer = self._tracer
        if self._lost():
            counters.c_dropped_loss.inc()
            if tracer.enabled:
                # A lost frame's journey ends here: terminal span, and
                # the drop status tail-retains its trace.
                tracer.finish_frame(
                    frame, "fabric.impair", "dropped:loss", status="drop"
                )
            return False

        held = self._held.pop(endpoint_id, None)
        if held is None and self.reordering > 0.0 and (
            self._rng.random() < self.reordering
        ):
            # Hold this frame; the next frame to this endpoint overtakes it.
            self._held[endpoint_id] = frame
            counters.c_reordered.inc()
            if tracer.enabled:
                tracer.frame_span(frame, "fabric.impair", "held:reorder")
            return None

        # Inner delivery may finish the frame's trace binding; snapshot
        # the causal position first so a duplicate can fork from it.
        dup_ctx = None
        if tracer.enabled and self.duplication > 0.0:
            dup_ctx = tracer.frame_context(frame)
        result = self.inner.send(endpoint_id, frame)
        if held is not None:
            # The held frame lands *after* the newer one: an adjacent swap.
            if tracer.enabled:
                tracer.frame_span(held, "fabric.impair", "released:reorder")
            self.inner.send(endpoint_id, held)
        if self.duplication > 0.0 and self._rng.random() < self.duplication:
            counters.c_duplicated.inc()
            if tracer.enabled:
                tracer.rebind_frame(frame, dup_ctx)
                tracer.frame_span(frame, "fabric.impair", "duplicated")
            self.inner.send(endpoint_id, frame)
        return result

    def send_batch(self, batch: FrameBatch) -> Optional[int]:
        """Offer a columnar batch, impairing each frame independently.

        Impairment draws happen per frame in emission order -- the exact
        RNG sequence of per-frame :meth:`send` on the same frames -- so a
        seeded scenario impairs identically on both paths.  Surviving rows
        then reach the inner fabric as columnar runs; held (reordered) and
        duplicated frames are materialised as bytes, exactly as the scalar
        path would deliver them, and their delivery results are ignored in
        the return value just as :meth:`send` ignores them.
        """
        tracer = self._tracer
        count = batch.count
        counters = self.counters
        counters.c_offered.inc(count)
        if self._h_frame_bytes.enabled and count:
            self._h_frame_bytes.observe_many(batch.width, count)
        try:
            if count == 0:
                return 0
            frames = batch.frames
            endpoint_ids = batch.endpoint_ids
            # Plan entries: a row index (primary delivery, kept columnar)
            # or an (endpoint_id, bytes) side delivery (released hold or
            # duplicate) whose result the scalar path also discards.
            plan: List[Union[int, Tuple[int, bytes]]] = []
            lost = reordered = duplicated = 0
            for row in range(count):
                endpoint_id = int(endpoint_ids[row])
                if self._lost():
                    lost += 1
                    continue
                held = self._held.pop(endpoint_id, None)
                if held is None and self.reordering > 0.0 and (
                    self._rng.random() < self.reordering
                ):
                    self._held[endpoint_id] = frames[row].tobytes()
                    reordered += 1
                    continue
                plan.append(row)
                if held is not None:
                    plan.append((endpoint_id, held))
                if self.duplication > 0.0 and (
                    self._rng.random() < self.duplication
                ):
                    duplicated += 1
                    plan.append((endpoint_id, frames[row].tobytes()))
            if lost:
                counters.c_dropped_loss.inc(lost)
            if reordered:
                counters.c_reordered.inc(reordered)
            if duplicated:
                counters.c_duplicated.inc(duplicated)
            traced = tracer.enabled and batch.trace_ctx is not None
            if traced and (lost or reordered or duplicated):
                tracer.batch_span(
                    batch,
                    "fabric.impair",
                    f"lost={lost} reordered={reordered} "
                    f"duplicated={duplicated}",
                    status="drop" if lost else "ok",
                )
            executed: Optional[int] = 0
            run: List[int] = []

            def flush_run() -> None:
                nonlocal executed
                if not run:
                    return
                result = self.inner.send_batch(
                    batch.select(np.asarray(run, dtype=np.int64))
                )
                if result is None:
                    executed = None
                elif executed is not None:
                    executed += result
                del run[:]

            for item in plan:
                if isinstance(item, tuple):
                    flush_run()
                    self.inner.send(*item)
                else:
                    run.append(item)
            flush_run()
            if traced and batch.trace_ctx is not None:
                # Surviving runs finished the shared context through the
                # inner fabric's delivery; if nothing survived, this is
                # the terminal span (first-finish-wins makes it a no-op
                # otherwise).
                tracer.finish_batch(
                    batch,
                    "fabric.deliver",
                    f"{type(self.inner).__name__}:rows=0 executed=0",
                    status="drop",
                )
            if reordered:
                executed = None
            return executed
        finally:
            batch.release()

    def flush(self) -> int:
        """Release held frames, then flush the inner fabric."""
        released = 0
        for endpoint_id in list(self._held):
            frame = self._held.pop(endpoint_id)
            self.inner.send(endpoint_id, frame)
            released += 1
        return released + self.inner.flush()

    def pending(self) -> int:
        """Held frames plus whatever the inner fabric has queued."""
        return len(self._held) + self.inner.pending()

    def poll(self, endpoint_id: int) -> list:
        """Release any held frame for the endpoint, then poll through."""
        held = self._held.pop(endpoint_id, None)
        if held is not None:
            self.inner.send(endpoint_id, held)
        return self.inner.poll(endpoint_id)
