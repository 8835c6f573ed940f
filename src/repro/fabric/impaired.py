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
from typing import Dict, List, Optional, Tuple

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
    """

    def __init__(
        self,
        inner: Fabric,
        *,
        loss: float = 0.0,
        duplication: float = 0.0,
        reordering: float = 0.0,
        seed: int = 0,
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

    def _impair(self, overtaking: bool) -> Optional[int]:
        """One frame's draws, in the one order both entry points share.

        Returns the copies to deliver now: 0 for a frame lost in flight,
        2 for a duplicated one, None for a frame held for reordering
        (never one ``overtaking`` a frame already held for its endpoint).
        """
        rng = self._rng
        if self.loss > 0.0 and rng.random() < self.loss:
            return 0
        if not overtaking and self.reordering > 0.0 and (
            rng.random() < self.reordering
        ):
            return None
        if self.duplication > 0.0 and rng.random() < self.duplication:
            return 2
        return 1

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
        self._h_frame_bytes.observe(len(frame))
        tracer = self._tracer
        copies = self._impair(endpoint_id in self._held)
        if copies == 0:
            counters.c_dropped_loss.inc()
            # A lost frame's journey ends here: terminal span, and the
            # drop status tail-retains its trace.
            tracer.finish_frame(
                frame, "fabric.impair", "dropped:loss", status="drop"
            )
            return False
        if copies is None:
            # Hold this frame; the next frame to this endpoint overtakes it.
            self._held[endpoint_id] = frame
            counters.c_reordered.inc()
            tracer.frame_span(frame, "fabric.impair", "held:reorder")
            return None

        # Inner delivery may finish the frame's trace binding; snapshot
        # the causal position first so a duplicate can fork from it.
        dup_ctx = tracer.frame_context(frame) if copies == 2 else None
        result = self.inner.send(endpoint_id, frame)
        held = self._held.pop(endpoint_id, None)
        if held is not None:
            # The held frame lands *after* the newer one: an adjacent swap.
            tracer.frame_span(held, "fabric.impair", "released:reorder")
            self.inner.send(endpoint_id, held)
        if copies == 2:
            counters.c_duplicated.inc()
            tracer.rebind_frame(frame, dup_ctx)
            tracer.frame_span(frame, "fabric.impair", "duplicated")
            self.inner.send(endpoint_id, frame)
        return result

    def send_batch(self, batch: FrameBatch) -> int:
        """Offer a columnar batch, impairing each frame independently.

        Impairment draws happen per frame in emission order -- the exact
        RNG sequence of per-frame :meth:`send` on the same frames -- so a
        seeded scenario impairs identically on both paths.  Their outcome
        is one array of row indexes -- survivors in emission order, a row
        held inside this batch right after the same-endpoint row that
        overtakes it, a duplicate as its row repeated -- that reaches the
        inner fabric as one sub-batch (the batch itself when nothing was
        impaired).  Only a frame carried in from an earlier call is bytes,
        sent between the rows either side of it; a row still held at the
        end is kept as bytes.  Returns the held rows plus the inner count
        capped at the rows delivered now: a duplicate's second copy and a
        released held row are no row's own delivery (see
        :meth:`Fabric.send_batch` for where that count is exact).
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
            held = self._held
            impair = self._impair
            # Rows held inside this batch, by endpoint (``held`` has bytes).
            waiting: Dict[int, int] = {}
            order: List[int] = []
            # Frames released from ``held`` (at most one per endpoint), and
            # how many rows of ``order`` go before each.
            carried: List[Tuple[int, bytes]] = []
            cuts: List[int] = []
            lost = reordered = duplicated = 0
            for row, endpoint_id in enumerate(batch.endpoint_ids.tolist()):
                copies = impair(endpoint_id in waiting or endpoint_id in held)
                if copies == 0:
                    lost += 1
                    continue
                if copies is None:
                    waiting[endpoint_id] = row
                    reordered += 1
                    continue
                order.append(row)
                if endpoint_id in waiting:
                    order.append(waiting.pop(endpoint_id))
                elif endpoint_id in held:
                    carried.append((endpoint_id, held.pop(endpoint_id)))
                    cuts.append(len(order))
                if copies == 2:
                    duplicated += 1
                    order.append(row)
            for endpoint_id, row in waiting.items():
                held[endpoint_id] = batch.frame_bytes(row)
            counters.c_dropped_loss.inc(lost)
            counters.c_reordered.inc(reordered)
            counters.c_duplicated.inc(duplicated)
            impaired = lost or reordered or duplicated
            if impaired:
                tracer.batch_span(
                    batch,
                    "fabric.impair",
                    f"lost={lost} reordered={reordered} "
                    f"duplicated={duplicated}",
                    status="drop" if lost else "ok",
                )
            if impaired or carried:
                results = []
                runs = np.split(np.asarray(order, dtype=np.int64), cuts)
                for rows, released in zip(runs, [*carried, None]):
                    if len(rows):
                        results.append(self.inner.send_batch(batch.select(rows)))
                    if released is not None:
                        self.inner.send(*released)
            else:
                results = [self.inner.send_batch(batch)]
            if not order:
                # Nothing survived to be finished by the inner fabric's
                # delivery: this is the shared context's terminal span.
                tracer.finish_batch(
                    batch,
                    "fabric.deliver",
                    f"{type(self.inner).__name__}:rows=0 executed=0",
                    status="drop",
                )
            return reordered + min(sum(results), count - lost - reordered)
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
