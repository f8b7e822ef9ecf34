"""Observation infrastructure for the paper's metrics (Section 6).

Every experiment wires one :class:`ObservationLog` into all protocol
nodes.  It is the one thing a node tells about three kinds of events:

* **generation** — a block was created (globally unique per block);
  the miner knows it at once, so this is also the miner's arrival;
* **arrival** — a node first learned of a block;
* **tip change** — a node's main-chain tip moved.

Built with the run's tracer, the log also writes each event's trace
row (``block_gen``, ``block_arrival``, ``tip_change``), so a trace
carries every fact the metrics read except each node's genesis tip,
which is seeded with no row.

The metric calculators in the sibling modules are pure functions over
this log, so the same infrastructure serves Bitcoin, GHOST, and
Bitcoin-NG without protocol-specific code.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..obs.trace import Tracer, short_hash


@dataclass(frozen=True)
class BlockInfo:
    """Global facts about one generated block."""

    hash: bytes
    parent: bytes
    miner: int
    gen_time: float
    work: int
    kind: str  # "block" (Bitcoin/GHOST), "key", or "micro" (Bitcoin-NG)
    n_tx: int
    size: int


class BlockIndex:
    """Registry of every block generated during an execution."""

    def __init__(self) -> None:
        self._infos: dict[bytes, BlockInfo] = {}
        self._cum_work: dict[bytes, int] = {}

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._infos

    def __len__(self) -> int:
        return len(self._infos)

    def add(self, info: BlockInfo) -> None:
        if info.hash in self._infos:
            raise ValueError("duplicate block generation recorded")
        self._infos[info.hash] = info
        if info.parent in self._cum_work:
            self._cum_work[info.hash] = self._cum_work[info.parent] + info.work
        else:
            # A root (genesis or the first block recorded).
            self._cum_work[info.hash] = info.work

    def info(self, block_hash: bytes) -> BlockInfo:
        return self._infos[block_hash]

    def get(self, block_hash: bytes) -> BlockInfo | None:
        return self._infos.get(block_hash)

    def cumulative_work(self, block_hash: bytes) -> int:
        """Work up to a block; 0 for unrecorded roots (the genesis)."""
        return self._cum_work.get(block_hash, 0)

    def all_blocks(self) -> list[BlockInfo]:
        return list(self._infos.values())

    def chain(self, tip: bytes) -> tuple[bytes, ...]:
        """Ancestor chain ending at ``tip`` (inclusive).

        Only blocks present in the index appear; the recorded root of
        the execution is the first element.
        """
        path: list[bytes] = []
        cursor: bytes | None = tip
        while cursor is not None and cursor in self._infos:
            path.append(cursor)
            cursor = self._infos[cursor].parent
        path.reverse()
        return tuple(path)


@dataclass
class TipHistory:
    """One node's tip over time, queryable at any instant."""

    times: list[float] = field(default_factory=list)
    tips: list[bytes] = field(default_factory=list)

    def tip_at(self, time: float) -> bytes | None:
        """The tip in force at ``time`` (None before the first record)."""
        index = bisect.bisect_right(self.times, time) - 1
        if index < 0:
            return None
        return self.tips[index]


class ObservationLog:
    """All events of one execution, shared by every node."""

    def __init__(self, n_nodes: int, tracer: Tracer | None = None) -> None:
        self.n_nodes = n_nodes
        self.tracer = tracer
        self.index = BlockIndex()
        self.arrivals: list[dict[bytes, float]] = [{} for _ in range(n_nodes)]
        self.tip_histories: list[TipHistory] = [TipHistory() for _ in range(n_nodes)]
        self.end_time = 0.0

    def record_generation(self, info: BlockInfo) -> None:
        """A block was created; its miner has it from that instant."""
        self.index.add(info)
        self.arrivals[info.miner].setdefault(info.hash, info.gen_time)
        if self.tracer is not None:
            self.tracer.emit(
                "block_gen",
                info.gen_time,
                hash=short_hash(info.hash),
                parent=short_hash(info.parent),
                kind=info.kind,
                miner=info.miner,
                size=info.size,
                n_tx=info.n_tx,
            )

    def record_arrival(
        self, node: int, block_hash: bytes, time: float, kind: str
    ) -> None:
        """``node`` received ``block_hash`` from a peer.

        Only the first time counts for the metrics; the trace gets a
        row for every call.
        """
        self.arrivals[node].setdefault(block_hash, time)
        if self.tracer is not None:
            self.tracer.block_arrival(time, node, short_hash(block_hash), kind)

    def record_tip(
        self, node: int, tip: bytes, time: float, height: int | None = None
    ) -> None:
        """``node``'s tip moved to ``tip`` at ``height``.

        A call without ``height`` seeds a node's genesis tip and writes
        no trace row: the trace has never carried it.
        """
        history = self.tip_histories[node]
        times = history.times
        if times and time < times[-1]:
            raise ValueError("tip history must be recorded in time order")
        times.append(time)
        history.tips.append(tip)
        if height is not None and self.tracer is not None:
            self.tracer.tip_change(time, node, short_hash(tip), height)

    def arrival_time(self, node: int, block_hash: bytes) -> float | None:
        return self.arrivals[node].get(block_hash)

    def finalize(self, end_time: float) -> None:
        """Mark the end of the observation window."""
        self.end_time = end_time

    @property
    def duration(self) -> float:
        """The window's length: it opens at time 0."""
        return self.end_time

    def final_consensus_tip(self) -> bytes:
        """The tip most nodes hold at the end — "the" main chain.

        Ties broken by cumulative work then hash, deterministically.
        """
        votes: dict[bytes, int] = {}
        for history in self.tip_histories:
            tip = history.tip_at(self.end_time)
            if tip is not None:
                votes[tip] = votes.get(tip, 0) + 1
        if not votes:
            raise ValueError("no tips recorded")
        return max(
            votes,
            key=lambda h: (votes[h], self.index.cumulative_work(h), h),
        )

    def main_chain(self) -> tuple[bytes, ...]:
        """The final consensus chain (see :meth:`final_consensus_tip`)."""
        return self.index.chain(self.final_consensus_tip())
