"""The protocol adapters: one uniform surface per protocol.

Every consensus protocol the harness can run — Bitcoin, GHOST and
Bitcoin-NG — is described by a :class:`ProtocolAdapter`: how to build
its nodes and mining scheduler for an experiment, and how its nodes
react to lifecycle faults (crash, restart, resync).  The experiment
runner and the fault-injection scenario engine both work exclusively
through this interface, via :func:`get_adapter`.

The set is closed: :data:`_ADAPTERS` maps each :class:`Protocol` member
to its adapter, and ``ExperimentConfig.protocol`` accepts only a member
or its wire name.  Adding a protocol means a new :class:`Protocol`
member plus an adapter class here — never editing the runner.  The enum
is re-exported from :mod:`repro.experiments.config`.
"""

from __future__ import annotations

import abc
import enum
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NoReturn

from .bitcoin.blocks import make_genesis
from .bitcoin.node import BitcoinNode, BlockPolicy, ChainNode
from .core.genesis import make_ng_genesis
from .core.node import MicroblockPolicy, NGNode
from .core.params import NGParams
from .ghost.node import GhostNode
from .mining.scheduler import MiningScheduler
from .net.gossip import GossipNode

if TYPE_CHECKING:
    # Type-only: at runtime repro.experiments.config imports *this*
    # module (the Protocol enum lives here), so the reverse import must
    # never execute.
    from .experiments.config import ExperimentConfig
    from .metrics import ObservationLog
    from .net.network import Network
    from .net.simulator import Simulator
    from .sanitizer.checkers import InvariantChecker


class Protocol(enum.Enum):
    """Which consensus protocol an experiment runs."""

    BITCOIN = "bitcoin"
    BITCOIN_NG = "bitcoin-ng"
    GHOST = "ghost"

    @classmethod
    def _missing_(cls, value: object) -> NoReturn:
        raise ValueError(
            f"unknown protocol {value!r}; choose from "
            f"{', '.join(p.value for p in cls)}"
        )


class ProtocolAdapter(abc.ABC):
    """Uniform build and lifecycle surface for one consensus protocol.

    ``build_nodes`` is the construction half: given an experiment
    configuration and the shared simulation substrate, produce the
    protocol's nodes and the mining scheduler that drives them.  The
    lifecycle half (``on_crash`` / ``on_restart`` / ``resync``) is what
    the :mod:`repro.scenarios` engine calls when it injects node
    faults; the defaults model a protocol-agnostic full node that loses
    volatile relay state on crash and pulls peers' tips on rejoin.
    Subclasses override only what their protocol needs (Bitcoin-NG
    drops leadership on crash, for example).
    """

    @abc.abstractmethod
    def build_nodes(
        self,
        config: ExperimentConfig,
        sim: Simulator,
        network: Network,
        log: ObservationLog,
        shares: list[float],
    ) -> tuple[Sequence[ChainNode], MiningScheduler]:
        """Build the protocol's nodes and the scheduler that mines for them."""

    def current_leader(self, nodes: Sequence[GossipNode]) -> int | None:
        """The node id currently serializing transactions, if the
        protocol has such a role (Bitcoin-NG's epoch leader).  ``None``
        for leaderless protocols; scenario faults addressed to
        ``"leader"`` are then skipped."""
        return None

    def invariant_checkers(self) -> list[InvariantChecker]:
        """Fresh checker instances for ``--check`` runs of this protocol.

        The default is tip monotonicity, the one protocol-agnostic
        check; adapters whose protocols carry richer invariants override
        this (Bitcoin-NG adds the fee-split and leader-signature rules).
        Checkers subclass
        :class:`~repro.sanitizer.checkers.InvariantChecker`.
        """
        from .sanitizer.checkers import TipMonotonicity

        return [TipMonotonicity()]

    def on_crash(
        self, node: GossipNode, *, sim: Simulator, network: Network
    ) -> None:
        """Protocol state reaction to a crash.  The engine has already
        taken the node off the network and zeroed its mining power;
        adapters add protocol-specific teardown on top."""

    def on_restart(
        self, node: GossipNode, *, sim: Simulator, network: Network
    ) -> None:
        """Reaction to a restart; the node is back online.  Default:
        resynchronize with the network."""
        self.resync(node, sim=sim, network=network)

    def resync(
        self, node: GossipNode, *, sim: Simulator, network: Network
    ) -> None:
        """Catch a rejoining node up with its peers.

        Volatile relay bookkeeping is dropped first: a getdata that was
        outstanding when the node went down would otherwise make
        ``_on_inv`` sit on fresh announcements of the same object until
        the request timer expires — the stale-inventory wedge.  Then
        every neighbor is asked for its best tip; the replies flow
        through the ordinary inv → getdata → object path, and orphan
        handling backfills the whole gap by recursive parent fetch.
        """
        node.reset_relay_state()
        node.request_tips()


def _build_block_nodes(
    make_node: Callable[..., BitcoinNode],
    config: ExperimentConfig,
    sim: Simulator,
    network: Network,
    log: ObservationLog,
    shares: list[float],
) -> tuple[list[BitcoinNode], MiningScheduler]:
    """Synthetic full-block nodes plus their block lottery.

    ``make_node`` is the node class (or a partial of it): it takes a
    node's constructor arguments.
    """
    genesis = make_genesis()
    policy = BlockPolicy(
        max_block_bytes=config.block_size_bytes,
        synthetic=True,
        synthetic_tx_size=config.tx_size,
    )
    nodes = [
        make_node(
            i,
            sim,
            network,
            genesis,
            log=log,
            policy=policy,
            relay_mode=config.relay_mode,
            verification_seconds_per_byte=config.verification_seconds_per_byte,
        )
        for i in range(config.n_nodes)
    ]
    scheduler = MiningScheduler(
        sim,
        shares,
        block_rate=config.block_rate,
        on_block=lambda winner: nodes[winner].generate_block(),
    )
    return nodes, scheduler


class BitcoinAdapter(ProtocolAdapter):
    """Heaviest-chain Bitcoin with synthetic full blocks."""

    def build_nodes(
        self,
        config: ExperimentConfig,
        sim: Simulator,
        network: Network,
        log: ObservationLog,
        shares: list[float],
    ) -> tuple[list[BitcoinNode], MiningScheduler]:
        return _build_block_nodes(
            BitcoinNode,
            config,
            sim,
            network,
            log,
            shares,
        )


class GhostAdapter(ProtocolAdapter):
    """Bitcoin block format under the GHOST heaviest-subtree rule."""

    def build_nodes(
        self,
        config: ExperimentConfig,
        sim: Simulator,
        network: Network,
        log: ObservationLog,
        shares: list[float],
    ) -> tuple[list[BitcoinNode], MiningScheduler]:
        return _build_block_nodes(
            GhostNode,
            config,
            sim,
            network,
            log,
            shares,
        )

    def invariant_checkers(self) -> list[InvariantChecker]:
        # Heaviest-subtree fork choice may adopt a tip whose *chain*
        # work is lower than the old tip's, so the default tip-
        # monotonicity checker does not apply; the tree's own from-
        # scratch check of weights and tip does.
        from .sanitizer.checkers import HeaviestSubtreeTip

        return [HeaviestSubtreeTip()]


class BitcoinNGAdapter(ProtocolAdapter):
    """Bitcoin-NG: key-block leader election plus microblock streams."""

    def build_nodes(
        self,
        config: ExperimentConfig,
        sim: Simulator,
        network: Network,
        log: ObservationLog,
        shares: list[float],
    ) -> tuple[list[NGNode], MiningScheduler]:
        micro_interval = 1.0 / config.block_rate
        params = NGParams(
            key_block_interval=1.0 / config.key_block_rate,
            min_microblock_interval=micro_interval,
            max_microblock_bytes=max(
                config.block_size_bytes * 2, config.block_size_bytes + 1024
            ),
        )
        genesis = make_ng_genesis()
        policy = MicroblockPolicy(
            target_bytes=config.block_size_bytes,
            synthetic=True,
            synthetic_tx_size=config.tx_size,
            synthetic_fee_per_tx=config.fee_per_tx,
        )
        nodes = [
            NGNode(
                i,
                sim,
                network,
                genesis,
                params,
                log=log,
                policy=policy,
                microblock_interval=micro_interval,
                relay_mode=config.relay_mode,
                # The paper's testbed "did not implement ... the microblock
                # signature check"; experiments follow suit for speed.
                check_signatures=False,
                verification_seconds_per_byte=config.verification_seconds_per_byte,
                ghost_fork_choice=config.ng_ghost_fork_choice,
            )
            for i in range(config.n_nodes)
        ]
        scheduler = MiningScheduler(
            sim,
            shares,
            block_rate=config.key_block_rate,
            on_block=lambda winner: nodes[winner].generate_key_block(),
        )
        return nodes, scheduler

    def current_leader(self, nodes: Sequence[GossipNode]) -> int | None:
        ng_nodes = [node for node in nodes if isinstance(node, NGNode)]
        for node in ng_nodes:
            if node.is_leader():
                return node.node_id
        if not ng_nodes:
            return None
        # Between a leader learning of its dethroning and anyone taking
        # over, fall back to whoever signed the latest key block.
        latest = ng_nodes[0].chain.latest_key_block()
        pubkey = latest.leader_pubkey
        for node in ng_nodes:
            if node.pubkey_bytes == pubkey:
                return node.node_id
        return None  # genesis epoch: its key belongs to no node

    def on_crash(
        self, node: GossipNode, *, sim: Simulator, network: Network
    ) -> None:
        # A crashed leader publishes no more microblocks; "their
        # influence ends once the next leader publishes his key block"
        # (Section 4).  Abdicating stops the generation timer loop.
        if isinstance(node, NGNode):
            node.abdicate()

    def invariant_checkers(self) -> list[InvariantChecker]:
        from .sanitizer.checkers import ng_checkers

        return ng_checkers()


# -- registry ----------------------------------------------------------------

_ADAPTERS: dict[Protocol, ProtocolAdapter] = {
    Protocol.BITCOIN: BitcoinAdapter(),
    Protocol.GHOST: GhostAdapter(),
    Protocol.BITCOIN_NG: BitcoinNGAdapter(),
}


def get_adapter(protocol: Protocol | str) -> ProtocolAdapter:
    """The adapter for ``protocol`` (enum member or its wire name)."""
    return _ADAPTERS[Protocol(protocol)]
