"""Point-to-point links with latency and bandwidth.

The paper's testbed sets "about 100kbit/sec among each pair of nodes"
with latencies drawn from a measured histogram.  A bulk message
crossing a link experiences serialization delay (size / bandwidth) —
queued FIFO behind earlier bulk messages on the same directed link —
plus fixed propagation latency.  This is what produces the paper's
Figure 7 linear growth of block propagation time with block size.

Small control messages (an inv, a getdata, a ~200-byte key block)
*interleave* with bulk transfers instead of queuing behind them, the
way packets share a real TCP link: a key block does not wait out an
80 kB microblock mid-flight.  Without this, strict FIFO would starve
Bitcoin-NG's leader election at exactly the high-bandwidth extreme the
protocol is designed for — an artifact no real network exhibits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .network import Network

# Paper's setting: ~100 kbit/s between each pair of nodes.
DEFAULT_BANDWIDTH_BPS = 100_000 / 8  # bytes per second

# Messages at or below one MTU interleave with bulk traffic.
SMALL_MESSAGE_CUTOFF = 1500


class LinkView:
    """A read-only window onto one directed edge of a
    :class:`~repro.net.network.Network`'s struct-of-arrays core.

    The network keeps per-link state in flat arrays indexed by edge id
    and applies the link rule itself, in
    :meth:`~repro.net.network.Network.send` and
    :meth:`~repro.net.network.Network.multicast`; this is how callers
    read one link's parameters
    (``net.link(a, b).latency``).  Views are cheap, transient handles:
    every read goes straight through to the owning network's arrays.
    """

    __slots__ = ("_net", "_eid")

    def __init__(self, net: Network, eid: int) -> None:
        self._net = net
        self._eid = eid

    @property
    def latency(self) -> float:
        return self._net._lat[self._eid]

    @property
    def bandwidth(self) -> float:
        return self._net._bw[self._eid]

    @property
    def busy_until(self) -> float:
        return self._net._busy[self._eid]

    @property
    def interleave_cutoff(self) -> int:
        return self._net._interleave_cutoff
