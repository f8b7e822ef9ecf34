"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.metrics import (
    BlockInfo,
    ObservationLog,
    consensus_delay,
    fairness,
    mining_power_utilization,
    time_to_prune,
    time_to_win,
    transaction_frequency,
)
from repro.mining.power import exponential_shares


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` spies on ``owner.name`` for the test
    and returns the list its calls' positional arguments are logged to."""

    def install(owner, name):
        real = getattr(owner, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    return install


class StubRng:
    """A scripted rng for tie tests.

    ``random()`` returns ``draws`` in turn (the last one repeats),
    ``choice`` takes the first option, and ``calls`` counts both.  At a
    two-way tie every tree keeps the held branch on a draw below 0.5 and
    takes the newcomer on one at or above it.
    """

    def __init__(self, *draws):
        self.draws = list(draws)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.draws.pop(0) if len(self.draws) > 1 else self.draws[0]

    def choice(self, options):
        self.calls += 1
        return options[0]


def nothing_armed(node) -> bool:
    """No getdata of ``node`` is outstanding and none of its retry
    timers is live on the event heap.

    The run's one timer queue (``sim.request_timers``) holds at most
    one heap entry; an entry for a request that was satisfied or reset
    stays there, cancelled, until it reaches the top, and the queue's
    other timers are live only while ``_requested`` holds their
    sequence numbers.
    """
    return not node._requested and not any(
        getattr(callback, "__self__", None) is node
        and handle is not None
        and not handle.cancelled
        for _time, _seq, callback, _args, handle in node.sim._heap
    )


#: Work by block kind at the experiments' fixed difficulty: a trace row
#: carries the kind, not the work.
TRACE_WORK = {"block": 2, "key": 2, "micro": 0}


def log_from_trace(records: list[dict], n_nodes: int) -> ObservationLog:
    """The observation log rebuilt from a trace's ``block_gen``,
    ``block_arrival`` and ``tip_change`` rows, keyed by 6-byte short
    hashes.  Genesis, which the trace never names as a block, is the one
    parent among the generated blocks that none of them is; every node
    holds it from time 0."""
    gens = [r for r in records if r["ev"] == "block_gen"]
    [genesis] = {r["parent"] for r in gens} - {r["hash"] for r in gens}
    log = ObservationLog(n_nodes)
    for node in range(n_nodes):
        log.record_tip(node, bytes.fromhex(genesis), 0.0)
    for r in records:
        ev = r["ev"]
        if ev == "block_gen":
            log.record_generation(
                BlockInfo(
                    hash=bytes.fromhex(r["hash"]),
                    parent=bytes.fromhex(r["parent"]),
                    miner=r["miner"],
                    gen_time=r["t"],
                    work=TRACE_WORK[r["kind"]],
                    kind=r["kind"],
                    n_tx=r["n_tx"],
                    size=r["size"],
                )
            )
        elif ev == "block_arrival":
            log.record_arrival(r["node"], bytes.fromhex(r["hash"]), r["t"], r["kind"])
        elif ev == "tip_change":
            log.record_tip(r["node"], bytes.fromhex(r["tip"]), r["t"], r["height"])
        elif ev == "trace_end":
            log.finalize(r["t"])
    return log


@pytest.fixture
def check_trace_metrics():
    """``check_trace_metrics(records, result, log)`` asserts that the six
    Section 6 metrics recomputed from the trace alone equal the run's
    ``result`` exactly; ``log`` is the run's own log, which must weigh
    each block as :data:`TRACE_WORK` says."""

    def check(records, result, log):
        weights = {(info.kind, info.work) for info in log.index.all_blocks()}
        assert weights <= TRACE_WORK.items()
        config = result.config
        rebuilt = log_from_trace(records, config.n_nodes)
        shares = exponential_shares(config.n_nodes, config.power_exponent)
        assert {
            "consensus_delay": consensus_delay(rebuilt),
            "fairness": fairness(rebuilt, power_shares=shares),
            "mining_power_utilization": mining_power_utilization(rebuilt),
            "time_to_prune": time_to_prune(rebuilt),
            "time_to_win": time_to_win(rebuilt),
            "transaction_frequency": transaction_frequency(rebuilt),
        } == result.as_row()

    return check
