from repro.protocols import ProtocolAdapter


class QuietResyncAdapter(ProtocolAdapter):
    name = "quiet-resync"

    def build_nodes(self, config, sim, network, log, shares):
        return [], None

    def resync(self, node, *, sim):
        node.reset_relay_state()
