"""Property-based differential test: a burst through
``Firewall.evaluate_batch`` ends exactly as the same packets sent one by
one through ``Firewall.evaluate``.

Both entry points take the firewall's one conntrack-then-chain walk; the
burst only defers its NFQUEUE packets into one daemon call.  On identical
copies (random rules, pre-committed flows, a daemon answering each flow
with a seeded verdict) the two must agree on every verdict, every tracked
flow with its packet and byte counts, every counter, and the flows the
daemon was asked about.  Burst flows are pairwise distinct in both
directions, so no packet can ride an entry another one's verdict creates
(the one place the burst semantics differ by design), and the table is
unbounded, so no commit evicts an entry a later packet would hit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ConnState,
    Firewall,
    FiveTuple,
    Packet,
    Proto,
    Rule,
    Verdict,
)

PORTS = (22, 1023, 1024, 5000, 6000, 50000)

ports = st.sampled_from(PORTS)
protos = st.sampled_from((Proto.TCP, Proto.UDP))
states = st.sampled_from((ConnState.NEW, ConnState.ESTABLISHED))
verdicts = st.sampled_from((Verdict.ACCEPT, Verdict.DROP, Verdict.NFQUEUE))

rules = st.builds(Rule, verdict=verdicts,
                  proto=st.none() | protos,
                  dport_min=st.none() | ports,
                  dport_max=st.none() | ports,
                  state=st.none() | states)


@st.composite
def flows(draw):
    flow = FiveTuple(draw(protos), "c1", draw(ports), "c2", draw(ports))
    return flow.reversed() if draw(st.booleans()) else flow


def connection(flow: FiveTuple) -> tuple:
    """The same key for a flow and its reverse."""
    return (flow.proto, frozenset({(flow.src_host, flow.src_port),
                                   (flow.dst_host, flow.dst_port)}))


packets = st.builds(Packet, flow=flows(), state=states,
                    payload_len=st.integers(min_value=0, max_value=64))
bursts = st.lists(packets, max_size=12,
                  unique_by=lambda pkt: connection(pkt.flow))

#: how the daemon is attached: both entry points, the per-packet one
#: only (the burst falls back to it), never, or bound then unbound
DAEMONS = ("batch", "per-packet", "never-bound", "unbound")


class Daemon:
    """Answers each flow with the verdict seeded for it and records the
    flows it was asked about, in order."""

    def __init__(self, answers: dict):
        self.answers = answers
        self.asked: list[FiveTuple] = []

    def decide(self, pkt: Packet) -> Verdict:
        self.asked.append(pkt.flow)
        return self.answers[connection(pkt.flow)]

    def decide_batch(self, pkts: list[Packet]) -> list[Verdict]:
        return [self.decide(p) for p in pkts]


def build(chain, committed, answers, mode):
    fw = Firewall(rules=list(chain))
    for flow in committed:
        fw.conntrack.commit(flow)
    daemon = Daemon(answers)
    if mode in ("batch", "per-packet", "unbound"):
        fw.bind_nfqueue(daemon.decide)
    if mode in ("batch", "unbound"):
        fw.bind_nfqueue_batch(daemon.decide_batch)
    if mode == "unbound":
        fw.unbind_nfqueue()
    return fw, daemon


def tracked(fw: Firewall) -> dict:
    """Every tracked flow with its counts (LRU order aside: a burst
    commits its daemon ACCEPTs after walking every packet)."""
    table = fw.conntrack._table
    return {flow: (e.packets, e.bytes) for flow, e in table.items()}


@settings(max_examples=150)
@given(chain=st.lists(rules, max_size=5),
       committed=st.lists(flows(), max_size=6),
       burst=bursts,
       seeded=st.lists(st.sampled_from((Verdict.ACCEPT, Verdict.DROP)),
                       min_size=12, max_size=12),
       mode=st.sampled_from(DAEMONS))
def test_burst_matches_packet_by_packet(chain, committed, burst, seeded,
                                        mode):
    answers = {connection(p.flow): v for p, v in zip(burst, seeded)}
    single, single_daemon = build(chain, committed, answers, mode)
    batch, batch_daemon = build(chain, committed, answers, mode)

    one_by_one = [single.evaluate(p) for p in burst]
    assert batch.evaluate_batch(burst) == one_by_one
    assert tracked(batch) == tracked(single)
    assert batch.metrics.report() == single.metrics.report()
    assert batch_daemon.asked == single_daemon.asked
    assert Verdict.NFQUEUE not in one_by_one
    if mode in ("never-bound", "unbound"):
        assert single_daemon.asked == []
