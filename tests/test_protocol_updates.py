"""Speculative update scenarios (paper §2.4)."""

import pytest

from repro.common import small
from repro.network.message import EMPTY_PAYLOAD, MsgType
from repro.protocol.requester import WASTED_UPDATE_PAYLOAD
from repro.sim import Barrier, Compute, Read, System, Write

from test_protocol_delegation import LINE, pc_ops


@pytest.fixture
def upd4():
    return small(num_nodes=4)


def leaving_consumer_ops():
    """Producer 1 writes every round; consumer 2 reads only in the first
    five, so later pushes to it are invalidated unread."""
    ops = [[] for _ in range(4)]
    bid = 0
    for it in range(12):
        ops[1].append(Write(LINE))
        for s in ops:
            s.append(Barrier(bid))
        bid += 1
        if it < 5:
            ops[2].append(Compute(300))
            ops[2].append(Read(LINE))
        for s in ops:
            s.append(Barrier(bid))
        bid += 1
    return ops


class TestDelayedIntervention:
    def test_intervention_fires_after_delay(self, upd4):
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=8))
        assert res.stats.get("update.intervention", 0) >= 1

    def test_updates_pushed_to_previous_consumers(self, upd4):
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=10))
        assert res.stats.get("update.sent", 0) >= 1
        assert res.stats.get("msg.sent.UPDATE", 0) >= 1

    def test_updates_convert_remote_misses_to_local(self, upd4):
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=10))
        assert res.stats.get("hit.rac_update", 0) >= 1
        assert res.stats.get("miss.local", 0) >= 1

    def test_every_update_acknowledged(self, upd4):
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=10))
        assert (res.stats.get("msg.sent.UPDATE_ACK", 0)
                == res.stats.get("msg.sent.UPDATE", 0))

    def test_zero_delay_still_correct(self, upd4):
        cfg = upd4.with_protocol(intervention_delay=0)
        system = System(cfg)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=8))
        assert res.cycles > 0  # coherence checker active throughout

    def test_huge_delay_means_no_updates(self, upd4):
        cfg = upd4.with_protocol(intervention_delay=10 ** 9)
        system = System(cfg)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=8))
        assert res.stats.get("update.sent", 0) == 0

    def test_write_burst_interrupted_by_short_delay(self, upd4):
        """A too-short delay downgrades mid-burst, causing extra upgrade
        misses (the paper's Figure 9 low-end effect)."""
        def burst_ops(delay_cfg):
            ops = [[] for _ in range(4)]
            bid = 0
            for _ in range(6):
                for _ in range(4):
                    ops[1].append(Write(LINE))
                    ops[1].append(Compute(40))
                for s in ops:
                    s.append(Barrier(bid))
                bid += 1
                ops[2].append(Compute(300))
                ops[2].append(Read(LINE))
                for s in ops:
                    s.append(Barrier(bid))
                bid += 1
            return ops

        short = System(upd4.with_protocol(intervention_delay=5))
        short.address_map.place_range(LINE, 128, 0)
        res_short = short.run(burst_ops(5))
        long = System(upd4.with_protocol(intervention_delay=500))
        long.address_map.place_range(LINE, 128, 0)
        res_long = long.run(burst_ops(500))
        assert (res_short.stats.get("miss.write", 0)
                >= res_long.stats.get("miss.write", 0))


class TestHomeSelfUpdates:
    def test_updates_fire_when_producer_is_home(self, upd4):
        """First-touch places boundary data at the producer: no delegation
        possible or needed, updates must still fire."""
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 1)  # home == producer 1
        res = system.run(pc_ops(iters=10))
        assert res.stats.get("dele.delegate", 0) == 0
        assert res.stats.get("update.sent", 0) >= 1
        assert res.stats.get("hit.rac_update", 0) >= 1


class TestUpdateAccuracy:
    def test_wasted_updates_counted_when_consumer_leaves(self, upd4):
        """Consumers that stop reading keep receiving updates for a while;
        those updates are invalidated unconsumed and counted wasted."""
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(leaving_consumer_ops())
        assert res.stats.get("update.wasted", 0) >= 1

    def test_multiple_consumers_all_updated(self, upd4):
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=10, consumers=(2, 3)))
        # Steady state pushes one update per consumer per write.
        assert res.stats.get("update.sent", 0) >= 6
        assert res.stats.get("update.consumed", 0) >= 4


class TestSequentialConsistencyUnderUpdates:
    def test_interleaved_write_read_stress(self, upd4):
        """Dense interleaving with updates on; the online checker would
        raise on any stale read."""
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        ops = [[] for _ in range(4)]
        bid = 0
        for it in range(15):
            ops[1].append(Write(LINE))
            ops[1].append(Compute(20 + 7 * (it % 5)))
            for s in ops:
                s.append(Barrier(bid))
            bid += 1
            for consumer in (0, 2, 3):
                ops[consumer].append(Compute(10 + 13 * consumer))
                ops[consumer].append(Read(LINE))
            for s in ops:
                s.append(Barrier(bid))
            bid += 1
        res = system.run(ops)
        assert res.stats.get("update.sent", 0) > 0
        assert res.cycles > 0


def record_sends(system):
    """Wrap every hub's ``send``; returns the list of (now, src, mtype,
    payload) tuples it fills.  Only the payload is kept, never the
    message: a held message would stay out of the pool, and a pooled one
    has its payload reset on release."""
    sent = []
    events = system.events
    for hub in system.hubs:
        def send(msg, forward=hub.send):
            sent.append((events.now, msg.src, msg.mtype, msg.payload))
            forward(msg)
        hub.send = send
    return sent


def fan_outs(sent, mtype):
    """Sends of ``mtype`` grouped by (cycle, sender): one group per
    broadcast, since a fan-out leaves one hub within one event."""
    groups = {}
    for now, src, kind, payload in sent:
        if kind is mtype:
            groups.setdefault((now, src), []).append(payload)
    return list(groups.values())


class TestSharedBroadcastPayloads:
    """A broadcast builds its payload once, as a read-only mapping that
    every message of the fan-out shares."""

    def assert_shared(self, groups):
        assert any(len(group) > 1 for group in groups)
        for group in groups:
            assert all(payload is group[0] for payload in group)
            with pytest.raises(TypeError):
                group[0]["collector"] = 99

    def three_readers_then_writer(self, config):
        """Nodes 0, 2 and 3 read the line, then node 1 writes it."""
        system = System(config)
        system.address_map.place_range(LINE, 128, 0)
        sent = record_sends(system)
        system.run([[Read(LINE), Barrier(0)], [Barrier(0), Write(LINE)],
                    [Read(LINE), Barrier(0)], [Read(LINE), Barrier(0)]])
        return sent

    def test_home_inv_fan_out_shares_one_payload(self, base4):
        groups = fan_outs(self.three_readers_then_writer(base4), MsgType.INV)
        assert [len(group) for group in groups] == [3]
        self.assert_shared(groups)
        assert dict(groups[0][0]) == {"collector": 1}

    def test_producer_inv_and_update_pushes_share_one_payload(self, upd4):
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        sent = record_sends(system)
        res = system.run(pc_ops(iters=10, consumers=(2, 3)))
        assert res.stats.get("dele.delegate", 0) >= 1
        self.assert_shared(fan_outs(sent, MsgType.INV))
        self.assert_shared(fan_outs(sent, MsgType.UPDATE))

    def test_plain_inv_ack_carries_empty_payload(self, base4):
        sent = self.three_readers_then_writer(base4)
        acks = [payload for _, _, kind, payload in sent
                if kind is MsgType.INV_ACK]
        assert len(acks) == 3
        assert all(payload is EMPTY_PAYLOAD for payload in acks)

    def test_inv_dropping_unread_update_reports_it(self, upd4):
        system = System(upd4)
        system.address_map.place_range(LINE, 128, 0)
        sent = record_sends(system)
        res = system.run(leaving_consumer_ops())
        acks = [payload for _, _, kind, payload in sent
                if kind is MsgType.INV_ACK]
        assert any(payload is WASTED_UPDATE_PAYLOAD for payload in acks)
        assert all(payload is EMPTY_PAYLOAD
                   or payload is WASTED_UPDATE_PAYLOAD for payload in acks)
        assert res.stats.get("update.strike", 0) >= 1
