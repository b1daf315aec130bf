"""Ports and consumer groups (the tuple-stream plumbing)."""

import pytest

from repro.sim import Port, SimulationClock
from repro.sim.streams import ConsumerGroup


def port(mode="pipelined", producers=2, total=100.0):
    return Port(
        side="left",
        mode=mode,
        coefficient=2.0,
        expected_producers=producers,
        local_total=total,
    )


class TestPort:
    def test_receive_accumulates(self):
        p = port()
        p.receive(10.0, 0, now=1.0)
        p.receive(5.0, 0, now=2.0)
        assert p.pending == 15.0
        assert p.first_arrival == 1.0

    def test_closed_after_all_eos(self):
        p = port(producers=2)
        assert not p.stream_closed
        p.receive(0.0, 1, now=0.0)
        assert not p.stream_closed
        p.receive(0.0, 1, now=0.0)
        assert p.stream_closed

    def test_drained_requires_closed_and_empty(self):
        p = port(producers=1)
        p.receive(10.0, 1, now=0.0)
        assert p.stream_closed and not p.drained
        p.pending = 0.0
        assert p.drained

    def test_base_ports_always_closed(self):
        p = port(mode="base", producers=0)
        assert p.stream_closed

    def test_too_many_eos_rejected(self):
        p = port(producers=1)
        p.receive(0.0, 1, now=0.0)
        with pytest.raises(RuntimeError, match="EOS"):
            p.receive(0.0, 1, now=0.0)

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            port().receive(-1.0, 0, now=0.0)

    def test_chunk_cap(self):
        p = port(total=64.0)
        assert p.chunk_cap(batches=8) == 8.0

    def test_chunk_cap_zero_total(self):
        p = port(total=0.0)
        assert p.chunk_cap(batches=8) == float("inf")


class TestConsumerGroup:
    def test_deliver_splits_evenly(self):
        clock = SimulationClock()
        ports = [port(producers=1) for _ in range(4)]
        group = ConsumerGroup(ports, latency=0.5)
        group.deliver(clock, 100.0)
        clock.run()
        assert all(p.pending == 25.0 for p in ports)
        assert all(p.first_arrival == 0.5 for p in ports)

    def test_deliver_eos_reaches_all(self):
        clock = SimulationClock()
        ports = [port(producers=1) for _ in range(3)]
        group = ConsumerGroup(ports, latency=0.0)
        group.deliver_eos(clock)
        clock.run()
        assert all(p.stream_closed for p in ports)

    def test_deliver_store_combines_data_and_eos(self):
        clock = SimulationClock()
        ports = [port(producers=5) for _ in range(2)]
        group = ConsumerGroup(ports, latency=1.0)
        group.deliver_store(clock, 100.0, producers=5)
        clock.run()
        assert all(p.pending == 50.0 for p in ports)
        assert all(p.stream_closed for p in ports)

    def test_zero_delivery_is_noop(self):
        clock = SimulationClock()
        group = ConsumerGroup([port()], latency=0.0)
        group.deliver(clock, 0.0)
        assert clock.pending() == 0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ConsumerGroup([], latency=0.0)
