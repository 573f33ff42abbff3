"""Differentials for the gateway's one columnar downstream data path.

Two contracts are under test.  ``EpcGateway.process_downstream_batch``
(and every layer under it — frame codec, batched routing, grouped DPE
dispatch) gives byte-, counter- and trajectory-identical results however a
frame stream is split into batches; ``process_downstream`` is a batch of
one.  And every output agrees with the chaos package's independent
single-node ``ReferenceGateway`` built from the scalar codecs.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.oracle import (
    DELIVERED,
    MALFORMED,
    UNKNOWN,
    ReferenceFlow,
    ReferenceGateway,
)
from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.cluster.fabric import SwitchFabric
from repro.core.delta import GroupDelta
from repro.epc import fastpath
from repro.epc.dpe import DataPlaneEngine
from repro.epc.gateway import EpcGateway
from repro.epc.packets import (
    EthernetHeader,
    FlowTuple,
    PROTO_TCP,
    PROTO_UDP,
    build_downstream_frame,
    extract_flow,
    ipv4_checksum,
    parse_frame,
    parse_ip,
)
from repro.epc.traffic import (
    GATEWAY_MAC,
    GENERATOR_MAC,
    FlowGenerator,
    run_downstream_trial,
)
from repro.obs.metrics import MetricsRegistry

NUM_NODES = 6


def scalar_parse(frame: bytes):
    """The scalar codec's view of one frame (None when it raises)."""
    try:
        _eth, l3 = parse_frame(frame)
        flow, header, _rest = extract_flow(l3)
    except ValueError:
        return None
    return (
        flow.key(), flow.src_ip, flow.dst_ip, flow.protocol,
        flow.sport, flow.dport, header.ttl, header.dscp,
        header.identification, header.total_length,
    )


def make_frame(flow, payload=b"x" * 18, ttl=64, ihl=5, dscp=0, ident=0):
    """Hand-rolled downstream frame with full header control."""
    l4 = struct.pack("!HHHH", flow.sport, flow.dport, 8 + len(payload), 0)
    hdr_len = ihl * 4
    options = bytes(range(1, hdr_len - 20 + 1))
    total_length = hdr_len + len(l4) + len(payload)
    head = struct.pack(
        "!BBHHHBBH4s4s", (4 << 4) | ihl, dscp, total_length, ident, 0,
        ttl, flow.protocol, 0,
        struct.pack("!I", flow.src_ip), struct.pack("!I", flow.dst_ip),
    ) + options
    checksum = ipv4_checksum(head[:10] + b"\x00\x00" + head[12:hdr_len])
    l3 = head[:10] + struct.pack("!H", checksum) + head[12:]
    return EthernetHeader(GATEWAY_MAC, GENERATOR_MAC).pack() + l3 + l4 + payload


def build_gateway(seed=7, flows=400, rate=None, num_nodes=NUM_NODES):
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, num_nodes, parse_ip("192.0.2.1"),
        rate_limit_bytes_per_s=rate,
    )
    gen = FlowGenerator(seed=seed)
    flow_list = gen.populate(gateway, flows)
    gateway.start()
    return gateway, flow_list, gen


def force_fallback_group(gateway, flow):
    """Push one flow's whole GPT group into the exact fallback table.

    Rebuilds the group as *failed* on every replica, upserting every
    established key that lives in it, so routing stays correct while the
    lookup path exercises the vectorised ``np.searchsorted`` probe.
    """
    setsep = gateway.cluster.nodes[0].gpt.setsep
    group = setsep.group_of(flow.key())
    upserts = tuple(
        (record.key, record.handling_node)
        for record in gateway.controller.flows.values()
        if setsep.group_of(record.key) == group
    )
    delta = GroupDelta(
        group_id=group,
        failed=True,
        indices=(0,) * setsep.params.value_bits,
        arrays=(0,) * setsep.params.value_bits,
        fallback_upserts=upserts,
    )
    for node in gateway.cluster.nodes:
        node.gpt.setsep.apply_delta(delta)
    return len(upserts)


def strip_fastpath(counters):
    return {
        name: value for name, value in counters.items()
        if not name.startswith("gateway.fastpath")
    }


def mirror_reference(gateway):
    """A ``ReferenceGateway`` holding the controller's current records."""
    reference = ReferenceGateway(gateway.gateway_ip)
    for record in gateway.controller.flows.values():
        reference.insert(ReferenceFlow(
            key=record.key,
            teid=record.teid,
            node=record.handling_node,
            base_station_ip=record.base_station_ip,
            flow=record.flow,
        ))
    reference.acl_blocked_sources = set(gateway.acl_blocked_sources)
    return reference


def assert_matches_reference(reference, frames, outputs, charged):
    """Every output agrees with the independent reference gateway.

    ``charged`` is the per-TEID bytes the gateway charged for ``frames``.
    Known keys may only be dropped as node-down or policed.
    """
    expected_charges = {}
    for frame, (result, out) in zip(frames, outputs):
        expected = reference.expect_downstream(frame)
        if expected.kind == MALFORMED:
            assert (result.dropped, result.reason, out) == (
                True, "malformed", None
            )
        elif expected.kind == "acl":
            assert (result.dropped, result.reason, out) == (True, "acl", None)
        elif expected.kind == UNKNOWN:
            assert result.dropped and out is None
            assert result.reason in ("unknown_key", "node_down")
        else:
            assert expected.kind == DELIVERED
            if out is None:
                assert result.dropped
                assert result.reason in ("node_down", "policed")
                continue
            assert (result.handled_by, result.value) == (
                expected.node, expected.teid
            )
            assert out == expected.payload
            expected_charges[expected.teid] = (
                expected_charges.get(expected.teid, 0) + expected.charge
            )
    assert charged == expected_charges


def replay(gateway, frames, ingress=None, chunks=(1,)):
    """Feed ``frames`` in chunks cycling through ``chunks`` sizes.

    A chunk of one goes through ``process_downstream``.
    """
    outputs, start, turn = [], 0, 0
    while start < len(frames):
        size = chunks[turn % len(chunks)]
        turn += 1
        part = frames[start:start + size]
        pinned = None if ingress is None else ingress[start:start + size]
        start += size
        if size == 1:
            node = None if pinned is None else pinned[0]
            outputs.append(gateway.process_downstream(part[0], node))
        else:
            outputs.extend(gateway.process_downstream_batch(part, pinned))
    return outputs


def assert_equivalent(gw_twin, gw_batch, frames, ingress=None, chunks=(1,)):
    """Drive both gateways and compare every observable output.

    The twin replays the stream in ``chunks``-sized pieces (batches of one
    by default); the other gateway takes it as one batch, which must also
    agree with the reference gateway.
    """
    reference = mirror_reference(gw_batch)
    charged_before = dict(gw_batch.stats.bytes_charged)
    twin = replay(gw_twin, frames, ingress, chunks)
    batched = gw_batch.process_downstream_batch(frames, ingress)
    charged = {
        teid: total - charged_before.get(teid, 0)
        for teid, total in gw_batch.stats.bytes_charged.items()
        if total != charged_before.get(teid, 0)
    }
    assert_matches_reference(reference, frames, batched, charged)
    assert len(batched) == len(twin)
    for ref, out in zip(twin, batched):
        assert ref == out
    assert gw_twin.stats.bytes_charged == gw_batch.stats.bytes_charged
    assert strip_fastpath(gw_twin.registry.counters()) == strip_fastpath(
        gw_batch.registry.counters()
    )
    assert gw_twin.now == gw_batch.now
    assert (
        gw_twin.cluster.fabric.stats == gw_batch.cluster.fabric.stats
    )
    for node_a, node_b in zip(gw_twin.cluster.nodes, gw_batch.cluster.nodes):
        assert vars(node_a.counters) == vars(node_b.counters)
    for dpe_a, dpe_b in zip(gw_twin.dpes, gw_batch.dpes):
        assert dpe_a.policed_drops == dpe_b.policed_drops
        for teid, ctx_a in dpe_a._flows.items():
            ctx_b = dpe_b._flows[teid]
            assert (
                ctx_a.state, ctx_a.downlink_bytes, ctx_a.downlink_packets,
                ctx_a.last_activity,
            ) == (
                ctx_b.state, ctx_b.downlink_bytes, ctx_b.downlink_packets,
                ctx_b.last_activity,
            )
    return batched


class TestParseFrames:
    def test_matches_scalar_on_structured_frames(self):
        gen = FlowGenerator(seed=1)
        flows = gen.flows(50)
        frames = []
        for i, flow in enumerate(flows):
            frames.append(make_frame(flow, ttl=1 + i % 200, ihl=5 + i % 4,
                                     dscp=i % 256, ident=i * 37 % 65536))
        frames += [b"", b"\x00" * 13, b"\x00" * 14, b"\xff" * 60]
        parsed = fastpath.parse_frames(frames)
        for i, frame in enumerate(frames):
            ref = scalar_parse(frame)
            if ref is None:
                assert parsed.malformed[i]
                continue
            assert not parsed.malformed[i]
            got = (
                int(parsed.keys[i]), int(parsed.src_ip[i]),
                int(parsed.dst_ip[i]), int(parsed.protocol[i]),
                int(parsed.sport[i]), int(parsed.dport[i]),
                int(parsed.ttl[i]), int(parsed.dscp[i]),
                int(parsed.identification[i]), int(parsed.total_length[i]),
            )
            assert got == ref
        assert parsed.scalar_spills > 0  # the IHL>5 frames

    def test_bad_checksum_and_truncated_l4_are_malformed(self):
        flow = FlowTuple(0x0A000001, 0x0A000002, PROTO_UDP, 1000, 2000)
        good = make_frame(flow)
        corrupted = bytearray(good)
        corrupted[24] ^= 0xFF  # inside the IPv4 header, after the length
        ip_only = good[:14] + good[14:34] + b""  # 20-byte L3, UDP proto
        parsed = fastpath.parse_frames([good, bytes(corrupted), ip_only])
        assert not parsed.malformed[0]
        assert parsed.malformed[1]
        assert parsed.malformed[2]  # UDP but no room for ports
        for i, frame in enumerate([good, bytes(corrupted), ip_only]):
            assert (scalar_parse(frame) is None) == bool(parsed.malformed[i])

    def test_non_l4_protocol_has_zero_ports(self):
        flow = FlowTuple(0x01020304, 0x05060708, 47, 0, 0)  # GRE
        frame = make_frame(flow)
        parsed = fastpath.parse_frames([frame])
        assert not parsed.malformed[0]
        assert int(parsed.sport[0]) == 0 and int(parsed.dport[0]) == 0
        assert int(parsed.keys[0]) == flow.key()

    def test_degenerate_flags(self):
        flow = FlowTuple(0x0A000001, 0x0A000002, PROTO_UDP, 1000, 2000)
        assert not fastpath.parse_frames([make_frame(flow)]).degenerate
        assert fastpath.parse_frames([make_frame(flow, ttl=0)]).degenerate

    @given(st.lists(st.binary(min_size=0, max_size=80), max_size=30))
    @settings(max_examples=75, deadline=None)
    def test_random_bytes_differential(self, blobs):
        parsed = fastpath.parse_frames(blobs)
        for i, frame in enumerate(blobs):
            ref = scalar_parse(frame)
            if ref is None:
                assert parsed.malformed[i]
            else:
                assert not parsed.malformed[i]
                assert int(parsed.keys[i]) == ref[0]
                assert int(parsed.ttl[i]) == ref[6]


class TestEncapsulateBatch:
    def test_byte_identical_to_scalar_egress(self):
        gateway, flows, gen = build_gateway(flows=64)
        frames = [make_frame(f, ttl=9, ihl=5 + i % 3, dscp=3, ident=77)
                  for i, f in enumerate(flows[:40])]
        reference = [gateway.process_downstream(f) for f in frames]
        gateway2, _, _ = build_gateway(flows=64)
        batched = gateway2.process_downstream_batch(frames)
        for (_, ref), (_, out) in zip(reference, batched):
            assert ref == out
            assert ref is not None
        assert_matches_reference(
            mirror_reference(gateway2), frames, batched,
            gateway2.stats.bytes_charged,
        )


class TestGatewayDifferential:
    def test_ten_thousand_mixed_frames(self):
        """The acceptance-criteria batch: >= 10k valid/malformed/unknown/
        fallback frames, byte-identical outputs and counters."""
        gw_a, flows, gen_a = build_gateway(seed=13, flows=600)
        gw_b, _, gen_b = build_gateway(seed=13, flows=600)
        fallback_size_a = force_fallback_group(gw_a, flows[0])
        fallback_size_b = force_fallback_group(gw_b, flows[0])
        assert fallback_size_a == fallback_size_b > 0

        rng = np.random.default_rng(99)
        frames = gen_a.packet_stream(flows, 9000)
        _ = gen_b.packet_stream(flows, 9000)  # keep generator streams equal
        frames += [make_frame(flows[0]) for _ in range(200)]  # fallback keys
        unknown = [
            build_downstream_frame(
                GENERATOR_MAC, GATEWAY_MAC,
                FlowTuple(
                    int(rng.integers(1, 2**31)), int(rng.integers(1, 2**31)),
                    PROTO_TCP, int(rng.integers(1, 65535)), 443,
                ),
                b"u" * 12,
            )
            for _ in range(600)
        ]
        malformed = [b"", b"\x01" * 7, b"\xab" * 33, frames[0][:21]]
        corrupt = bytearray(frames[1])
        corrupt[25] ^= 0x55
        malformed.append(bytes(corrupt))
        options = [make_frame(f, ihl=6) for f in flows[:120]]
        pool = frames + unknown + malformed * 40 + options
        assert len(pool) >= 10_000
        order = rng.permutation(len(pool))
        pool = [pool[int(i)] for i in order]

        # The twin takes the stream in mixed chunks, batches of one
        # included, to bound the test's time.
        batched = assert_equivalent(
            gw_a, gw_b, pool, chunks=(1, 257, 3, 1024, 1, 64)
        )
        counters = gw_b.registry.counters()
        assert counters["gateway.fastpath.frames"] == len(pool)
        assert counters["gateway.fastpath.batches"] == 1
        assert counters["setsep.fallback_hits"] > 0
        assert counters["gateway.drops.malformed"] >= 200
        assert counters["gateway.drops.unknown_flow"] >= 600
        delivered = sum(1 for _r, t in batched if t is not None)
        assert delivered > 8000

    def test_acl_and_down_nodes(self):
        gw_a, flows, gen = build_gateway(seed=3, flows=200)
        gw_b, _, _ = build_gateway(seed=3, flows=200)
        for gw in (gw_a, gw_b):
            gw.acl_blocked_sources.update(
                {flows[0].src_ip, flows[3].src_ip}
            )
            gw.down_nodes.add(1)
        frames = gen.packet_stream(flows, 2500)
        assert_equivalent(gw_a, gw_b, frames)
        assert gw_b.registry.counters()["gateway.drops.acl"] > 0
        assert gw_b.registry.counters()["gateway.drops.node_down"] > 0

    def test_policer_differential(self):
        gw_a, flows, gen = build_gateway(seed=5, flows=30, rate=120.0)
        gw_b, _, _ = build_gateway(seed=5, flows=30, rate=120.0)
        frames = gen.packet_stream(flows, 1500)
        assert_equivalent(gw_a, gw_b, frames)
        assert gw_b.registry.counters()["gateway.drops.policed"] > 0

    def test_drop_counters_partition_the_input(self):
        """Every frame is tunnelled or lands in exactly one drop counter."""
        gw_a, flows, gen = build_gateway(seed=4, flows=40, rate=120.0)
        gw_b, _, _ = build_gateway(seed=4, flows=40, rate=120.0)
        for gw in (gw_a, gw_b):
            gw.acl_blocked_sources.add(flows[0].src_ip)
            gw.down_nodes.add(2)
        unknown = gen.packet_stream(gen.flows(30), 60)
        malformed = [b"", b"\x01" * 9, b"\xab" * 40]
        pool = gen.packet_stream(flows, 1200) + unknown + malformed * 10
        order = np.random.default_rng(6).permutation(len(pool))
        assert_equivalent(gw_a, gw_b, [pool[int(i)] for i in order])
        for gw in (gw_a, gw_b):
            counters = gw.registry.counters()
            drops = {
                name: value for name, value in counters.items()
                if name.startswith("gateway.drops.")
            }
            for reason in ("malformed", "acl", "node_down", "unknown_flow",
                           "policed"):
                assert drops[f"gateway.drops.{reason}"] > 0, reason
            assert counters["gateway.downstream.packets_in"] == len(pool)
            assert counters["gateway.downstream.packets_in"] == (
                counters["gateway.downstream.tunnelled"] + sum(drops.values())
            )

    def test_controller_columns_follow_bearer_churn(self):
        """Recycled TEIDs, re-homes and handovers reach the batch path."""
        gw_a, flows, gen = build_gateway(seed=12, flows=120)
        gw_b, _, _ = build_gateway(seed=12, flows=120)
        rng = np.random.default_rng(5)
        live, fresh = list(flows), gen.flows(20)
        moved_to = parse_ip("198.51.100.7")
        for _round in range(4):
            for _pair in range(5):
                gone = live.pop(int(rng.integers(len(live))))
                new = fresh.pop()
                old_teid = gw_a.controller.record_for_key(gone.key()).teid
                for gw in (gw_a, gw_b):
                    assert gw.disconnect(gone)
                    record = gw.connect(new, gen.base_station_for(new))
                    assert record.teid == old_teid  # recycled
                live.append(new)
            rehomed = live[int(rng.integers(len(live)))]
            home = gw_a.controller.record_for_key(rehomed.key()).handling_node
            for gw in (gw_a, gw_b):
                gw.rehome_flow(rehomed, (home + 1) % NUM_NODES)
            handed = live[int(rng.integers(len(live)))]
            for gw in (gw_a, gw_b):
                gw.controller.handover(handed, moved_to)
            frames = gen.packet_stream(live + [gone], 300)
            frames += [make_frame(handed)] * 3
            batched = assert_equivalent(gw_a, gw_b, frames)
            peers = {
                struct.unpack("!I", out[16:20])[0]
                for _r, out in batched[-3:]
            }
            assert peers == {moved_to}

    def test_fib_teid_mismatch_raises(self):
        """A FIB value that is not the controller's TEID stops both paths."""
        gw_a, flows, _gen = build_gateway(seed=9, flows=30)
        gw_b, _, _ = build_gateway(seed=9, flows=30)
        frames = [make_frame(flows[i]) for i in range(6)]
        for gw in (gw_a, gw_b):
            record = gw.controller.record_for_key(flows[3].key())
            gw.cluster.nodes[record.handling_node].install_route(
                record.key, record.handling_node, record.teid + 1000
            )
        with pytest.raises(AssertionError):
            for frame in frames:
                gw_a.process_downstream(frame)
        with pytest.raises(AssertionError, match="not the controller's TEID"):
            gw_b.process_downstream_batch(frames)

    def test_pinned_and_mixed_ingress(self):
        gw_a, flows, gen = build_gateway(seed=8, flows=100)
        gw_b, _, _ = build_gateway(seed=8, flows=100)
        frames = gen.packet_stream(flows, 900)
        ingress = [
            None if i % 4 == 0 else int(i % NUM_NODES)
            for i in range(len(frames))
        ]
        assert_equivalent(gw_a, gw_b, frames, ingress)

    def test_degenerate_batch_raises_like_scalar(self):
        """A TTL-0 or oversized frame refuses its batch with no side effect."""
        for case in ("ttl", "oversized"):
            gateway, flows, gen = build_gateway(seed=2, flows=20)
            fresh, _, _ = build_gateway(seed=2, flows=20)
            if case == "ttl":
                bad, message = make_frame(flows[1], ttl=0), "TTL expired"
            else:
                payload = b"z" * fastpath.MAX_INNER
                bad, message = make_frame(flows[2], payload), "too large"
            frames = [make_frame(flows[0]), bad]
            with pytest.raises(ValueError, match=message):
                gateway.process_downstream_batch(frames)
            with pytest.raises(ValueError, match=message):
                gateway.process_downstream(bad, 1)
            assert gateway.registry.counters() == fresh.registry.counters()
            assert gateway.stats.bytes_charged == fresh.stats.bytes_charged
            assert gateway.now == fresh.now
            assert gateway.cluster.fabric.stats == fresh.cluster.fabric.stats
            # No ingress pick was drawn: the RNG streams still agree.
            assert_equivalent(fresh, gateway, gen.packet_stream(flows, 40))

    def test_length_mismatch_raises(self):
        gateway, flows, gen = build_gateway(flows=10)
        fresh, _, _ = build_gateway(flows=10)
        frames = gen.packet_stream(flows, 4)
        with pytest.raises(ValueError, match="lengths differ"):
            gateway.process_downstream_batch(frames, [0])
        # An out-of-range pinned ingress is refused before any counter
        # moves (no negative indexing into the node list).
        for node in (-1, NUM_NODES):
            with pytest.raises(ValueError, match=f"ingress node {node} "):
                gateway.process_downstream_batch(frames, [0, None, node, 1])
            with pytest.raises(ValueError, match=f"ingress node {node} "):
                gateway.process_downstream(frames[0], node)
        assert gateway.registry.counters() == fresh.registry.counters()
        for node_a, node_b in zip(gateway.cluster.nodes, fresh.cluster.nodes):
            assert vars(node_a.counters) == vars(node_b.counters)

    def test_batched_trial_matches_scalar_trial(self):
        gw_a, flows, gen_a = build_gateway(seed=21, flows=150)
        gw_b, _, gen_b = build_gateway(seed=21, flows=150)
        frames_a = gen_a.packet_stream(flows, 1200)
        frames_b = gen_b.packet_stream(flows, 1200)
        assert frames_a == frames_b
        stats_a = run_downstream_trial(gw_a, frames_a, batch_size=1)
        stats_b = run_downstream_trial(gw_b, frames_b, batch_size=128)
        assert (stats_a.offered, stats_a.delivered, stats_a.dropped) == (
            stats_b.offered, stats_b.delivered, stats_b.dropped
        )
        assert stats_a.hop_histogram == stats_b.hop_histogram
        assert gw_a.stats.bytes_charged == gw_b.stats.bytes_charged


class TestCounterAccounting:
    def test_no_double_count_between_cluster_and_setsep(self):
        """Satellite: the fast path must count each lookup once.

        Every packet the PFE routes does exactly one GPT lookup, so
        ``setsep.lookups`` equals ``cluster.scalebricks.routed`` on both
        the scalar and the batched path (``repro stats --json`` surfaces
        both counters).
        """
        for batched in (False, True):
            gateway, flows, gen = build_gateway(seed=31, flows=120)
            frames = gen.packet_stream(flows, 800)
            if batched:
                gateway.process_downstream_batch(frames)
            else:
                for frame in frames:
                    gateway.process_downstream(frame)
            counters = gateway.registry.counters()
            assert (
                counters["setsep.lookups"]
                == counters["cluster.scalebricks.routed"]
                == len(frames)
            )

    def test_stats_json_exposes_matching_counters(self, capsys):
        import json

        from repro.cli import main

        assert main(
            ["stats", "--flows", "200", "--packets", "300", "--json"]
        ) == 0
        parsed = json.loads(capsys.readouterr().out)
        counters = parsed["counters"]
        assert (
            counters["setsep.lookups"]
            == counters["cluster.scalebricks.routed"]
            == 300
        )


class TestDpeBatch:
    def test_process_batch_matches_scalar(self):
        scalar, batched = DataPlaneEngine(), DataPlaneEngine()
        rng = np.random.default_rng(4)
        for engine in (scalar, batched):
            for teid in range(1, 9):
                engine.open_bearer(teid, now=0.0)
            engine.open_bearer(
                99, now=0.0, rate_limit_bytes_per_s=50.0, burst_bytes=100.0
            )
        teids = rng.integers(1, 11, size=400)  # includes unknown teid 10
        teids[teids == 10] = 99
        unknown = rng.integers(0, 400, size=25)
        teids[unknown] = 1234  # never opened
        sizes = rng.integers(40, 1500, size=400)
        nows = 0.001 * np.arange(1, 401)
        expected = np.array([
            scalar.process(int(t), int(s), True, float(n))
            for t, s, n in zip(teids, sizes, nows)
        ])
        got = batched.process_batch(teids, sizes, downlink=True, nows=nows)
        assert np.array_equal(expected, got)
        assert scalar.policed_drops == batched.policed_drops
        for teid in list(range(1, 9)) + [99]:
            ctx_a, ctx_b = scalar.context(teid), batched.context(teid)
            assert (
                ctx_a.downlink_bytes, ctx_a.downlink_packets,
                ctx_a.last_activity, ctx_a.state,
            ) == (
                ctx_b.downlink_bytes, ctx_b.downlink_packets,
                ctx_b.last_activity, ctx_b.state,
            )


class TestFabricBatch:
    def test_deliver_batch_matches_scalar(self):
        fabric_a, fabric_b = SwitchFabric(5), SwitchFabric(5)
        rng = np.random.default_rng(6)
        srcs = rng.integers(0, 5, size=300)
        dsts = rng.integers(0, 5, size=300)
        lat_a = [fabric_a.deliver(int(s), int(d), 64) for s, d in zip(srcs, dsts)]
        lat_b = fabric_b.deliver_batch(srcs, dsts, 64)
        assert np.allclose(lat_a, lat_b)
        assert fabric_a.stats == fabric_b.stats

    def test_deliver_batch_validates_nodes(self):
        fabric = SwitchFabric(3)
        with pytest.raises(ValueError, match="not attached"):
            fabric.deliver_batch(np.array([0, 5]), np.array([1, 1]))


class TestClusterBatch:
    def test_scalebricks_route_batch_differential(self):
        for fabric_backend in ("crossbar", "fattree"):
            self.check_route_batch_differential(fabric_backend)

    @staticmethod
    def check_route_batch_differential(fabric_backend):
        rng = np.random.default_rng(17)
        keys = rng.integers(1, 2**62, size=2000, dtype=np.uint64)
        owners = rng.integers(0, 4, size=2000).tolist()
        values = rng.integers(1, 2**30, size=2000).tolist()
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        cluster_a = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, owners, values,
            registry=reg_a, fabric_backend=fabric_backend,
        )
        cluster_b = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, owners, values,
            registry=reg_b, fabric_backend=fabric_backend,
        )
        reg_a.reset()
        reg_b.reset()
        probe = np.concatenate(
            [keys[:1500], rng.integers(1, 2**62, size=500, dtype=np.uint64)]
        )
        ingress = [int(i % 4) for i in range(probe.size)]
        reference = [
            cluster_a.route(int(k), i) for k, i in zip(probe, ingress)
        ]
        batch = cluster_b.route_batch(probe, ingress)
        # The summary reads the columns; the per-packet tuple is built
        # only on first iteration or indexing.
        assert len(batch) == len(reference)
        assert batch.delivered_count == sum(r.delivered for r in reference)
        assert batch.mean_hops == pytest.approx(
            np.mean([r.internal_hops for r in reference])
        )
        assert batch[100:900:7].delivered_count == sum(
            r.delivered for r in reference[100:900:7]
        )
        assert batch._results is None
        window = batch[1490:1510]
        assert list(window) == reference[1490:1510]
        assert batch._results is None
        assert batch[1499] == reference[1499]
        assert batch[-1] == reference[-1]
        assert list(batch) == reference
        assert list(batch[::5]) == reference[::5]
        assert reg_a.snapshot() == reg_b.snapshot()
        for node_a, node_b in zip(cluster_a.nodes, cluster_b.nodes):
            assert vars(node_a.counters) == vars(node_b.counters)
        assert cluster_a.fabric.stats == cluster_b.fabric.stats

    def test_pick_ingress_batch_matches_stream(self):
        cluster_a = Cluster.build(
            Architecture.SCALEBRICKS, 4, [1, 2, 3], [0, 1, 2], [5, 6, 7]
        )
        cluster_b = Cluster.build(
            Architecture.SCALEBRICKS, 4, [1, 2, 3], [0, 1, 2], [5, 6, 7]
        )
        scalar = [cluster_a.pick_ingress() for _ in range(257)]
        batched = cluster_b.pick_ingress_batch(257)
        assert scalar == batched.tolist()
