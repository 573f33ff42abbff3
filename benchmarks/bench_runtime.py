"""Socket-runtime throughput: the wire tax on routing and updates (§4.5).

The in-process simulation routes frames with function calls; the runtime
(`repro.runtime`) pays real costs — framing, TCP on loopback, process
scheduling — for the same decisions.  This module measures that tax:

* ``runtime.route``  — batched frame routing through a live 2-daemon
  cluster vs the in-process shadow gateway on identical frames;
* ``runtime.update`` — the §4.5 update path (owner recompute + FIB
  message + delta broadcast) driven over sockets.

Correctness is asserted before timing (same outcomes, byte-identical
GTP-U output), so the measured wire path is doing the real work.
Registered in the ``full`` perf-lab suite only: the smoke suite must not
spawn child processes.
"""

import time

import numpy as np

from repro import perflab
from repro.cluster.architectures import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator
from repro.obs.metrics import MetricsRegistry
from repro.runtime.controller import RuntimeController
from repro.runtime.launcher import LocalRuntime
from repro.runtime.protocol import OP_INSERT, STATUS_DELIVERED, UpdateOp
from benchmarks.conftest import bench_scale, print_header

NUM_NODES = 2
GATEWAY_IP = parse_ip("192.0.2.1")
FLOWS = 500 * bench_scale()
FRAMES = 2_000 * bench_scale()
UPDATES = 200 * bench_scale()


def _live_cluster(runtime, seed=7, flows=FLOWS):
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, NUM_NODES, GATEWAY_IP,
        registry=MetricsRegistry(),
    )
    generator = FlowGenerator(seed)
    flow_list = generator.populate(gateway, flows)
    gateway.start()
    controller = RuntimeController(runtime.addresses)
    controller.connect()
    controller.bootstrap_from_gateway(gateway)
    return controller, gateway, generator, flow_list


def _mirrored_connects(gateway, generator, count):
    ops = []
    for _ in range(count):
        flow = generator.flows(1)[0]
        record = gateway.connect(
            flow,
            generator.base_station_for(flow),
            generator.region_for(flow),
        )
        ops.append(UpdateOp(
            OP_INSERT, record.key, record.handling_node,
            record.teid, record.base_station_ip,
        ))
    return ops


def test_wire_routing_agrees_with_shadow_and_reports_rate():
    """Route the same frames on the wire and in process; compare both."""
    with LocalRuntime(NUM_NODES) as runtime:
        controller, gateway, generator, flows = _live_cluster(runtime)
        frames = generator.packet_stream(flows, FRAMES)
        ingress = np.random.default_rng(3).integers(NUM_NODES, size=FRAMES)

        started = time.perf_counter()
        wire = controller.route_frames(frames, [int(n) for n in ingress])
        wire_s = time.perf_counter() - started

        started = time.perf_counter()
        shadow = gateway.process_downstream_batch(frames, ingress)
        shadow_s = time.perf_counter() - started

        for outcome, (result, out) in zip(wire, shadow):
            if out is not None:
                assert outcome.status == STATUS_DELIVERED
                assert outcome.out == out
            else:
                assert outcome.status != STATUS_DELIVERED

        print_header("runtime.route: wire cluster vs in-process shadow")
        print(f"  shadow : {FRAMES / shadow_s / 1e3:9.1f} kfps")
        print(f"  wire   : {FRAMES / wire_s / 1e3:9.1f} kfps "
              f"({shadow_s / wire_s:.2f}x of shadow)")
        controller.shutdown_all()
    assert runtime.leaked() == []


def test_wire_update_path_converges_and_reports_rate():
    """Push a connect storm over sockets; replicas must match the shadow."""
    from repro.core import serialize

    with LocalRuntime(NUM_NODES) as runtime:
        controller, gateway, generator, _ = _live_cluster(runtime)
        ops = _mirrored_connects(gateway, generator, UPDATES)

        started = time.perf_counter()
        totals = controller.push_updates(ops)
        wire_s = time.perf_counter() - started

        assert totals["updates"] == UPDATES
        assert totals["delta_broadcasts"] > 0
        for node_id, status in controller.status_all().items():
            assert int(status["gpt_crc"]) == serialize.fingerprint(
                gateway.cluster.nodes[node_id].gpt.setsep
            )
        print_header("runtime.update: §4.5 over sockets")
        print(f"  {UPDATES / wire_s:9.1f} updates/s "
              f"({totals['delta_broadcasts']} delta broadcasts, "
              f"{totals['fib_messages']} FIB messages)")
        controller.shutdown_all()
    assert runtime.leaked() == []


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark("runtime.route", figure="§4.5", suites=("full",),
                   repeats=3)
def perflab_runtime_route(ctx):
    """Batched frame routing through live daemon processes."""
    frames_n = 1_000 * ctx.scale
    with LocalRuntime(NUM_NODES) as runtime:
        controller, gateway, generator, flows = _live_cluster(
            runtime, flows=250 * ctx.scale
        )
        frames = generator.packet_stream(flows, frames_n)
        ingress = [
            int(n) for n in
            np.random.default_rng(3).integers(NUM_NODES, size=frames_n)
        ]
        ctx.set_params(nodes=NUM_NODES, frames=frames_n)
        outcomes = ctx.timeit(
            lambda: controller.route_frames(frames, ingress)
        )
        delivered = sum(
            1 for o in outcomes if o.status == STATUS_DELIVERED
        )
        ctx.registry.counter(
            "runtime.bench.delivered", "frames delivered on the wire"
        ).inc(delivered)
        ctx.record(
            wire_kfps=frames_n / min(ctx.samples) / 1e3,
            delivered=delivered,
        )
        controller.shutdown_all()


@perflab.benchmark("runtime.update", figure="§4.5", suites=("full",),
                   repeats=1)
def perflab_runtime_update(ctx):
    """The §4.5 update path — recompute, FIB, delta broadcast — on TCP."""
    updates_n = 100 * ctx.scale
    with LocalRuntime(NUM_NODES) as runtime:
        controller, gateway, generator, _ = _live_cluster(
            runtime, flows=250 * ctx.scale
        )
        ops = _mirrored_connects(gateway, generator, updates_n)
        ctx.set_params(nodes=NUM_NODES, updates=updates_n)
        totals = ctx.timeit(lambda: controller.push_updates(ops))
        ctx.record(
            updates_per_s=updates_n / min(ctx.samples),
            delta_broadcasts=totals["delta_broadcasts"],
            mean_delta_bits=totals["delta_bits"]
            / max(1, totals["delta_broadcasts"]),
        )
        controller.shutdown_all()
