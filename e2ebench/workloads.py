"""The three closed-loop workloads and the measurement loop they share.

* ``forward`` — Fig. 8's path: a 4-node in-process gateway, uniform
  popularity, 60 B frames in 256-frame batches, 2 of them to
  just-detached bearers so the FIB-miss path runs.  Runs of 32 batches
  carry no updates; between runs, 8 attach/detach pairs probe the update
  path at a low rate, so update metrics exist here too.
* ``churn`` — the same gateway; every step interleaves attach/detach
  pairs with one batch whose frames are Zipf(1.1) over live bearers plus
  a few frames to just-detached bearers, so the update path does most of
  the work and the data path runs with FIB misses.
* ``wire`` — ``LocalRuntime`` with 2 daemons bootstrapped from a shadow
  gateway; IMIX frames (7:4:1 of 60/590/1442 B) with Zipf popularity
  through ``route_frames`` and single-op attach/detach batches through
  ``push_updates``: the only workload with framing, loopback TCP and
  daemon costs.

Every loop is a single client that sends its next call when the previous
one returned.  A step's calls are timed one by one from outside; the
oracle checks each answer outside the timed region.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.architectures import Architecture
from repro.core import serialize
from repro.epc.gateway import EpcGateway
from repro.runtime import LocalRuntime, RuntimeController, UpdateOp
from repro.runtime.protocol import OP_INSERT, OP_REMOVE, STATUS_DELIVERED

import layers
from oracle import (
    GATEWAY_IP,
    IMIX_SIZES,
    IMIX_WEIGHTS,
    MIN_FRAME,
    Bearer,
    BearerSource,
    Oracle,
)
from tracer import Tracer

_clock = time.perf_counter

#: Batches per throughput sample and updates per update-rate sample, so a
#: stall hits one sample.
BATCH_GROUP = 16
UPDATE_GROUP = 32
#: The frame metrics are the rate sustained in 9 of 10 batch groups and
#: the p90 batch latency.  On a shared host the same code runs at speeds
#: that change in spells of seconds, up to 1.6x apart.  The median batch
#: flips between them with the share of fast time in a run; the slow
#: tenth of a run stays at the slow speed (see README).
SLOW_PERCENTILE = 90
#: Traced runs alternate untraced and traced windows of this length.
TRACE_WINDOW_S = 1.0
#: Zipf exponent of the skewed workloads.
ZIPF_S = 1.1
#: Bearers out of the population at any time (attach takes the oldest).
DETACHED_POOL = 256
#: Stale-key frames go to the most recently detached bearers.
STALE_RECENT = 64


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload (tests shrink them)."""

    bearers: int
    nodes: int
    batch: int = 256
    setups: int = 3
    warmup_s: float = 1.0
    #: One step is ``batches_per_step`` batches, then ``pairs_per_step``
    #: attach+detach pairs.
    batches_per_step: int = 1
    pairs_per_step: int = 1
    #: Zipf popularity over live bearers (else uniform).
    skewed: bool = True
    #: frames per batch addressed to just-detached bearers.
    stale_per_batch: int = 4


SCALES: Dict[str, Scale] = {
    "forward": Scale(bearers=32768, nodes=4, batches_per_step=32,
                     pairs_per_step=8, skewed=False, stale_per_batch=2),
    "churn": Scale(bearers=32768, nodes=4, pairs_per_step=4),
    "wire": Scale(bearers=8192, nodes=2),
}


@dataclass
class Totals:
    """Measured calls of one kind of window (untraced or traced)."""

    batch_s: float = 0.0
    frames: int = 0
    batches: int = 0
    update_s: float = 0.0
    updates: int = 0


class Recorder:
    """Times each call into the program; keeps untraced and traced apart."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.measuring = False
        # Untraced samples: the end-to-end metrics come from these alone.
        self.batch_s: List[float] = []
        self.batch_frames: List[int] = []
        self.update_s: List[float] = []
        self.totals = {False: Totals(), True: Totals()}

    def _call(self, kind: str, fn: Callable, args: tuple):
        """``(result, seconds, traced)`` of one call into the program."""
        if self.tracer is not None and self.tracer.installed:
            return (*self.tracer.root(kind, fn, *args), True)
        t0 = _clock()
        result = fn(*args)
        return result, _clock() - t0, False

    def batch(self, frames: int, fn: Callable, *args):
        result, elapsed, traced = self._call("batch", fn, args)
        if self.measuring:
            if not traced:
                self.batch_s.append(elapsed)
                self.batch_frames.append(frames)
            tot = self.totals[traced]
            tot.batch_s += elapsed
            tot.frames += frames
            tot.batches += 1
        return result

    def update(self, fn: Callable, *args):
        result, elapsed, traced = self._call("update", fn, args)
        if self.measuring:
            if not traced:
                self.update_s.append(elapsed)
            tot = self.totals[traced]
            tot.update_s += elapsed
            tot.updates += 1
        return result

    def overhead_frac(self) -> float:
        """Traced wall time over what the same work took untraced, minus 1."""
        plain, traced = self.totals[False], self.totals[True]
        expected = 0.0
        if plain.frames and traced.frames:
            expected += traced.frames * plain.batch_s / plain.frames
        if plain.updates and traced.updates:
            expected += traced.updates * plain.update_s / plain.updates
        actual = traced.batch_s + traced.update_s
        return actual / expected - 1.0 if expected else 0.0


def run_phase(
    step: Callable[[], None],
    seconds: float,
    tracer: Optional[Tracer] = None,
    before_traced: Callable[[], None] = lambda: None,
    after_traced: Callable[[], None] = lambda: None,
) -> None:
    """Repeat ``step`` for ``seconds``; with a tracer, odd windows are traced."""
    end = _clock() + seconds
    window = min(TRACE_WINDOW_S, seconds / 4)
    k = 0
    while _clock() < end:
        traced = tracer is not None and k % 2 == 1
        if traced:
            before_traced()
            tracer.install()
        try:
            stop = min(end, _clock() + window) if tracer is not None else end
            while _clock() < stop:
                step()
        finally:
            if traced:
                tracer.restore()
                after_traced()
        k += 1


class _Workload:
    """State and the closed-loop step shared by the three workloads."""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.scale = scale
        self.rec = Recorder()
        source = BearerSource(np.random.default_rng([seed, 1]))
        self.traffic_rng = np.random.default_rng([seed, 2])
        self.update_rng = np.random.default_rng([seed, 3])
        self.oracle = Oracle()
        self.live: List[Bearer] = source.take(scale.bearers)
        # Detached bearers, oldest first.  An attach re-connects the oldest
        # one, so the key universe is fixed and group sizes stay where the
        # build balanced them instead of drifting as fresh keys arrive.
        self.detached: deque = deque(source.take(DETACHED_POOL))
        self.table_bytes = 0
        #: Daemon-to-daemon forwards seen in traced windows (wire only).
        self.forwarded: Optional[int] = None
        self.leaked: List[int] = []

    def pick_attach(self) -> Bearer:
        return self.detached.popleft()

    def pick_detach(self) -> Bearer:
        j = int(self.update_rng.integers(len(self.live)))
        bearer = self.live[j]
        self.live[j] = self.live[-1]
        self.live.pop()
        self.detached.append(bearer)
        return bearer

    def traffic(self) -> List[Bearer]:
        """One batch of bearers: live picks, then the stale-key ones."""
        scale, rng, live = self.scale, self.traffic_rng, self.live
        count = scale.batch - scale.stale_per_batch
        if scale.skewed:
            index = (rng.zipf(ZIPF_S, size=count) - 1) % len(live)
        else:
            index = rng.integers(len(live), size=count)
        picks = [live[int(i)] for i in index]
        recent = min(STALE_RECENT, len(self.detached))
        picks += [self.detached[-1 - int(i)]
                  for i in rng.integers(recent, size=scale.stale_per_batch)]
        return picks

    def step(self) -> None:
        for _ in range(self.scale.batches_per_step):
            self.send()
        for _ in range(self.scale.pairs_per_step):
            self.attach()
            self.detach()

    def window_opened(self) -> None:
        """Called before each traced window."""

    def window_closed(self) -> None:
        """Called after each traced window."""


class GatewayWorkload(_Workload):
    """``forward`` and ``churn``: the in-process ``EpcGateway``."""

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.gateway: Optional[EpcGateway] = None

    def setup(self) -> float:
        self.gateway = None
        gc.collect()
        t0 = _clock()
        gateway = EpcGateway(Architecture.SCALEBRICKS, self.scale.nodes,
                             GATEWAY_IP)
        for bearer in self.live:
            bearer.assign(gateway.connect(bearer.flow, bearer.bs).teid)
        gateway.start()
        elapsed = _clock() - t0
        self.gateway = gateway
        return elapsed

    def tracer(self) -> Tracer:
        return layers.gateway_tracer(self.gateway)

    def attach(self) -> None:
        bearer = self.pick_attach()
        record = self.rec.update(self.gateway.connect, bearer.flow, bearer.bs)
        bearer.assign(record.teid)
        self.live.append(bearer)
        self.oracle.count_updates(1)

    def detach(self) -> None:
        bearer = self.pick_detach()
        if not self.rec.update(self.gateway.disconnect, bearer.flow):
            raise RuntimeError(f"disconnect refused a live bearer {bearer.key}")
        self.oracle.count_updates(1)

    def send(self) -> None:
        stale = self.scale.stale_per_batch
        picks = self.traffic()
        frames = [b.frame(MIN_FRAME) for b in picks]
        live = len(picks) - stale
        expected = [b.expected(MIN_FRAME) for b in picks[:live]]
        expected += [None] * stale
        results = self.rec.batch(
            len(frames), self.gateway.process_downstream_batch, frames
        )
        self.oracle.check_frames(expected, (out for _r, out in results))

    def finish(self) -> None:
        cluster = self.gateway.cluster
        self.oracle.check_replicas(
            [serialize.fingerprint(node.gpt.setsep) for node in cluster.nodes]
        )
        self.table_bytes = max(
            row["fib_bytes"] + row["gpt_bytes"]
            for row in self.gateway.memory_report()
        )

    def close(self) -> None:
        self.gateway = None


class WireWorkload(_Workload):
    """``wire``: ``RuntimeController`` driving daemon processes."""

    #: TEIDs the benchmark hands to bearers it attaches over the wire.
    FIRST_TEID = 1 << 24

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.runtime: Optional[LocalRuntime] = None
        self.controller: Optional[RuntimeController] = None
        self.next_teid = self.FIRST_TEID
        self.next_node = 0
        self.forwarded = 0
        self._forward_mark = 0

    def setup(self) -> float:
        self.close()
        gc.collect()
        t0 = _clock()
        runtime = LocalRuntime(self.scale.nodes)
        self.runtime = runtime
        runtime.start()
        shadow = EpcGateway(Architecture.SCALEBRICKS, self.scale.nodes,
                            GATEWAY_IP)
        for bearer in self.live:
            bearer.assign(shadow.connect(bearer.flow, bearer.bs).teid)
        shadow.start()
        controller = RuntimeController(runtime.addresses)
        self.controller = controller
        controller.connect()
        controller.bootstrap_from_gateway(shadow)
        elapsed = _clock() - t0
        # The daemons were shipped exactly the shadow's state.
        self.table_bytes = max(
            row["fib_bytes"] + row["gpt_bytes"]
            for row in shadow.memory_report()
        )
        return elapsed

    def tracer(self) -> Tracer:
        return layers.wire_tracer()

    def _forward_count(self) -> int:
        return sum(
            int(status["counters"].get("runtime.frames.forwarded", 0))
            for status in self.controller.status_all().values()
        )

    def window_opened(self) -> None:
        self._forward_mark = self._forward_count()

    def window_closed(self) -> None:
        self.forwarded += self._forward_count() - self._forward_mark

    def send(self) -> None:
        scale = self.scale
        rng = self.traffic_rng
        stale = scale.stale_per_batch
        picks = self.traffic()
        sizes = rng.choice(IMIX_SIZES, size=len(picks), p=IMIX_WEIGHTS)
        frames = [b.frame(int(s)) for b, s in zip(picks, sizes)]
        live = len(picks) - stale
        expected: List[Optional[bytes]] = [
            b.expected(int(s)) for b, s in zip(picks[:live], sizes[:live])
        ]
        expected += [None] * stale
        ingress = rng.integers(scale.nodes, size=len(frames)).tolist()
        outcomes = self.rec.batch(
            len(frames), self.controller.route_frames, frames, ingress
        )
        self.oracle.check_frames(
            expected,
            (o.out if o.status == STATUS_DELIVERED else None for o in outcomes),
        )

    def attach(self) -> None:
        bearer = self.pick_attach()
        bearer.assign(self.next_teid)
        self.next_teid += 1
        node = self.next_node
        self.next_node = (node + 1) % self.scale.nodes
        self.rec.update(self.controller.push_updates, [UpdateOp(
            OP_INSERT, bearer.key, node, bearer.teid, bearer.bs
        )])
        self.live.append(bearer)
        self.oracle.count_updates(1)

    def detach(self) -> None:
        bearer = self.pick_detach()
        self.rec.update(
            self.controller.push_updates, [UpdateOp(OP_REMOVE, bearer.key)]
        )
        self.oracle.count_updates(1)

    def finish(self) -> None:
        statuses = self.controller.status_all()
        self.oracle.check_replicas(
            [int(statuses[n]["gpt_crc"]) for n in sorted(statuses)]
        )

    def close(self) -> None:
        if self.controller is not None:
            self.controller.shutdown_all()
            self.controller.close()
            self.controller = None
        if self.runtime is not None:
            self.runtime.stop()
            self.leaked += self.runtime.leaked()
            self.runtime = None


WORKLOADS = {
    "forward": GatewayWorkload,
    "churn": GatewayWorkload,
    "wire": WireWorkload,
}


def _group_rate(units: Sequence[float], seconds: Sequence[float],
                group: int, percentile: float) -> float:
    """Percentile over consecutive groups of ``group`` calls of units/second."""
    rates = [
        sum(units[i:i + group]) / sum(seconds[i:i + group])
        for i in range(0, len(seconds) - group + 1, group)
    ]
    if not rates:  # fewer calls than one group: one sample of all
        rates = [sum(units) / sum(seconds)]
    return float(np.percentile(rates, percentile))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(work: _Workload, setup_s: List[float]) -> Dict[str, float]:
    """The user-visible metrics of an untraced run."""
    rec = work.rec
    batch_ms = np.asarray(rec.batch_s) * 1e3
    update_ms = np.asarray(rec.update_s) * 1e3
    return {
        "setup_s": statistics.median(setup_s),
        "frames_per_s": _group_rate(rec.batch_frames, rec.batch_s,
                                    BATCH_GROUP, 100 - SLOW_PERCENTILE),
        "batch_p50_ms": float(np.percentile(batch_ms, 50)),
        "batch_p90_ms": float(np.percentile(batch_ms, SLOW_PERCENTILE)),
        "batch_p99_ms": float(np.percentile(batch_ms, 99)),
        "updates_per_s": _group_rate([1] * len(rec.update_s), rec.update_s,
                                     UPDATE_GROUP, 50),
        "update_p50_ms": float(np.percentile(update_ms, 50)),
        "update_p99_ms": float(np.percentile(update_ms, 99)),
        "failed_frac": work.oracle.failed / max(1, work.oracle.attempted),
        "table_bytes_per_node": float(work.table_bytes),
        "peak_rss_mb": _peak_rss_mb(),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: Optional[Scale] = None) -> Dict[str, object]:
    """Set up, warm up, measure and check one workload.

    Returns a report with ``metrics`` (end-to-end when ``trace`` is off,
    per-layer when on), the oracle's tally, sample counts and, for traced
    runs, the time accounting.
    """
    scale = scale or SCALES[name]
    work = WORKLOADS[name](seed, scale)
    try:
        setups = [work.setup() for _ in range(scale.setups if not trace else 1)]
        run_phase(work.step, scale.warmup_s)
        tracer = work.tracer() if trace else None
        work.rec.tracer = tracer
        work.rec.measuring = True
        run_phase(work.step, seconds, tracer,
                  work.window_opened, work.window_closed)
        work.rec.measuring = False
        work.finish()
    finally:
        work.close()
    report: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "oracle": work.oracle.report(),
        "samples": {"batches": len(work.rec.batch_s),
                    "updates": len(work.rec.update_s)},
        "leaked_processes": work.leaked,
    }
    if tracer is None:
        report["metrics"] = end_to_end(work, setups)
        return report
    traced = work.rec.totals[True]
    report["metrics"] = layers.per_layer(
        tracer, frames=traced.frames, batches=traced.batches,
        updates=traced.updates, overhead_frac=work.rec.overhead_frac(),
        forwarded=work.forwarded,
    )
    report["accounting"] = {
        "wall_s": sum(tracer.wall_s.values()),
        "self_s": sum(tracer.self_s.values()),
        "bookkeeping_s": tracer.overhead_s,
        "unattributed_s": sum(tracer.unattributed_s.values()),
        "error": tracer.accounting_error(),
        "restored": tracer.restored(),
        "roots_traced": sum(tracer.roots.values()),
        "calls_traced": traced.batches + traced.updates,
        "traced_frames": traced.frames,
        "traced_updates": traced.updates,
    }
    return report
