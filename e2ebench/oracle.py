"""Seeded bearer populations and the reference oracle.

The benchmark never asks the gateway what it should have done.  Every
bearer's flow, base station and frames come from the seed; its TEID is
what ``connect`` returned (or, on the wire, what the benchmark itself put
in the ``UpdateOp``).  The expected GTP-U packet is built here from those
alone: the frame's IPv4 header rebuilt with TTL 63, followed by the
frame's own L4 bytes, wrapped by :meth:`GtpTunnelEndpoint.encapsulate`
toward the bearer's base station.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.epc.packets import (
    PROTO_UDP,
    FlowTuple,
    Ipv4Header,
    build_downstream_frame,
    parse_ip,
)
from repro.epc.tunnels import GtpTunnelEndpoint

#: The gateway's tunnel endpoint (TEST-NET-1).
GATEWAY_IP = parse_ip("192.0.2.1")
#: Ethernet + IPv4 + UDP header bytes in front of each frame's payload.
FRAME_HEADERS = 14 + 20 + 8
#: The smallest frame the benchmark sends (per-packet cost dominates).
MIN_FRAME = 60
#: IMIX frame sizes and their 7:4:1 weights.
IMIX_SIZES = (60, 590, 1442)
IMIX_WEIGHTS = (7 / 12, 4 / 12, 1 / 12)

_SRC_MAC = bytes.fromhex("02aabbcc0101")
_DST_MAC = bytes.fromhex("02aabbcc0102")
_BASE_STATIONS = [parse_ip("172.16.1.0") + i for i in range(256)]


class Bearer:
    """One subscriber flow with its frames and expected tunnel output."""

    __slots__ = ("flow", "key", "bs", "teid", "_frames", "_expected")

    def __init__(self, flow: FlowTuple) -> None:
        self.flow = flow
        self.key = flow.key()
        self.bs = _BASE_STATIONS[flow.dst_ip % len(_BASE_STATIONS)]
        self.teid = 0
        self._frames: Dict[int, bytes] = {}
        self._expected: Dict[int, bytes] = {}

    def assign(self, teid: int) -> None:
        """Give the bearer its (possibly new) TEID."""
        if teid != self.teid:
            self.teid = teid
            self._expected.clear()

    def frame(self, size: int) -> bytes:
        """The downstream frame of ``size`` bytes for this flow."""
        frame = self._frames.get(size)
        if frame is None:
            payload = bytes((self.key + i) & 0xFF
                            for i in range(size - FRAME_HEADERS))
            frame = build_downstream_frame(
                _SRC_MAC, _DST_MAC, self.flow, payload
            )
            self._frames[size] = frame
        return frame

    def expected(self, size: int) -> bytes:
        """The GTP-U packet the gateway must emit for ``frame(size)``."""
        out = self._expected.get(size)
        if out is None:
            flow = self.flow
            inner = Ipv4Header(
                src=flow.src_ip, dst=flow.dst_ip, protocol=flow.protocol,
                total_length=size - 14, ttl=63,
            ).pack() + self.frame(size)[34:]
            out = GtpTunnelEndpoint(GATEWAY_IP, self.bs).encapsulate(
                self.teid, inner
            )
            self._expected[size] = out
        return out


class BearerSource:
    """Unique downstream flows drawn from one seeded generator."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._seen: set = set()

    def take(self, count: int) -> List[Bearer]:
        """``count`` bearers whose flows were never handed out before."""
        out: List[Bearer] = []
        rng = self._rng
        while len(out) < count:
            need = count - len(out)
            src = rng.integers(0x08000000, 0xDF000000, size=need)
            dst = 0x0A000000 + rng.integers(1, 1 << 24, size=need)
            ports = rng.integers(1024, 65535, size=(need, 2))
            for s, d, (sp, dp) in zip(src, dst, ports):
                flow = FlowTuple(int(s), int(d), PROTO_UDP, int(sp), int(dp))
                if flow.key() not in self._seen:
                    self._seen.add(flow.key())
                    out.append(Bearer(flow))
        return out


class Oracle:
    """Counts attempted operations and every way one can fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check_frames(
        self,
        expected: Sequence[Optional[bytes]],
        outs: Iterable[Optional[bytes]],
    ) -> None:
        """Compare one batch; ``None`` expected marks a stale-key frame."""
        outs = list(outs)
        if len(outs) != len(expected):
            raise ValueError("batch answered with the wrong frame count")
        self.attempted += len(outs)
        for want, got in zip(expected, outs):
            if want is None:
                if got is not None:
                    self.failures["stale_delivered"] += 1
            elif got is None:
                self.failures["undelivered"] += 1
            elif got != want:
                self.failures["wrong_bytes"] += 1

    def count_updates(self, count: int) -> None:
        """Updates are attempted operations; a failing one raises."""
        self.attempted += count

    def check_replicas(self, fingerprints: Sequence[int]) -> None:
        """Every GPT replica must carry the same fingerprint."""
        self.attempted += len(fingerprints)
        if fingerprints:
            _, agreeing = Counter(fingerprints).most_common(1)[0]
            self.failures["replica_mismatch"] += len(fingerprints) - agreeing

    def report(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / max(1, self.attempted),
            "failures": {k: v for k, v in sorted(self.failures.items()) if v},
        }
