"""Tests for cluster membership changes."""

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster
from repro.cluster.membership import capacity_after_resize, resize
from tests.conftest import unique_keys


class TestResize:
    @pytest.fixture()
    def base_cluster(self):
        keys = unique_keys(2_000, seed=1000)
        handlers = (keys % 4).astype(np.int64)
        values = np.arange(2_000) + 1
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, handlers, values
        )
        return cluster, keys, handlers, values

    def test_grow_preserves_surviving_flows(self, base_cluster):
        cluster, keys, handlers, values = base_cluster
        grown, report = resize(cluster, 8)
        assert report.old_nodes == 4 and report.new_nodes == 8
        assert report.repinned_flows == 0  # all handlers still exist
        for k, h, v in zip(keys[:300], handlers[:300], values[:300]):
            result = grown.route(int(k), ingress=0)
            assert result.handled_by == h
            assert result.value == v

    def test_grow_widens_gpt(self, base_cluster):
        cluster, *_ = base_cluster
        grown, report = resize(cluster, 8)
        assert report.gpt_rebuilt_wider
        assert grown.nodes[0].gpt.setsep.params.value_bits == 3

    def test_shrink_repins_orphans(self, base_cluster):
        cluster, keys, handlers, values = base_cluster
        shrunk, report = resize(cluster, 2)
        orphans = int((handlers >= 2).sum())
        assert report.repinned_flows == orphans
        # Every flow still forwards, somewhere valid.
        for k, v in zip(keys[:300], values[:300]):
            result = shrunk.route(int(k), ingress=0)
            assert result.delivered
            assert result.value == v
            assert 0 <= result.handled_by < 2

    def test_custom_repin(self, base_cluster):
        cluster, keys, handlers, _ = base_cluster
        shrunk, _ = resize(cluster, 3, repin=lambda key, old: 0)
        orphan = next(
            int(k) for k, h in zip(keys, handlers) if h == 3
        )
        assert shrunk.route(orphan, ingress=1).handled_by == 0

    def test_bad_repin_rejected(self, base_cluster):
        cluster, *_ = base_cluster
        with pytest.raises(ValueError):
            resize(cluster, 2, repin=lambda key, old: 7)

    def test_invalid_size(self, base_cluster):
        cluster, *_ = base_cluster
        with pytest.raises(ValueError):
            resize(cluster, 0)

    def test_capacity_delta_helper(self):
        m = 16 * 1024 * 1024 * 8
        old, new = capacity_after_resize(m, 4, 8)
        assert new > old  # growing 4 -> 8 helps
        old, new = capacity_after_resize(m, 16, 17)
        assert new < old  # crossing a power-of-two boundary hurts (§6.3)
