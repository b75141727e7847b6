"""Unit tests for the hypercube memory network and GPU links."""

import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.config import SystemConfig, ci_config
from repro.faults.inject import LOSS_NOTIFY_DELAY, FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.network import (
    GPULinks,
    MemoryNetwork,
    dimension_order_path,
    hypercube_topology,
)
from repro.sim.engine import Engine, LinkCounters


class TestTopology:
    def test_8_node_hypercube_degree_3(self):
        links = hypercube_topology(8)
        assert len(links) == 12
        assert Counter(n for link in links for n in link) == {
            n: 3 for n in range(8)}

    def test_edges_differ_in_one_bit(self):
        links = hypercube_topology(8)
        assert links == sorted(set(links))
        for u, v in links:
            assert u < v
            assert bin(u ^ v).count("1") == 1

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            hypercube_topology(6)

    def test_dimension_order_path_minimal(self):
        path = dimension_order_path(0b000, 0b111)
        assert path == [0b000, 0b001, 0b011, 0b111]

    def test_path_self(self):
        assert dimension_order_path(5, 5) == [5]

    def test_path_hops_equal_hamming_distance(self):
        for src in range(8):
            for dst in range(8):
                hops = len(dimension_order_path(src, dst)) - 1
                assert hops == bin(src ^ dst).count("1")

    def test_api_import_leaves_networkx_out(self):
        # Topology is integer arithmetic: no process the package starts
        # pays for a graph library.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = ("import sys, repro.api\n"
                "print('networkx' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestMemoryNetwork:
    def _net(self, num_hmcs=8):
        e = Engine()
        cfg = SystemConfig(num_hmcs=num_hmcs)
        net = MemoryNetwork(e, cfg, LinkCounters())
        return e, net

    def test_local_delivery_is_free(self):
        e, net = self._net()
        got = []
        net.send(3, 3, 128, lambda: got.append(e.now))
        e.drain()
        assert got == [0]
        assert net.total_bytes() == 0

    def test_single_hop_delivery(self):
        e, net = self._net()
        got = []
        net.send(0, 1, 128, lambda: got.append(e.now))
        e.drain()
        assert len(got) == 1
        assert got[0] > 0

    def test_multi_hop_costs_more(self):
        e1, net1 = self._net()
        t1 = []
        net1.send(0, 1, 256, lambda: t1.append(e1.now))
        e1.drain()
        e3, net3 = self._net()
        t3 = []
        net3.send(0, 7, 256, lambda: t3.append(e3.now))
        e3.drain()
        assert t3[0] > t1[0]

    def test_bytes_counted_per_hop(self):
        e, net = self._net()
        net.send(0, 7, 100, lambda: None)
        e.drain()
        assert net.total_bytes() == 300  # 3 hops x 100 bytes

    def test_traffic_does_not_touch_gpu_links(self):
        e = Engine()
        cfg = SystemConfig(num_hmcs=8)
        counters = LinkCounters()
        net = MemoryNetwork(e, cfg, counters)
        net.send(0, 5, 512, lambda: None)
        e.drain()
        assert counters.get("mem_net") > 0
        assert counters.get("gpu_link") == 0

    @pytest.mark.parametrize("num_hmcs", [1, 2, 4, 8, 16])
    def test_route_table_is_dimension_order(self, num_hmcs):
        _, net = self._net(num_hmcs)
        nodes = range(num_hmcs)
        assert net._routes == {
            (s, d): tuple(dimension_order_path(s, d))
            for s in nodes for d in nodes}

    @pytest.mark.parametrize("src,dst", [(0, 8), (8, 0), (-1, 3), (8, 8),
                                         (-1, -1)])
    def test_unknown_node_rejected(self, src, dst):
        _, net = self._net()
        with pytest.raises(ValueError):
            net.send(src, dst, 64, lambda: None)


class TestGPULinks:
    def test_mismatched_links_rejected(self):
        e = Engine()
        cfg = SystemConfig(num_hmcs=4)  # default GPU has 8 links
        with pytest.raises(ValueError):
            GPULinks(e, cfg, LinkCounters())

    def test_down_and_up_independent(self):
        e = Engine()
        cfg = ci_config()
        links = GPULinks(e, cfg, LinkCounters())
        times = {}
        links.to_hmc(0, 1024, lambda: times.setdefault("down", e.now))
        links.to_gpu(0, 1024, lambda: times.setdefault("up", e.now))
        e.drain()
        # Full duplex: both directions complete at the same time.
        assert times["down"] == times["up"]

    def test_per_hmc_links_parallel(self):
        e = Engine()
        cfg = ci_config()
        links = GPULinks(e, cfg, LinkCounters())
        times = []
        for h in range(cfg.num_hmcs):
            links.to_hmc(h, 2048, lambda: times.append(e.now))
        e.drain()
        assert len(set(times)) == 1  # all links serialize independently

    def test_byte_accounting(self):
        e = Engine()
        cfg = ci_config()
        c = LinkCounters()
        links = GPULinks(e, cfg, c)
        links.to_hmc(1, 100, lambda: None)
        links.to_gpu(0, 50, lambda: None)
        assert links.bytes_down() == 100
        assert links.bytes_up() == 50
        assert c.get("gpu_link") == 150

    @staticmethod
    def _send_one(direction, kind=None, **arg):
        """One 96-byte packet on link 1, with every packet of the
        direction faulted by ``kind`` when given; returns what its
        callbacks saw: ``(callback, *args, cycle)``."""
        e = Engine()
        links = GPULinks(e, ci_config(), LinkCounters())
        if kind is not None:
            specs = tuple(FaultSpec(site=site, kind=kind, rate=1.0,
                                    delay_cycles=50)
                          for site in ("gpu_link_down", "gpu_link_up"))
            links.faults = FaultInjector(
                FaultPlan(name=kind, specs=specs), e)
        got = []
        getattr(links, direction)(
            1, 96, lambda *a: got.append(("deliver", *a, e.now)),
            lost=lambda *a: got.append(("lost", *a, e.now)), **arg)
        e.drain()
        return got

    @pytest.mark.parametrize("direction", ["to_hmc", "to_gpu"])
    def test_arg_form_lands_with_closure_form(self, direction):
        [(_, cycle)] = self._send_one(direction)
        assert self._send_one(direction, arg="rec") == [
            ("deliver", "rec", cycle)]

    @pytest.mark.parametrize("direction", ["to_hmc", "to_gpu"])
    def test_armed_drop_passes_arg_to_lost(self, direction):
        assert self._send_one(direction, "drop", arg="rec") == [
            ("lost", "rec", LOSS_NOTIFY_DELAY)]

    @pytest.mark.parametrize("direction", ["to_hmc", "to_gpu"])
    def test_armed_delay_passes_arg(self, direction):
        [(_, cycle)] = self._send_one(direction)
        assert self._send_one(direction, "delay", arg="rec") == [
            ("deliver", "rec", cycle + 50)]

    def test_paper_bandwidth_ratio(self):
        # Aggregate DRAM bandwidth (8 stacks x ~320 GB/s) must exceed GPU
        # off-chip bandwidth (8 x 2 x 20 GB/s) by a wide margin -- the
        # premise of the whole paper (Section 1).
        cfg = SystemConfig()
        gpu_bw = cfg.gpu.total_offchip_bytes_per_sm_cycle * 2
        from repro.memory import AddressMap, HMCStack
        e = Engine()
        stack = HMCStack(e, cfg, 0, AddressMap(cfg), LinkCounters())
        dram_bw = stack.peak_bandwidth_bytes_per_cycle() * cfg.num_hmcs
        assert dram_bw > 3 * gpu_bw
