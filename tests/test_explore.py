"""Tests for the design-space exploration engine (``repro explore``).

Covers the three contracts docs/design-space.md promises: the space
(validity, materialization, fingerprints), the agents (seeded streams,
propose semantics), and the driver (store-backed dedup, byte-identical
seeded reruns, resume-by-replay).
"""

import json
import math

import numpy as np
import pytest

from repro.config import paper_config
from repro.explore.agents import (AGENTS, Agent, Evaluation, History,
                                  best_of, make_agent)
from repro.explore.driver import FITNESS, explore
from repro.explore.report import write_best_configs
from repro.explore.space import (SearchSpace, default_space, resolve_space,
                                 tiny_space)

# Mirrors the CI explore smoke: small enough to finish in seconds at ci
# scale, big enough to exercise multiple generations.
RUN_KW = dict(workload="VADD", space="tiny", agent="hillclimb",
              generations=2, population=4, seed=1, scale="ci",
              max_cycles=2_000_000)


def run_explore(tmp_path, out_name, **overrides):
    kw = dict(RUN_KW, out=str(tmp_path / out_name),
              store=str(tmp_path / "store"))
    kw.update(overrides)
    return explore(**kw)


# ---------------------------------------------------------------------------
# SearchSpace
# ---------------------------------------------------------------------------

class TestSearchSpace:
    def test_shapes(self):
        sp = tiny_space()
        assert sp.size == 16
        assert default_space().size == 5832
        assert sp.names == ("offload", "nsu_mhz", "nsu_read_buf",
                            "gpu_link_gbps")

    def test_point_round_trip(self):
        sp = tiny_space()
        p = sp.point_from_indices((1, 0, 1, 0))
        assert sp.indices(p) == (1, 0, 1, 0)
        assert sp.point_key(p) == ("NDP(0.8)", 350.0, 256, 20.0)

    def test_violations_named(self):
        sp = tiny_space()
        good = {"offload": "NDP(Dyn)", "nsu_mhz": 350.0,
                "nsu_read_buf": 256, "gpu_link_gbps": 20.0}
        assert sp.violations(good) == []
        assert sp.valid(good)

        missing = {k: v for k, v in good.items() if k != "nsu_mhz"}
        assert "missing:nsu_mhz" in sp.violations(missing)

        off_menu = dict(good, nsu_mhz=123.0)
        assert "off-menu:nsu_mhz" in sp.violations(off_menu)

        unknown = dict(good, bogus=1)
        assert sp.violations(unknown) == ["unknown:bogus"]

        # The tiny space's constraint: 40 GB/s links need the 256 buffer.
        broken = dict(good, gpu_link_gbps=40.0, nsu_read_buf=128)
        assert sp.violations(broken) == ["constraint:fast-links-need-buffers"]
        assert not sp.valid(broken)

    def test_neighbors_are_valid_single_steps(self):
        sp = tiny_space()
        p = {"offload": "NDP(Dyn)", "nsu_mhz": 350.0,
             "nsu_read_buf": 256, "gpu_link_gbps": 20.0}
        for n in sp.neighbors(p):
            assert sp.valid(n)
            diffs = [k for k in sp.names if n[k] != p[k]]
            assert len(diffs) == 1

    def test_materialize(self):
        sp = tiny_space()
        p = {"offload": "NDP(0.8)", "nsu_mhz": 700.0,
             "nsu_read_buf": 128, "gpu_link_gbps": 20.0}
        config_name, cfg = sp.materialize(p)
        assert config_name == "NDP(0.8)"
        assert cfg.nsu.clock_mhz == 700.0
        assert cfg.nsu.read_data_entries == 128
        assert cfg.nsu.write_addr_entries == 128
        assert cfg.gpu.link_gbps_per_dir == 20.0

    def test_materialize_rejects_invalid(self):
        sp = tiny_space()
        with pytest.raises(ValueError, match="invalid point"):
            sp.materialize({"offload": "NDP(Dyn)"})

    def test_fingerprint_tracks_spec(self):
        assert tiny_space().fingerprint() == tiny_space().fingerprint()
        assert tiny_space().fingerprint() != default_space().fingerprint()
        rescaled = tiny_space(paper_config().scaled_gpu(num_sms=128))
        assert rescaled.fingerprint() != tiny_space().fingerprint()

    def test_random_point_is_valid_and_seeded(self):
        sp = tiny_space()
        a = sp.random_point(np.random.default_rng(7))
        b = sp.random_point(np.random.default_rng(7))
        assert a == b
        assert sp.valid(a)

    def test_resolve_space(self):
        assert resolve_space("tiny").name == "tiny"
        assert resolve_space(None).name == "default"
        sp = tiny_space()
        assert resolve_space(sp) is sp
        with pytest.raises(KeyError, match="unknown search space"):
            resolve_space("nope")

    def test_duplicate_knobs_rejected(self):
        k = tiny_space().knobs[1]
        with pytest.raises(ValueError, match="duplicate knob"):
            SearchSpace(knobs=(k, k))


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------

def _fake_history(sp, points, fitnesses):
    h = History()
    for p, f in zip(points, fitnesses):
        h.add(Evaluation(gen=0, point=dict(p), key=sp.point_key(p),
                         config_name=p["offload"], fitness=f))
    return h


class TestAgents:
    @pytest.mark.parametrize("name", sorted(AGENTS))
    def test_seeded_streams_reproduce(self, name):
        sp = tiny_space()
        a = make_agent(name, sp, seed=3, population=4)
        b = make_agent(name, sp, seed=3, population=4)
        assert a.propose(History()) == b.propose(History())

    def test_different_agents_different_streams(self):
        sp = tiny_space()
        r = make_agent("random", sp, seed=0, population=4)
        g = make_agent("genetic", sp, seed=0, population=4)
        # Cold-start genetic falls back to random sampling, but from its
        # own crc32-salted stream -- the sequences must differ.
        assert r.propose(History()) != g.propose(History())

    def test_proposals_fresh_and_valid(self):
        sp = tiny_space()
        ag = make_agent("random", sp, seed=1, population=6)
        h = History()
        seen = set()
        for _ in range(3):
            batch = ag.propose(h)
            for p in batch:
                assert sp.valid(p)
                k = sp.point_key(p)
                assert k not in seen
                seen.add(k)
                h.add(Evaluation(gen=0, point=p, key=k,
                                 config_name=p["offload"],
                                 fitness=float(len(seen))))
        # 16-point space: the agent must eventually run dry, not loop.
        for _ in range(8):
            for p in ag.propose(h):
                k = sp.point_key(p)
                h.add(Evaluation(gen=0, point=p, key=k,
                                 config_name=p["offload"], fitness=1.0))
        assert ag.propose(h) == []

    def test_hillclimb_proposes_neighbors_of_best(self):
        sp = tiny_space()
        ag = make_agent("hillclimb", sp, seed=0, population=8)
        start = {"offload": "NDP(Dyn)", "nsu_mhz": 350.0,
                 "nsu_read_buf": 256, "gpu_link_gbps": 20.0}
        h = _fake_history(sp, [start], [100.0])
        batch = ag.propose(h)
        neighbor_keys = {sp.point_key(n) for n in sp.neighbors(start)}
        assert batch
        for p in batch:
            assert sp.point_key(p) in neighbor_keys

    def test_genetic_children_unseen_and_valid(self):
        sp = tiny_space()
        ag = make_agent("genetic", sp, seed=2, population=4)
        pts = [sp.point_from_indices(ix)
               for ix in ((0, 0, 0, 0), (1, 1, 1, 0), (0, 1, 1, 1))]
        h = _fake_history(sp, pts, [3.0, 1.0, 2.0])
        for p in ag.propose(h):
            assert sp.valid(p)
            assert sp.point_key(p) not in h

    def test_make_agent_unknown(self):
        with pytest.raises(KeyError, match="unknown search agent"):
            make_agent("anneal", tiny_space())

    def test_best_ignores_fatal_and_breaks_ties_on_key(self):
        sp = tiny_space()
        pts = [sp.point_from_indices(ix)
               for ix in ((1, 1, 1, 1), (0, 0, 0, 0), (1, 0, 0, 0))]
        h = _fake_history(sp, pts, [5.0, 5.0, math.inf])
        h.evaluations[2].outcome = "fatal"
        # Equal fitness: the smaller point key wins, order-independently
        # ("NDP(0.8)" sorts before "NDP(Dyn)").
        assert h.best().key == sp.point_key(pts[0])
        top = best_of(h.evaluations, top_k=5)
        assert [ev.key for ev in top] == [sp.point_key(pts[0]),
                                          sp.point_key(pts[1])]


# ---------------------------------------------------------------------------
# Driver end-to-end (ci scale, tiny space)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("explore")
    return tmp, run_explore(tmp, "run1")


class TestDriver:
    def test_first_run_simulates(self, first_run):
        _tmp, out = first_run
        assert out.stats.evaluated > 0
        assert out.stats.fresh == out.stats.evaluated
        assert out.stats.cache_hits == 0
        assert out.best and out.best[0].ok
        assert out.best[0].fitness == out.best[0].cycles  # cycles fitness

    def test_seeded_rerun_is_byte_identical_and_store_served(self, first_run):
        tmp, out1 = first_run
        out2 = run_explore(tmp, "run2")
        t1 = (tmp / "run1" / "trajectory.jsonl").read_bytes()
        t2 = (tmp / "run2" / "trajectory.jsonl").read_bytes()
        assert t1 == t2
        b1 = (tmp / "run1" / "best_configs.json").read_bytes()
        b2 = (tmp / "run2" / "best_configs.json").read_bytes()
        assert b1 == b2
        # Every cell served from the persistent store: zero simulations.
        assert out2.stats.evaluated == out1.stats.evaluated
        assert out2.stats.fresh == 0
        assert out2.stats.cache_hits == out2.stats.evaluated
        assert out2.stats.hit_pct == 100.0

    def test_cross_agent_store_reuse(self, first_run):
        tmp, _out = first_run
        out = run_explore(tmp, "run-random", agent="random")
        # Different proposal stream, same store: any point hillclimb
        # already visited must not simulate again.
        assert out.stats.cache_hits > 0
        assert out.stats.fresh + out.stats.cache_hits == out.stats.evaluated

    def test_resume_truncated_trajectory_bit_identical(self, first_run):
        tmp, _out = first_run
        full = (tmp / "run1" / "trajectory.jsonl").read_text()
        lines = full.splitlines()
        # Keep meta + first generation's records, then tear the tail
        # mid-record, as a killed run would.
        trunc = tmp / "trunc.jsonl"
        trunc.write_text("\n".join(lines[:4]) + "\n" + lines[4][:17])
        out = run_explore(tmp, "resumed", resume=str(trunc),
                          store=None, use_store=False)
        assert out.stats.replayed == 3
        assert (tmp / "resumed" / "trajectory.jsonl").read_text() == full

    def test_resume_refuses_identity_mismatch(self, first_run):
        tmp, _out = first_run
        with pytest.raises(ValueError, match="seed"):
            run_explore(tmp, "bad-resume", seed=2,
                        resume=str(tmp / "run1" / "trajectory.jsonl"))

    def test_trajectory_schema(self, first_run):
        tmp, out = first_run
        recs = [json.loads(line) for line in
                (tmp / "run1" / "trajectory.jsonl").read_text().splitlines()]
        assert recs[0]["kind"] == "explore-meta"
        assert recs[0]["space"]["name"] == "tiny"
        assert recs[0]["space"]["fingerprint"] == tiny_space().fingerprint()
        kinds = {r["kind"] for r in recs[1:]}
        assert kinds == {"evaluation", "generation"}
        evs = [r for r in recs if r["kind"] == "evaluation"]
        assert len(evs) == out.stats.evaluated
        for r in evs:
            assert r["outcome"] in ("ok", "fatal")
            assert (r["fitness"] is None) == (r["outcome"] == "fatal")
        gens = [r for r in recs if r["kind"] == "generation"]
        assert len(gens) == out.stats.generations

    def test_rejected_proposals_counted_not_evaluated(self, first_run,
                                                      monkeypatch):
        tmp, _out = first_run

        class BrokenAgent(Agent):
            name = "broken"

            def propose(self, history):
                if history.evaluations:
                    return []
                good = self.space.point_from_indices((0, 0, 0, 0))
                bad = dict(good, nsu_mhz=999.0)      # off-menu
                dupe = dict(good)                    # in-batch revisit
                return [bad, good, dupe]

        monkeypatch.setitem(AGENTS, "broken", BrokenAgent)
        out = run_explore(tmp, "broken", agent="broken", generations=3)
        assert out.stats.rejected == 1
        assert out.stats.revisits == 1
        assert out.stats.evaluated == 1

    def test_unknown_fitness_and_metrics(self, first_run):
        tmp, _out = first_run
        with pytest.raises(KeyError, match="unknown fitness"):
            run_explore(tmp, "bad-fitness", fitness="ipc")
        assert set(FITNESS) == {"cycles", "energy", "edp"}

        from repro.sim.metrics import MetricsRegistry
        registry = MetricsRegistry()
        out = run_explore(tmp, "metered", metrics=registry)
        counters = {n: c.value for n, c in registry.counters.items()}
        assert counters["explore.evaluated"] == out.stats.evaluated
        assert counters["explore.cache_hits"] == out.stats.cache_hits
        assert counters["explore.best_fitness"] == out.best[0].fitness
        assert registry.meta["explore_agent"] == "hillclimb"


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

class TestReport:
    def test_best_configs_round_trip(self, first_run, tmp_path):
        tmp, out = first_run
        with open(tmp / "run1" / "best_configs.json") as f:
            payload = json.load(f)
        assert payload["kind"] == "repro-explore-best"
        assert payload["entries"][0]["rank"] == 1
        assert payload["entries"][0]["fitness"] == out.best[0].fitness
        # Rewriting the same outcome reproduces the bytes exactly.
        again = tmp_path / "again.json"
        write_best_configs(out, str(again))
        assert (again.read_bytes()
                == (tmp / "run1" / "best_configs.json").read_bytes())
