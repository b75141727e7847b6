"""The ``repro.lint`` static analyzer: per-rule fixtures (positive hit,
suppressed hit, clean), suppression semantics, baseline mechanics, the
JSON reporter, and the meta-test that the shipped tree itself lints
clean.

Fixture packages are laid out on disk as a miniature ``repro`` package so
the tests exercise the same contract discovery (``discover_project``)
that ``repro lint src/repro`` uses.
"""

import json

import pytest

from repro.lint import (
    ALL_RULES,
    Project,
    render_json,
    render_pretty,
    run_lint,
)

# ---------------------------------------------------------------------------
# miniature contract files for a self-contained fixture package
# ---------------------------------------------------------------------------

PACKETS_SRC = '''\
class PacketSizes:
    MASK = 4

    @staticmethod
    def offload_cmd():
        return 1

    @staticmethod
    def rdf_response():
        return 2


PACKET_FAULT_SITES = {
    "offload_cmd": "gpu_link_down",
    "rdf_response": "mem_net",
}
'''

PLAN_SRC = '''\
PACKET_SITES = ("mem_net", "gpu_link_down", "gpu_link_up")
SITES = PACKET_SITES + ("vault_read", "nsu_buffer", "credit")
WATCHDOG_SITES = ("ack", "mshr")
'''

METRICS_SRC = '''\
KNOWN_METRICS = frozenset({"sm.live_warps", "packets.*"})
'''

CLI_SRC = '''\
import argparse


def build_parser():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    return p
'''

API_SRC = '''\
class RunRequest:
    workload: str = "VADD"
'''


def make_pkg(tmp_path, files=None):
    """Write a mini repro package; returns its root directory."""
    pkg = tmp_path / "repro"
    layout = {
        "core/packets.py": PACKETS_SRC,
        "faults/plan.py": PLAN_SRC,
        "sim/metrics.py": METRICS_SRC,
        "cli.py": CLI_SRC,
        "api.py": API_SRC,
    }
    layout.update(files or {})
    for rel, src in layout.items():
        p = pkg / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(src)
    return pkg


def lint_pkg(tmp_path, files=None, rules=None):
    pkg = make_pkg(tmp_path, files)
    report = run_lint([pkg], use_baseline=False, rules=rules)
    return report.findings


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ---------------------------------------------------------------------------
# determinism rules
# ---------------------------------------------------------------------------

class TestSetIteration:
    POSITIVE = (
        "def f():\n"
        "    s = {1, 2, 3}\n"
        "    out = []\n"
        "    for x in s:\n"
        "        out.append(x)\n"
        "    return out\n")

    def test_positive(self, tmp_path):
        hits = by_rule(lint_pkg(tmp_path,
                                {"workloads/gen.py": self.POSITIVE}),
                       "DET001")
        assert len(hits) == 1
        f = hits[0]
        assert f.severity == "error"
        assert f.line == 4
        assert f.path.endswith("workloads/gen.py")

    def test_sorted_is_clean(self, tmp_path):
        src = self.POSITIVE.replace("for x in s:", "for x in sorted(s):")
        assert not by_rule(lint_pkg(tmp_path, {"workloads/gen.py": src}),
                           "DET001")

    def test_reducer_consumption_is_clean(self, tmp_path):
        src = ("def f():\n"
               "    s = {1, 2, 3}\n"
               "    return sum(x for x in s)\n")
        assert not by_rule(lint_pkg(tmp_path, {"workloads/gen.py": src}),
                           "DET001")

    def test_suppressed(self, tmp_path):
        src = self.POSITIVE.replace(
            "    for x in s:",
            "    # lint: ignore[DET001] -- output is re-sorted downstream\n"
            "    for x in s:")
        findings = lint_pkg(tmp_path, {"workloads/gen.py": src})
        assert not by_rule(findings, "DET001")
        assert not by_rule(findings, "LINT002")   # suppression was used


class TestDictViewIteration:
    POSITIVE = (
        "def g(d):\n"
        "    out = []\n"
        "    for v in d.values():\n"
        "        out.append(v)\n"
        "    return out\n")

    def test_positive(self, tmp_path):
        hits = by_rule(lint_pkg(tmp_path,
                                {"workloads/gen.py": self.POSITIVE}),
                       "DET002")
        assert len(hits) == 1
        assert hits[0].severity == "warning"

    def test_sorted_is_clean(self, tmp_path):
        src = self.POSITIVE.replace("d.values():", "sorted(d.values()):")
        assert not by_rule(lint_pkg(tmp_path, {"workloads/gen.py": src}),
                           "DET002")


class TestUnseededRandom:
    def test_module_draw_flagged(self, tmp_path):
        src = ("import random\n"
               "def h():\n"
               "    return random.random()\n")
        hits = by_rule(lint_pkg(tmp_path, {"workloads/gen.py": src}),
                       "DET003")
        assert len(hits) == 1
        assert hits[0].severity == "error"

    def test_seeded_rng_clean(self, tmp_path):
        src = ("import random\n"
               "def h():\n"
               "    return random.Random(0).random()\n")
        assert not by_rule(lint_pkg(tmp_path, {"workloads/gen.py": src}),
                           "DET003")


class TestHashId:
    def test_hash_flagged(self, tmp_path):
        src = ("def key(name):\n"
               "    return hash(name) & 0xFFFF\n")
        hits = by_rule(lint_pkg(tmp_path, {"workloads/gen.py": src}),
                       "DET004")
        assert len(hits) == 1
        assert hits[0].severity == "error"
        assert hits[0].line == 2

    def test_suppressed_with_reason(self, tmp_path):
        src = ("def key(name):\n"
               "    return hash(name)  "
               "# lint: ignore[DET004] -- in-process cache key only\n")
        findings = lint_pkg(tmp_path, {"workloads/gen.py": src})
        assert not by_rule(findings, "DET004")
        assert not by_rule(findings, "LINT001")


class TestWallClock:
    SRC = ("import time\n"
           "def stamp():\n"
           "    return time.time()\n")

    def test_flagged_on_sim_path(self, tmp_path):
        hits = by_rule(lint_pkg(tmp_path, {"sim/clock.py": self.SRC}),
                       "DET005")
        assert len(hits) == 1
        assert hits[0].severity == "warning"

    def test_out_of_scope_module_clean(self, tmp_path):
        assert not by_rule(lint_pkg(tmp_path,
                                    {"analysis/clock.py": self.SRC}),
                           "DET005")


# ---------------------------------------------------------------------------
# suppression semantics
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_missing_reason_is_a_finding(self, tmp_path):
        src = ("def key(name):\n"
               "    return hash(name)  # lint: ignore[DET004]\n")
        findings = lint_pkg(tmp_path, {"workloads/gen.py": src})
        hits = by_rule(findings, "LINT001")
        assert len(hits) == 1
        assert hits[0].severity == "error"

    def test_stale_suppression_is_a_finding(self, tmp_path):
        src = ("def f():\n"
               "    # lint: ignore[DET001] -- nothing to see here\n"
               "    return 1\n")
        hits = by_rule(lint_pkg(tmp_path, {"workloads/gen.py": src}),
                       "LINT002")
        assert len(hits) == 1

    def test_comment_block_covers_next_statement(self, tmp_path):
        src = ("def key(name):\n"
               "    # lint: ignore[DET004] -- an in-process cache key;\n"
               "    # the value never reaches a digest or a store\n"
               "    return hash(name)\n")
        findings = lint_pkg(tmp_path, {"workloads/gen.py": src})
        assert not by_rule(findings, "DET004")
        assert not by_rule(findings, "LINT002")

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        src = ('"""Write # lint: ignore[DET004] -- why, to suppress."""\n')
        findings = lint_pkg(tmp_path, {"workloads/gen.py": src})
        assert not by_rule(findings, "LINT001")
        assert not by_rule(findings, "LINT002")

    def test_filtered_out_rule_is_not_stale(self, tmp_path):
        # With --rules restricting the run, a suppression for an
        # unselected rule cannot have matched anything -- it is not stale.
        src = ("def key(name):\n"
               "    return hash(name)  "
               "# lint: ignore[DET004] -- in-process cache key only\n")
        findings = lint_pkg(tmp_path, {"workloads/gen.py": src},
                            rules=["DET001"])
        assert not by_rule(findings, "LINT002")

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = lint_pkg(tmp_path, {"workloads/gen.py": "def f(:\n"})
        hits = by_rule(findings, "LINT003")
        assert len(hits) == 1
        assert hits[0].severity == "error"


# ---------------------------------------------------------------------------
# protocol rules (contract registries)
# ---------------------------------------------------------------------------

class TestPacketCoverage:
    def test_consistent_contract_is_clean(self, tmp_path):
        assert not by_rule(lint_pkg(tmp_path), "PROTO001")

    def test_unmapped_packet_kind(self, tmp_path):
        src = PACKETS_SRC.replace(
            "    @staticmethod\n    def rdf_response():",
            "    @staticmethod\n    def wta():\n"
            "        return 3\n\n"
            "    @staticmethod\n    def rdf_response():")
        hits = by_rule(lint_pkg(tmp_path, {"core/packets.py": src}),
                       "PROTO001")
        assert len(hits) == 1
        assert "wta" in hits[0].message
        assert hits[0].severity == "error"

    def test_unknown_fault_site(self, tmp_path):
        src = PACKETS_SRC.replace('"gpu_link_down"', '"warp_hole"')
        hits = by_rule(lint_pkg(tmp_path, {"core/packets.py": src}),
                       "PROTO001")
        assert len(hits) == 1
        assert "warp_hole" in hits[0].message

    def test_stale_mapping_entry(self, tmp_path):
        src = PACKETS_SRC.replace(
            '    "rdf_response": "mem_net",',
            '    "rdf_response": "mem_net",\n    "ghost": "mem_net",')
        hits = by_rule(lint_pkg(tmp_path, {"core/packets.py": src}),
                       "PROTO001")
        assert len(hits) == 1
        assert "ghost" in hits[0].message


class TestMetricNames:
    def test_typo_flagged(self, tmp_path):
        src = ("def publish(m):\n"
               "    m.counter(\"packts.CMD\").add(1)\n")
        hits = by_rule(lint_pkg(tmp_path, {"sim/probe.py": src}),
                       "PROTO002")
        assert len(hits) == 1
        assert "packts.CMD" in hits[0].message
        assert hits[0].line == 2

    def test_registered_and_pattern_names_clean(self, tmp_path):
        src = ("def publish(m):\n"
               "    m.counter(\"sm.live_warps\").add(1)\n"
               "    m.counter(\"packets.offload_cmd\").add(1)\n")
        assert not by_rule(lint_pkg(tmp_path, {"sim/probe.py": src}),
                           "PROTO002")


class TestFaultSites:
    def test_bogus_site_flagged(self, tmp_path):
        src = ("def arm(faults):\n"
               "    return faults.packet(\"bogus_site\", 1)\n")
        hits = by_rule(lint_pkg(tmp_path, {"faults/user.py": src}),
                       "PROTO003")
        assert len(hits) == 1
        assert "bogus_site" in hits[0].message

    def test_declared_site_clean(self, tmp_path):
        src = ("def arm(faults):\n"
               "    return faults.packet(\"mem_net\", 1)\n")
        assert not by_rule(lint_pkg(tmp_path, {"faults/user.py": src}),
                           "PROTO003")


class TestFacadeDrift:
    def test_aligned_cli_is_clean(self, tmp_path):
        assert not [f for f in by_rule(lint_pkg(tmp_path), "FAC001")
                    if f.severity == "error"]

    def test_unmatched_flag_is_an_error(self, tmp_path):
        src = CLI_SRC.replace(
            'p.add_argument("--workload")',
            'p.add_argument("--workload")\n'
            '    p.add_argument("--frobnicate")')
        hits = [f for f in by_rule(lint_pkg(tmp_path, {"cli.py": src}),
                                   "FAC001") if f.severity == "error"]
        assert len(hits) == 1
        assert "frobnicate" in hits[0].message
        assert hits[0].path.endswith("cli.py")

    def test_facade_param_without_flag_is_a_warning(self, tmp_path):
        src = API_SRC + "    block_size: int = 64\n"
        hits = [f for f in by_rule(lint_pkg(tmp_path, {"api.py": src}),
                                   "FAC001")
                if "block_size" in f.message]
        assert len(hits) == 1
        assert hits[0].severity == "warning"


# ---------------------------------------------------------------------------
# perf rules
# ---------------------------------------------------------------------------

class TestHotPathAllocation:
    ENGINE_LAMBDA = (
        "class Engine:\n"
        "    def process_due(self):\n"
        "        self.cb = lambda: None\n")

    def test_engine_method_lambda_flagged(self, tmp_path):
        hits = by_rule(lint_pkg(
            tmp_path, {"sim/engine.py": self.ENGINE_LAMBDA}), "PERF001")
        assert len(hits) == 1
        assert "process_due" in hits[0].message

    def test_tick_method_closure_flagged(self, tmp_path):
        src = ("class SM:\n"
               "    def tick(self):\n"
               "        def cb():\n"
               "            return self\n"
               "        self.cb = cb\n")
        hits = by_rule(lint_pkg(tmp_path, {"gpu/sm.py": src}), "PERF001")
        assert len(hits) == 1
        assert "nested function 'cb'" in hits[0].message

    def test_partial_in_tick_flagged(self, tmp_path):
        src = ("import functools\n"
               "class NSU:\n"
               "    def tick(self):\n"
               "        self.cb = functools.partial(print, 1)\n")
        hits = by_rule(lint_pkg(tmp_path, {"core/nsu.py": src}), "PERF001")
        assert len(hits) == 1

    def test_alloc_ok_annotation_allows(self, tmp_path):
        src = ("class Engine:\n"
               "    def process_due(self):\n"
               "        self.cb = lambda: None"
               "  # perf: alloc-ok -- once per drain, not per event\n")
        assert not by_rule(lint_pkg(
            tmp_path, {"sim/engine.py": src}), "PERF001")

    def test_alloc_ok_without_reason_is_a_finding(self, tmp_path):
        src = ("class Engine:\n"
               "    def process_due(self):\n"
               "        self.cb = lambda: None  # perf: alloc-ok\n")
        hits = by_rule(lint_pkg(tmp_path, {"sim/engine.py": src}),
                       "PERF001")
        assert any("without a reason" in f.message for f in hits)

    def test_cold_functions_and_modules_unflagged(self, tmp_path):
        # non-hot method in the engine module's other classes, and a
        # tick() outside the sim path, are both fine
        engine = ("class RateAccumulator:\n"
                  "    def step_many(self):\n"
                  "        self.cb = lambda: None\n")
        serve = ("class Shard:\n"
                 "    def tick(self):\n"
                 "        self.cb = lambda: None\n")
        assert not by_rule(lint_pkg(tmp_path, {
            "sim/engine.py": engine, "serve/shard.py": serve}), "PERF001")


# ---------------------------------------------------------------------------
# baseline + reporters
# ---------------------------------------------------------------------------

class TestBaseline:
    def test_round_trip_masks_then_unmasks(self, tmp_path):
        pkg = make_pkg(tmp_path,
                       {"workloads/gen.py": TestSetIteration.POSITIVE})
        bl = tmp_path / "baseline.json"
        first = run_lint([pkg], baseline=bl, update_baseline=True)
        assert first.exit_code == 0 and bl.is_file()

        second = run_lint([pkg], baseline=bl)
        assert second.exit_code == 0
        assert not second.live
        assert any(f.baselined for f in second.findings)

        # a new violation in another file is not masked
        extra = pkg / "workloads" / "gen2.py"
        extra.write_text("def f(d):\n"
                         "    return [v for v in d.values()][0]\n")
        third = run_lint([pkg], baseline=bl)
        assert third.exit_code == 1
        assert all(f.path.endswith("gen2.py") for f in third.live)

    def test_baseline_key_survives_line_moves(self, tmp_path):
        pkg = make_pkg(tmp_path,
                       {"workloads/gen.py": TestSetIteration.POSITIVE})
        bl = tmp_path / "baseline.json"
        run_lint([pkg], baseline=bl, update_baseline=True)
        shifted = "\n\n" + TestSetIteration.POSITIVE
        (pkg / "workloads" / "gen.py").write_text(shifted)
        report = run_lint([pkg], baseline=bl)
        assert report.exit_code == 0

    def test_no_baseline_reports_everything(self, tmp_path):
        pkg = make_pkg(tmp_path,
                       {"workloads/gen.py": TestSetIteration.POSITIVE})
        bl = tmp_path / "baseline.json"
        run_lint([pkg], baseline=bl, update_baseline=True)
        report = run_lint([pkg], baseline=bl, use_baseline=False)
        assert report.exit_code == 1


class TestReporters:
    def test_json_payload(self, tmp_path):
        pkg = make_pkg(tmp_path,
                       {"workloads/gen.py": TestSetIteration.POSITIVE})
        report = run_lint([pkg], use_baseline=False)
        payload = json.loads(render_json(report.findings, report.files))
        assert payload["files"] == report.files
        assert payload["counts"]["error"] == 1
        assert payload["clean"] is False
        (entry,) = [f for f in payload["findings"]
                    if f["rule"] == "DET001"]
        assert entry["line"] == 4 and entry["severity"] == "error"

    def test_pretty_lists_rule_and_location(self, tmp_path):
        pkg = make_pkg(tmp_path,
                       {"workloads/gen.py": TestSetIteration.POSITIVE})
        report = run_lint([pkg], use_baseline=False)
        text = render_pretty(report.findings, report.files)
        assert "DET001" in text and "gen.py:4" in text
        assert "error" in text

    def test_rule_filter(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "workloads/gen.py": TestSetIteration.POSITIVE,
            "sim/probe.py": "def publish(m):\n"
                            "    m.counter(\"packts.CMD\").add(1)\n",
        })
        report = run_lint([pkg], use_baseline=False, rules=["PROTO002"])
        assert {f.rule for f in report.findings} == {"PROTO002"}


# ---------------------------------------------------------------------------
# the shipped tree
# ---------------------------------------------------------------------------

class TestShippedTree:
    def test_rule_table_is_consistent(self):
        ids = [r.id for r in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert all(r.severity in ("error", "warning", "info")
                   for r in ALL_RULES)

    def test_src_repro_lints_clean(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        report = run_lint([root / "src" / "repro"],
                          baseline=root / ".repro-lint-baseline.json")
        assert report.exit_code == 0, render_pretty(report.findings,
                                                    report.files)

    def test_real_contracts_parse(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        proj = Project.from_package(root / "src" / "repro")
        assert "offload_cmd" in proj.packet_fault_sites
        assert "mem_net" in proj.packet_sites
        assert proj.metric_known("sm.live_warps")
        assert proj.metric_known("packets.offload_cmd")
        assert not proj.metric_known("packts.CMD")
        assert "workload" in proj.run_request_fields


class TestMetricReceiverNaming:
    """PROTO004 (the enforced receiver-naming convention) and the
    annotation-aware receiver resolution that replaced PROTO002's old
    name-list heuristic."""

    BAD_EMIT = "    {recv}.counter(\"packts.CMD\").add(1)\n"

    def test_conventional_bindings_are_clean(self, tmp_path):
        src = ("from repro.sim.metrics import MetricsRegistry\n"
               "m = MetricsRegistry()\n"
               "metrics = MetricsRegistry()\n"
               "registry = MetricsRegistry()\n"
               "run_metrics = MetricsRegistry()\n"
               "shard_registry = MetricsRegistry()\n")
        assert not by_rule(lint_pkg(tmp_path, {"serve/wire.py": src}),
                           "PROTO004")

    def test_assignment_to_unconventional_name_flagged(self, tmp_path):
        src = "tracker = MetricsRegistry()\n"
        hits = by_rule(lint_pkg(tmp_path, {"serve/wire.py": src}),
                       "PROTO004")
        assert len(hits) == 1
        assert "tracker" in hits[0].message
        assert hits[0].severity == "error"

    def test_annotated_param_flagged(self, tmp_path):
        src = ("def attach(tracker: MetricsRegistry):\n"
               "    return tracker\n")
        hits = by_rule(lint_pkg(tmp_path, {"serve/wire.py": src}),
                       "PROTO004")
        assert len(hits) == 1
        assert "tracker" in hits[0].message

    def test_annotated_attribute_flagged(self, tmp_path):
        src = ("class Daemon:\n"
               "    def __init__(self):\n"
               "        self.tracker: MetricsRegistry = MetricsRegistry()\n")
        hits = by_rule(lint_pkg(tmp_path, {"serve/wire.py": src}),
                       "PROTO004")
        assert len(hits) == 1
        assert "tracker" in hits[0].message

    def test_optional_and_forward_ref_annotations_recognized(self, tmp_path):
        src = ("def a(tracker: MetricsRegistry | None):\n"
               "    return tracker\n"
               "def b(keeper: \"MetricsRegistry\"):\n"
               "    return keeper\n")
        hits = by_rule(lint_pkg(tmp_path, {"serve/wire.py": src}),
                       "PROTO004")
        assert {h.message.split("'")[1] for h in hits} \
            == {"tracker", "keeper"}

    def test_proto002_follows_annotated_receiver(self, tmp_path):
        # Even before the rename PROTO004 demands, PROTO002 must see the
        # bad metric name through the annotated binding.
        src = ("def publish(tracker: MetricsRegistry):\n"
               + self.BAD_EMIT.format(recv="tracker"))
        hits = by_rule(lint_pkg(tmp_path, {"sim/probe.py": src}),
                       "PROTO002")
        assert len(hits) == 1
        assert "packts.CMD" in hits[0].message

    def test_proto002_follows_constructed_receiver(self, tmp_path):
        src = ("def publish():\n"
               "    tracker = MetricsRegistry()\n"
               + self.BAD_EMIT.format(recv="tracker"))
        hits = by_rule(lint_pkg(tmp_path, {"sim/probe.py": src}),
                       "PROTO002")
        assert len(hits) == 1

    def test_proto002_follows_suffix_convention(self, tmp_path):
        src = ("def publish(shard_metrics):\n"
               + self.BAD_EMIT.format(recv="shard_metrics"))
        hits = by_rule(lint_pkg(tmp_path, {"sim/probe.py": src}),
                       "PROTO002")
        assert len(hits) == 1

    def test_unrecognizable_receiver_stands_down(self, tmp_path):
        # An unannotated, unconventionally named parameter is invisible
        # to PROTO002 by design -- PROTO004 outlaws creating such a
        # binding, which is what keeps this gate sound.
        src = ("def publish(thing):\n"
               + self.BAD_EMIT.format(recv="thing"))
        assert not by_rule(lint_pkg(tmp_path, {"sim/probe.py": src}),
                           "PROTO002")
