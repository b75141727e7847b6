"""The CONC rule family: fixtures corpus and annotations."""

import shutil
from pathlib import Path

from repro.lint import run_lint
from repro.lint.concurrency import (build_manifest, class_models,
                                    parse_guard_annotations)

FIXTURES = Path(__file__).parent / "lint_fixtures"


def lint_fixture(name: str, rule: str):
    """Findings for one fixture file, restricted to one CONC rule."""
    report = run_lint([FIXTURES / name], rules=[rule])
    return [f for f in report.findings if f.rule == rule]


def lint_as_serve(tmp_path, name: str, rule: str):
    """Lint a fixture placed so its module resolves to repro.serve.*
    (CONC005 is scoped to serve/analysis modules)."""
    pkg = tmp_path / "repro" / "serve"
    pkg.mkdir(parents=True, exist_ok=True)
    shutil.copy(FIXTURES / name, pkg / "handler.py")
    report = run_lint([pkg / "handler.py"], rules=[rule])
    return [f for f in report.findings if f.rule == rule]


# -- the corpus: one bad and one good fixture per rule ------------------------

class TestFixtureCorpus:
    def test_conc001_bad(self):
        findings = lint_fixture("conc001_bad.py", "CONC001")
        assert len(findings) == 2
        assert any("_total" in f.message for f in findings)
        assert any("_high" in f.message for f in findings)

    def test_conc001_good(self):
        assert lint_fixture("conc001_good.py", "CONC001") == []

    def test_conc002_bad(self):
        findings = lint_fixture("conc002_bad.py", "CONC002")
        assert len(findings) == 2
        assert any("time.sleep" in f.message for f in findings)
        assert any("result" in f.message for f in findings)

    def test_conc002_good(self):
        assert lint_fixture("conc002_good.py", "CONC002") == []

    def test_conc003_bad(self):
        findings = lint_fixture("conc003_bad.py", "CONC003")
        assert len(findings) == 2
        assert any("without holding" in f.message for f in findings)
        assert any("predicate loop" in f.message for f in findings)

    def test_conc003_good(self):
        assert lint_fixture("conc003_good.py", "CONC003") == []

    def test_conc004_bad(self):
        findings = lint_fixture("conc004_bad.py", "CONC004")
        assert len(findings) == 2

    def test_conc004_good(self):
        assert lint_fixture("conc004_good.py", "CONC004") == []

    def test_conc005_bad(self, tmp_path):
        findings = lint_as_serve(tmp_path, "conc005_bad.py", "CONC005")
        imports = [f for f in findings if "import" in f.message]
        lambdas = [f for f in findings if "lambda" in f.message]
        assert len(imports) == 2 and len(lambdas) == 2

    def test_conc005_good(self, tmp_path):
        assert lint_as_serve(tmp_path, "conc005_good.py", "CONC005") == []

    def test_conc005_inert_outside_serve(self):
        # The same bad file as a plain module: the import restriction
        # does not apply (only the scope makes it serve-layer code).
        assert lint_fixture("conc005_bad.py", "CONC005") == []


# -- annotations, inference, manifest -----------------------------------------

ANNOTATED = '''\
import threading


class Box:
    def __init__(self):
        self._items = []   # guarded-by: _lock
        self.reads = 0     # guarded-by: none -- diagnostic only
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
'''


class TestAnnotations:
    def test_parse_guard_annotations(self):
        anns = parse_guard_annotations(ANNOTATED)
        by_lock = {a.lock: a for a in anns}
        assert set(by_lock) == {"_lock", "none"}
        assert by_lock["none"].reason == "diagnostic only"
        assert by_lock["_lock"].reason is None

    def test_annotation_requires_known_lock(self):
        src = ANNOTATED.replace("guarded-by: _lock", "guarded-by: _nope")
        from repro.lint.core import FileContext
        from repro.lint.concurrency import GuardedAttributeRule
        ctx = FileContext("box.py", src, "box")
        GuardedAttributeRule().check_file(ctx, None)
        assert any("_nope" in f.message for f in ctx.findings)

    def test_condition_alias_groups(self):
        import ast
        models = {m.name: m
                  for m in class_models(ast.parse(ANNOTATED), ANNOTATED)}
        box = models["Box"]
        assert box.aliases == {"_ready": "_lock"}
        assert box.group("_lock") == frozenset({"_lock", "_ready"})
        assert "_items" in box.guards and "reads" not in box.guards

    def test_build_manifest_shape(self):
        manifest = build_manifest({"pkg.box": ANNOTATED})
        contract = manifest["pkg.box.Box"]
        assert contract["locks"] == {"_lock": "lock", "_ready": "condition"}
        assert contract["guard_groups"]["_items"] == ["_lock", "_ready"]
        assert "reads" not in contract["guard_groups"]

    def test_suppression_silences_conc(self, tmp_path):
        src = ("import threading\n\n\n"
               "class C:\n"
               "    def __init__(self):\n"
               "        self._x = 0   # guarded-by: _lock\n"
               "        self._lock = threading.Lock()\n\n"
               "    def peek(self):\n"
               "        # lint: ignore[CONC001] -- benign monotonic read\n"
               "        return self._x\n")
        p = tmp_path / "c.py"
        p.write_text(src)
        report = run_lint([p], rules=["CONC001"])
        assert [f.rule for f in report.findings] == []


# -- the shipped tree ---------------------------------------------------------

class TestShippedTreeConcurrency:
    def test_serve_stack_is_conc_clean(self):
        root = Path(__file__).parent.parent / "src" / "repro"
        report = run_lint([root / "serve", root / "sim" / "store.py"],
                          rules=["CONC001", "CONC002", "CONC003",
                                 "CONC004", "CONC005"])
        assert [f.format() for f in report.findings] == []

    def test_manifest_covers_serve_locks(self):
        import inspect
        import repro.serve.daemon as daemon
        import repro.serve.jobs as jobs
        import repro.serve.limiter as limiter
        import repro.serve.pool as pool
        manifest = build_manifest({
            m.__name__: inspect.getsource(m)
            for m in (daemon, jobs, limiter, pool)})
        assert "repro.serve.jobs.JobQueue" in manifest
        jq = manifest["repro.serve.jobs.JobQueue"]
        for attr in ("_lanes", "_order", "_cursor", "_depth", "_closed"):
            assert jq["guard_groups"][attr] == ["_lock", "_ready"]
        # 'none' opt-outs stay out of the runtime contract.
        assert "hits" not in manifest["repro.serve.jobs.Coalescer"][
            "guard_groups"]
        assert "rejections" not in manifest[
            "repro.serve.limiter.TokenBucket"]["guard_groups"]
        # Restart counts live in each shard's executor (one writer per
        # counter), so ShardPool owns no lock at all.
        assert "repro.serve.pool.ShardPool" not in manifest
