"""Tests for ``repro lint``: framework, rule pack, baseline ratchet, CLI.

Layout mirrors the acceptance criteria:

* per-rule fixtures — a positive (violating) snippet, a negative (clean)
  snippet, and an inline suppression for every rule;
* canaries — one injected single-rule violation per rule, each driving the
  runner to exit code 4;
* the self-run — the shipped ``src/repro`` tree must be clean against the
  committed ``lint-baseline.json``;
* catalog round-trips — statically-resolved metric emitters equal the
  ``METRICS`` catalog, instrumented seams equal ``SEAMS``;
* the baseline ratchet — grandfathered, new, and stale findings and the
  ``--write-baseline`` regeneration flow;
* the JSON artifact — schema check plus cross-commit ``diff_reports``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    Baseline,
    apply_baseline,
    default_baseline_path,
    default_root,
    default_rules,
    diff_reports,
    load_report,
    render_json,
    run_lint,
    run_rules,
    suppressions_in,
)
from repro.lint.rules import FaultSeamRule, MetricsCatalogRule

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


def make_tree(tmp_path: Path, files: dict) -> Path:
    """Write ``{relpath: source}`` under a fresh fixture root."""
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def findings_for(tmp_path: Path, files: dict, rule_id: str = None):
    rules = default_rules() if rule_id is None else [ALL_RULES[rule_id]()]
    result = run_rules(make_tree(tmp_path, files), rules)
    return result


# --------------------------------------------------------------------------- #
# framework
# --------------------------------------------------------------------------- #
class TestFramework:
    def test_suppression_parsing(self):
        lines = ["x = 1  # repro-lint: disable=rng-discipline",
                 "y = 2",
                 "z = 3  # repro-lint: disable=a, b"]
        sup = suppressions_in(lines)
        assert sup == {1: {"rng-discipline"}, 3: {"a", "b"}}

    def test_fingerprint_survives_line_shift(self, tmp_path):
        src = "import numpy as np\nnp.random.seed(1)\n"
        shifted = "import numpy as np\n# a comment\n\nnp.random.seed(1)\n"
        f1 = findings_for(tmp_path / "a", {"engine/m.py": src},
                          "rng-discipline").findings
        f2 = findings_for(tmp_path / "b", {"engine/m.py": shifted},
                          "rng-discipline").findings
        assert len(f1) == len(f2) == 1
        assert f1[0].line != f2[0].line
        assert f1[0].fingerprint == f2[0].fingerprint

    def test_parse_error_is_a_finding(self, tmp_path):
        root = make_tree(tmp_path, {"engine/bad.py": "def broken(:\n"})
        result = run_rules(root, default_rules())
        assert [f.rule for f in result.parse_errors] == ["parse-error"]
        run = run_lint(root=root, baseline_path=tmp_path / "b.json")
        assert run.exit_code == 4

    def test_multiline_statement_suppression(self, tmp_path):
        # the comment sits on a continuation line of the statement span
        src = ("import numpy as np\n"
               "np.random.seed(\n"
               "    1)  # repro-lint: disable=rng-discipline\n")
        result = findings_for(tmp_path, {"engine/m.py": src},
                              "rng-discipline")
        assert result.findings == [] and len(result.suppressed) == 1


# --------------------------------------------------------------------------- #
# per-rule fixtures: positive, negative, suppression
# --------------------------------------------------------------------------- #
class TestRngDiscipline:
    def test_positive_legacy_numpy(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"engine/m.py": "import numpy as np\nx = np.random.rand(3)\n"},
            "rng-discipline")
        assert [f.rule for f in result.findings] == ["rng-discipline"]

    def test_positive_stdlib_random(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"core/m.py": "import random\nx = random.random()\n"},
            "rng-discipline")
        assert len(result.findings) == 1

    def test_positive_wall_clock(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"analysis/m.py": "import time\nt = time.time()\n"},
            "rng-discipline")
        assert len(result.findings) == 1

    def test_negative_generator_api(self, tmp_path):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng(3)\n"
               "ss = np.random.SeedSequence(7)\n"
               "x = rng.integers(0, 10)\n")
        result = findings_for(tmp_path, {"engine/m.py": src},
                              "rng-discipline")
        assert result.findings == []

    def test_out_of_scope_not_flagged(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"util/m.py": "import numpy as np\nx = np.random.rand(3)\n"},
            "rng-discipline")
        assert result.findings == []

    def test_seam_file_exempt(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"engine/rng.py": "import numpy as np\nnp.random.seed(0)\n"},
            "rng-discipline")
        assert result.findings == []

    def test_suppression(self, tmp_path):
        src = ("import numpy as np\n"
               "np.random.seed(1)  # repro-lint: disable=rng-discipline\n")
        result = findings_for(tmp_path, {"engine/m.py": src},
                              "rng-discipline")
        assert result.findings == [] and len(result.suppressed) == 1


class TestJsonNanDiscipline:
    def test_positive(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"store/m.py": "import json\ns = json.dumps({'a': 1})\n"},
            "json-nan-discipline")
        assert [f.rule for f in result.findings] == ["json-nan-discipline"]

    def test_positive_from_import(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"obs/m.py": "from json import dumps\ns = dumps({'a': 1})\n"},
            "json-nan-discipline")
        assert len(result.findings) == 1

    def test_negative(self, tmp_path):
        src = "import json\ns = json.dumps({'a': 1}, allow_nan=False)\n"
        result = findings_for(tmp_path, {"store/m.py": src},
                              "json-nan-discipline")
        assert result.findings == []

    def test_serialization_exempt(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"io/serialization.py": "import json\ns = json.dumps({})\n"},
            "json-nan-discipline")
        assert result.findings == []

    def test_suppression(self, tmp_path):
        src = ("import json\n"
               "s = json.dumps({})  # repro-lint: disable=json-nan-discipline\n")
        result = findings_for(tmp_path, {"store/m.py": src},
                              "json-nan-discipline")
        assert result.findings == [] and len(result.suppressed) == 1


CATALOG = ("METRICS = {\n"
           "    'a.hits': {'kind': 'counter', 'doc': 'x'},\n"
           "    'a.lat_s': {'kind': 'histogram', 'doc': 'y'},\n"
           "}\n")
EMITTER = ("from repro.obs import metrics\n"
           "metrics.count('a.hits')\n"
           "metrics.observe('a.lat_s', 0.5)\n")


class TestMetricsCatalog:
    def test_negative_round_trip(self, tmp_path):
        result = findings_for(
            tmp_path, {"obs/metrics.py": CATALOG, "engine/m.py": EMITTER},
            "metrics-catalog")
        assert result.findings == []

    def test_positive_uncataloged(self, tmp_path):
        emitter = EMITTER + "metrics.count('nope')\n"
        result = findings_for(
            tmp_path, {"obs/metrics.py": CATALOG, "engine/m.py": emitter},
            "metrics-catalog")
        assert ["'nope'" in f.message for f in result.findings] == [True]

    def test_positive_kind_mismatch(self, tmp_path):
        emitter = ("from repro.obs import metrics\n"
                   "metrics.observe('a.hits', 1.0)\n"
                   "metrics.count('a.hits')\n"
                   "metrics.observe('a.lat_s', 0.5)\n")
        result = findings_for(
            tmp_path, {"obs/metrics.py": CATALOG, "engine/m.py": emitter},
            "metrics-catalog")
        assert len(result.findings) == 1
        assert "cataloged as a counter" in result.findings[0].message

    def test_positive_dead_metric(self, tmp_path):
        emitter = "from repro.obs import metrics\nmetrics.count('a.hits')\n"
        result = findings_for(
            tmp_path, {"obs/metrics.py": CATALOG, "engine/m.py": emitter},
            "metrics-catalog")
        assert len(result.findings) == 1
        assert "dead metric" in result.findings[0].message
        assert result.findings[0].path == "obs/metrics.py"

    def test_dynamic_name_skipped(self, tmp_path):
        emitter = EMITTER + "name = 'dyn'\nmetrics.count(name)\n"
        result = findings_for(
            tmp_path, {"obs/metrics.py": CATALOG, "engine/m.py": emitter},
            "metrics-catalog")
        assert result.findings == []


class TestWarningTaxonomy:
    def test_positive_bare_string(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"store/m.py": "import warnings\nwarnings.warn('careful')\n"},
            "warning-taxonomy")
        assert [f.rule for f in result.findings] == ["warning-taxonomy"]

    def test_positive_user_warning(self, tmp_path):
        src = "import warnings\nwarnings.warn('x', UserWarning)\n"
        result = findings_for(tmp_path, {"store/m.py": src},
                              "warning-taxonomy")
        assert len(result.findings) == 1

    def test_negative_cataloged_class(self, tmp_path):
        src = ("import warnings\n"
               "from repro.robustness import DegradedExecutionWarning\n"
               "warnings.warn('x', DegradedExecutionWarning)\n"
               "warnings.warn('y', category=DegradedExecutionWarning)\n")
        result = findings_for(tmp_path, {"store/m.py": src},
                              "warning-taxonomy")
        assert result.findings == []

    def test_suppression(self, tmp_path):
        src = ("import warnings\n"
               "warnings.warn('x')  # repro-lint: disable=warning-taxonomy\n")
        result = findings_for(tmp_path, {"store/m.py": src},
                              "warning-taxonomy")
        assert result.findings == [] and len(result.suppressed) == 1


class TestAtomicWriteDiscipline:
    def test_positive_bare_open(self, tmp_path):
        src = "with open('x.json', 'w') as fh:\n    fh.write('{}')\n"
        result = findings_for(tmp_path, {"store/m.py": src},
                              "atomic-write-discipline")
        assert [f.rule for f in result.findings] == ["atomic-write-discipline"]

    def test_positive_write_text(self, tmp_path):
        src = ("from pathlib import Path\n"
               "Path('x.json').write_text('{}')\n")
        result = findings_for(tmp_path, {"store/m.py": src},
                              "atomic-write-discipline")
        assert len(result.findings) == 1

    def test_negative_temp_then_replace(self, tmp_path):
        src = ("import os\n"
               "def put(path, data):\n"
               "    tmp = str(path) + '.tmp'\n"
               "    with open(tmp, 'w') as fh:\n"
               "        fh.write(data)\n"
               "    os.replace(tmp, path)\n")
        result = findings_for(tmp_path, {"store/m.py": src},
                              "atomic-write-discipline")
        assert result.findings == []

    def test_negative_append_mode(self, tmp_path):
        src = "with open('log.jsonl', 'a') as fh:\n    fh.write('x')\n"
        result = findings_for(tmp_path, {"store/m.py": src},
                              "atomic-write-discipline")
        assert result.findings == []

    def test_out_of_scope_not_flagged(self, tmp_path):
        src = "with open('x', 'w') as fh:\n    fh.write('y')\n"
        result = findings_for(tmp_path, {"analysis/m.py": src},
                              "atomic-write-discipline")
        assert result.findings == []

    def test_suppression(self, tmp_path):
        src = ("from pathlib import Path\n"
               "Path('x').write_text('')"
               "  # repro-lint: disable=atomic-write-discipline\n")
        result = findings_for(tmp_path, {"store/m.py": src},
                              "atomic-write-discipline")
        assert result.findings == [] and len(result.suppressed) == 1


class TestSpawnContext:
    def test_positive_direct_process(self, tmp_path):
        src = ("import multiprocessing\n"
               "p = multiprocessing.Process(target=print)\n")
        result = findings_for(tmp_path, {"store/coordinator.py": src},
                              "spawn-context")
        assert [f.rule for f in result.findings] == ["spawn-context"]

    def test_positive_fork_context(self, tmp_path):
        src = ("import multiprocessing\n"
               "ctx = multiprocessing.get_context('fork')\n")
        result = findings_for(tmp_path, {"store/coordinator.py": src},
                              "spawn-context")
        assert len(result.findings) == 1

    def test_positive_pool_without_mp_context(self, tmp_path):
        src = ("import http.server\n"
               "from concurrent.futures import ProcessPoolExecutor\n"
               "pool = ProcessPoolExecutor(2)\n")
        result = findings_for(tmp_path, {"net/serve.py": src},
                              "spawn-context")
        assert len(result.findings) == 1

    def test_negative_spawn(self, tmp_path):
        src = ("import multiprocessing\n"
               "from concurrent.futures import ProcessPoolExecutor\n"
               "ctx = multiprocessing.get_context('spawn')\n"
               "p = ctx.Process(target=print)\n"
               "pool = ProcessPoolExecutor(2, mp_context=ctx)\n")
        result = findings_for(tmp_path, {"store/coordinator.py": src},
                              "spawn-context")
        assert result.findings == []

    def test_out_of_scope_not_flagged(self, tmp_path):
        src = ("import multiprocessing\n"
               "p = multiprocessing.Process(target=print)\n")
        result = findings_for(tmp_path, {"engine/parallel.py": src},
                              "spawn-context")
        assert result.findings == []


SEAM_CATALOG = "SEAMS = (\n    's.write',\n    's.read',\n)\n"
SEAM_CALLER = ("from repro.robustness import fault_point\n"
               "fault_point('s.write')\n"
               "fault_point('s.read')\n")


class TestFaultSeamCoverage:
    def test_negative_round_trip(self, tmp_path):
        result = findings_for(
            tmp_path,
            {"robustness/faults.py": SEAM_CATALOG, "store/m.py": SEAM_CALLER},
            "fault-seam-coverage")
        assert result.findings == []

    def test_positive_unknown_seam(self, tmp_path):
        caller = SEAM_CALLER + "fault_point('s.ghost')\n"
        result = findings_for(
            tmp_path,
            {"robustness/faults.py": SEAM_CATALOG, "store/m.py": caller},
            "fault-seam-coverage")
        assert len(result.findings) == 1
        assert "'s.ghost'" in result.findings[0].message

    def test_positive_dead_seam(self, tmp_path):
        catalog = "SEAMS = (\n    's.write',\n    's.read',\n    's.dead',\n)\n"
        result = findings_for(
            tmp_path,
            {"robustness/faults.py": catalog, "store/m.py": SEAM_CALLER},
            "fault-seam-coverage")
        assert len(result.findings) == 1
        assert "dead seam" in result.findings[0].message
        assert result.findings[0].path == "robustness/faults.py"

    def test_seam_keyword_counts_as_instrumented(self, tmp_path):
        caller = ("from repro.robustness import fault_point\n"
                  "fault_point('s.write')\n"
                  "def save(w):\n"
                  "    w.atomic(seam='s.read')\n")
        result = findings_for(
            tmp_path,
            {"robustness/faults.py": SEAM_CATALOG, "store/m.py": caller},
            "fault-seam-coverage")
        assert result.findings == []


class TestImportHygiene:
    def test_positive_heavy_modules_anywhere(self, tmp_path):
        src = ("import networkx as nx\n"
               "from scipy.stats import norm\n"
               "from scipy import special\n")
        result = findings_for(tmp_path, {"analysis/m.py": src},
                              "import-hygiene")
        assert [f.line for f in result.findings] == [1, 2, 3]
        assert "networkx" in result.findings[0].message

    def test_positive_server_modules_outside_coordinator(self, tmp_path):
        src = ("import urllib.request\n"
               "from http.server import ThreadingHTTPServer\n"
               "from http import server\n"
               "class Client:\n"
               "    import urllib.request as request\n")
        result = findings_for(tmp_path, {"store/shard.py": src},
                              "import-hygiene")
        assert [f.line for f in result.findings] == [1, 2, 3, 5]

    def test_positive_heavy_module_in_coordinator(self, tmp_path):
        src = "import http.server\nimport scipy\n"
        result = findings_for(tmp_path, {"store/coordinator.py": src},
                              "import-hygiene")
        assert [f.line for f in result.findings] == [2]

    def test_negative(self, tmp_path):
        files = {
            "network/topology.py": (
                "from typing import TYPE_CHECKING\n"
                "import numpy as np\n"
                "import urllib.error\n"
                "from http import HTTPStatus\n"
                "if TYPE_CHECKING:\n"
                "    import networkx as nx\n"
                "def ring(n):\n"
                "    import networkx as nx\n"
                "    from scipy.stats import binom\n"
                "    return nx.cycle_graph(n)\n"),
            "store/coordinator.py": (
                "import urllib.request\n"
                "from http.server import BaseHTTPRequestHandler\n"),
        }
        result = findings_for(tmp_path, files, "import-hygiene")
        assert result.findings == []

    def test_suppression(self, tmp_path):
        src = "import networkx as nx  # repro-lint: disable=import-hygiene\n"
        result = findings_for(tmp_path, {"network/m.py": src},
                              "import-hygiene")
        assert result.findings == []
        assert len(result.suppressed) == 1


# --------------------------------------------------------------------------- #
# canaries: each injected single-rule violation must exit 4
# --------------------------------------------------------------------------- #
CANARIES = {
    "rng-discipline":
        {"engine/m.py": "import numpy as np\nnp.random.seed(1)\n"},
    "json-nan-discipline":
        {"store/m.py": "import json\ns = json.dumps({'a': 1})\n"},
    "metrics-catalog":
        {"obs/metrics.py": CATALOG,
         "engine/m.py": EMITTER + "metrics.count('uncataloged')\n"},
    "warning-taxonomy":
        {"store/m.py": "import warnings\nwarnings.warn('bare')\n"},
    "atomic-write-discipline":
        {"store/m.py": "with open('x', 'w') as fh:\n    fh.write('y')\n"},
    "spawn-context":
        {"store/coordinator.py":
         "import multiprocessing\np = multiprocessing.Process(target=print)\n"},
    "fault-seam-coverage":
        {"robustness/faults.py": SEAM_CATALOG,
         "store/m.py": SEAM_CALLER + "fault_point('s.ghost')\n"},
    "import-hygiene":
        {"analysis/m.py": "from scipy.stats import norm\n"},
}


class TestCanaries:
    @pytest.mark.parametrize("rule_id", sorted(CANARIES))
    def test_injected_violation_exits_4(self, rule_id, tmp_path):
        root = make_tree(tmp_path, CANARIES[rule_id])
        run = run_lint(root=root, baseline_path=tmp_path / "baseline.json")
        assert run.exit_code == 4
        assert rule_id in {f.rule for f in run.outcome.new}


# --------------------------------------------------------------------------- #
# baseline ratchet
# --------------------------------------------------------------------------- #
class TestBaselineRatchet:
    VIOLATION = {"store/m.py": "import json\ns = json.dumps({'a': 1})\n"}

    def test_write_then_grandfathered(self, tmp_path):
        root = make_tree(tmp_path, self.VIOLATION)
        bpath = tmp_path / "baseline.json"
        wrote = run_lint(root=root, baseline_path=bpath, write_baseline=True)
        assert wrote.exit_code == 0 and wrote.wrote_baseline
        assert len(Baseline.load(bpath).entries) == 1
        rerun = run_lint(root=root, baseline_path=bpath)
        assert rerun.exit_code == 0
        assert len(rerun.outcome.baselined) == 1 and rerun.outcome.new == []

    def test_new_finding_beyond_baseline_is_fatal(self, tmp_path):
        root = make_tree(tmp_path, self.VIOLATION)
        bpath = tmp_path / "baseline.json"
        run_lint(root=root, baseline_path=bpath, write_baseline=True)
        extra = root / "store" / "extra.py"
        extra.write_text("import warnings\nwarnings.warn('bare')\n")
        run = run_lint(root=root, baseline_path=bpath)
        assert run.exit_code == 4
        assert [f.rule for f in run.outcome.new] == ["warning-taxonomy"]
        assert len(run.outcome.baselined) == 1  # the grandfathered one stays

    def test_fixed_finding_makes_baseline_stale(self, tmp_path):
        root = make_tree(tmp_path, self.VIOLATION)
        bpath = tmp_path / "baseline.json"
        run_lint(root=root, baseline_path=bpath, write_baseline=True)
        (root / "store" / "m.py").write_text(
            "import json\ns = json.dumps({'a': 1}, allow_nan=False)\n")
        run = run_lint(root=root, baseline_path=bpath)
        assert run.exit_code == 4                 # ratchet: fail until...
        assert len(run.outcome.stale) == 1
        regen = run_lint(root=root, baseline_path=bpath, write_baseline=True)
        assert regen.exit_code == 0               # ...regenerated smaller
        assert Baseline.load(bpath).entries == {}

    def test_bad_schema_rejected(self, tmp_path):
        bpath = tmp_path / "baseline.json"
        bpath.write_text(json.dumps({"schema": 99, "entries": {}}))
        with pytest.raises(ValueError, match="schema"):
            Baseline.load(bpath)

    def test_apply_baseline_counts(self):
        outcome = apply_baseline([], Baseline(entries={
            "deadbeef0000": {"count": 2, "rule": "x", "path": "p"}}))
        assert outcome.fatal and outcome.stale[0]["grandfathered"] == 2


# --------------------------------------------------------------------------- #
# the self-run: the shipped tree is clean
# --------------------------------------------------------------------------- #
class TestSelfRun:
    def test_src_tree_clean_against_committed_baseline(self):
        run = run_lint(root=SRC_ROOT,
                       baseline_path=REPO_ROOT / "lint-baseline.json")
        assert run.result.parse_errors == []
        assert run.outcome.new == [], [f.format() for f in run.outcome.new]
        assert run.outcome.stale == []
        assert run.exit_code == 0

    def test_default_paths_resolve_to_this_checkout(self):
        assert default_root() == SRC_ROOT
        assert default_baseline_path() == REPO_ROOT / "lint-baseline.json"

    def test_metrics_catalog_round_trip(self):
        rule = MetricsCatalogRule()
        run_rules(SRC_ROOT, [rule])
        emitted = {name for _, _, name, _ in rule.emitters}
        assert rule.catalog_seen
        assert emitted == set(rule.catalog)

    def test_fault_seam_round_trip(self):
        rule = FaultSeamRule()
        run_rules(SRC_ROOT, [rule])
        instrumented = {seam for _, _, seam in rule.sites}
        assert rule.catalog_seen
        assert instrumented == set(rule.catalog)


# --------------------------------------------------------------------------- #
# CLI + JSON artifact
# --------------------------------------------------------------------------- #
class TestCliAndReport:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
            cwd=str(REPO_ROOT))

    def test_cli_clean_tree_exits_0(self, tmp_path):
        root = make_tree(tmp_path, {"engine/ok.py": "x = 1\n"})
        proc = self.run_cli("--root", str(root),
                            "--baseline", str(tmp_path / "b.json"))
        assert proc.returncode == 0, proc.stderr
        assert "0 new finding(s)" in proc.stdout

    def test_cli_violation_exits_4_with_json_report(self, tmp_path):
        root = make_tree(tmp_path, CANARIES["rng-discipline"])
        proc = self.run_cli("--root", str(root), "--format", "json",
                            "--baseline", str(tmp_path / "b.json"))
        assert proc.returncode == 4, proc.stderr
        doc = load_report(proc.stdout)
        assert doc["summary"]["exit_code"] == 4
        assert [f["rule"] for f in doc["findings"]] == ["rng-discipline"]

    def test_cli_bad_root_exits_2(self, tmp_path):
        proc = self.run_cli("--root", str(tmp_path / "missing"))
        assert proc.returncode == 2

    def test_report_schema_enforced(self):
        with pytest.raises(ValueError, match="repro-lint"):
            load_report(json.dumps({"tool": "other"}))
        with pytest.raises(ValueError, match="schema"):
            load_report(json.dumps({"tool": "repro-lint", "schema": 99}))

    def test_diff_reports(self, tmp_path):
        def report_for(files):
            run = run_lint(root=make_tree(tmp_path / files.pop("__dir__"),
                                          files),
                           baseline_path=tmp_path / "nonexistent.json")
            return load_report(render_json(run.result, run.outcome,
                                           run.exit_code))

        old = report_for({"__dir__": "a",
                          "store/m.py": "import json\nx = json.dumps({})\n"})
        new = report_for({"__dir__": "b",
                          "store/m.py":
                          "import json\nx = json.dumps({}, allow_nan=False)\n",
                          "store/n.py":
                          "import warnings\nwarnings.warn('bare')\n"})
        diff = diff_reports(old, new)
        assert [f["rule"] for f in diff["introduced"]] == ["warning-taxonomy"]
        assert [f["rule"] for f in diff["fixed"]] == ["json-nan-discipline"]
