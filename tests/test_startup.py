"""Start-up budget: the CLI and the sweep path import neither scipy, networkx
nor ``http.server``, and the lazy package ``__init__``s keep every public
name importable from where it has always been.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Prepended to a fresh interpreter: any import of a blocked module (or one
#: of its submodules) raises ImportError.
BLOCKER = """\
import sys

class _Blocker:
    BLOCKED = ("scipy", "networkx", "http.server")

    def find_spec(self, name, path=None, target=None):
        if any(name == b or name.startswith(b + ".") for b in self.BLOCKED):
            raise ImportError(f"blocked import of {name}")
        return None

sys.meta_path.insert(0, _Blocker())
"""

TINY_SWEEP = ["sweep", "theorem1", "--scale", "0.1", "--runs", "2",
              "--no-cache"]

LAZY_PACKAGES = ("repro", "repro.analysis", "repro.experiments",
                 "repro.store")


def _python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=str(REPO_ROOT),
                          timeout=120)


def _cli(argv, blocked: bool) -> subprocess.CompletedProcess:
    code = (f"import runpy, sys\n"
            f"sys.argv = ['repro'] + {list(argv)!r}\n"
            f"runpy.run_module('repro', run_name='__main__')\n")
    return _python(BLOCKER + code if blocked else code)


class TestImportBudget:
    def test_blocker_blocks(self):
        proc = _python(BLOCKER + "import networkx\n")
        assert proc.returncode != 0
        assert "blocked import of networkx" in proc.stderr

    def test_entry_points_import_without_heavy_modules(self):
        proc = _python(BLOCKER + "import repro, repro.engine, repro.store, "
                                 "repro.cli\nprint('ok')\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    @pytest.mark.parametrize("argv", [TINY_SWEEP, ["rules"]],
                             ids=["tiny-sweep", "rules"])
    def test_cli_runs_and_matches_unblocked_output(self, argv):
        blocked = _cli(argv, blocked=True)
        assert blocked.returncode == 0, blocked.stderr
        plain = _cli(argv, blocked=False)
        assert plain.returncode == 0, plain.stderr
        assert blocked.stdout == plain.stdout
        assert blocked.stdout.strip()


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            getattr(module, name)
            assert name in listed, name
        star: dict = {}
        exec(f"from {package} import *", star)
        assert set(module.__all__) <= set(star)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        assert not hasattr(module, "no_such_name")

    def test_submodules_are_attributes_on_first_use(self):
        proc = _python("import repro, repro.analysis\n"
                       "assert 'engine' in dir(repro)\n"
                       "print(repro.engine.__name__, repro.analysis.clt.__name__)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["repro.engine", "repro.analysis.clt"]
