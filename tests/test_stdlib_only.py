"""Import guard: ``src/`` runs on the standard library alone."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGES = ("repro.cli", "repro.serve", "repro.live", "repro.evalharness",
            "repro.topology", "repro.xaminer", "repro.traceroute")
THIRD_PARTY = ("numpy", "scipy", "networkx")


def test_importing_the_repo_loads_no_third_party_package():
    script = (
        "import importlib, sys\n"
        f"for name in {PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(m for m in {THIRD_PARTY!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
