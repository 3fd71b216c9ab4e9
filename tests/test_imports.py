"""The library runs on the standard library alone."""

import json
import subprocess
import sys
from pathlib import Path

import heffter

CHILD = """
import json, pkgutil, sys
sys.path.insert(0, {src!r})
import heffter
for info in pkgutil.iter_modules(heffter.__path__):
    __import__("heffter." + info.name)
print(json.dumps({{
    "loaded": sorted(m for m in sys.modules if m.startswith("heffter.")),
    "numpy": "numpy" in sys.modules,
}}))
"""


def test_import_loads_no_numpy():
    src = str(Path(heffter.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", CHILD.format(src=src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert {"heffter.cli", "heffter.embedding", "heffter.iso",
            "heffter.kernels"} <= set(child["loaded"])
    assert not child["numpy"]
