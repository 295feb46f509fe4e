"""The names the benchmark under perfbench/ looks up in zcl still exist.

perfbench/spans.py wraps zcl functions found with getattr, and
perfbench/run.py calls the model directly, so a rename in src/ breaks the
benchmark without breaking any other test.  The check runs in a subprocess
because instrument() monkeypatches zcl's modules.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import run, spans
tracer = spans.Tracer("t")
spans.instrument(tracer)
run.wolman_probe(tracer)
print([span["name"] for span in tracer.spans])
"""


def test_perfbench_finds_every_zcl_name_it_uses():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        # Bytecode off: the check only reads perfbench/.
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['model.wolman']"
