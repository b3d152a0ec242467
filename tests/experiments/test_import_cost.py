"""scipy loads only when the LP solves, and networkx never loads.

``scipy.optimize`` (the §4.6 wait-time linear program) is the heaviest
import of the package, so importing :mod:`repro.experiments` and running
the PHY and routing experiments must not pay for it: it loads on the
first :func:`repro.core.sync.optimize_wait_times` solve.  The routing
layer keeps its ETX graphs in :class:`repro.net.etx.EtxGraph`, so no
step may load ``networkx`` at all.  Each check runs in a fresh
interpreter, because the test process itself may have imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import json, sys
from repro.experiments import registry

def loaded():
    return {"scipy": "scipy" in sys.modules, "networkx": "networkx" in sys.modules}

steps = {}
for name in ("fig12", "fig18", "fig20_link_dynamics"):
    spec = registry.get(name)
    spec.run(spec.make_config("smoke"))
    steps[name] = loaded()
from repro.core.sync import optimize_wait_times
optimize_wait_times([[1.0, 2.0]], [0.0, 0.5])
steps["lp"] = loaded()
print(json.dumps(steps))
"""


def _probe() -> dict[str, dict[str, bool]]:
    """Modules loaded after each probe step, from a fresh interpreter."""
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_heavy_imports_load_only_when_used():
    steps = _probe()
    assert steps["fig12"] == {"scipy": False, "networkx": False}
    assert steps["fig18"] == {"scipy": False, "networkx": False}
    assert steps["fig20_link_dynamics"] == {"scipy": False, "networkx": False}
    assert steps["lp"] == {"scipy": True, "networkx": False}
