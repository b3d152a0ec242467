"""Only :mod:`repro.net.topology` touches :class:`Testbed`'s private state.

Link profiles, delivery probabilities and derived routing state are cached
on the testbed, and the caching policy lives in one module.  Everything
else goes through the public surface: :meth:`Testbed.memo`,
:meth:`Testbed.delivery_probs` / :meth:`Testbed.delivery_prob`,
:meth:`Testbed.link_profile` and :func:`repro.net.prime_delivery_caches`.

The scan is by attribute *name*: any ``x._name`` (or ``getattr(x,
"_name")``) in ``src/repro`` outside ``net/topology.py`` whose name is a
private field, method or instance attribute of :class:`Testbed` fails.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np

from repro.net.topology import Testbed

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = SRC / "net" / "topology.py"


def private_attributes() -> set[str]:
    """Private dataclass fields, methods and instance attributes of Testbed."""
    instance = Testbed.from_positions([(0.0, 0.0), (10.0, 0.0)], rng=np.random.default_rng(0))
    names = {f.name for f in dataclasses.fields(Testbed)} | set(dir(Testbed)) | set(vars(instance))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def private_reads(root: Path = SRC) -> list[str]:
    """``path:line: .name`` for every private Testbed attribute read outside topology.py."""
    private = private_attributes()
    hits = []
    for path in sorted(root.rglob("*.py")):
        if path == OWNER:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = None
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                name = node.args[1].value
            if name in private:
                hits.append((str(path.relative_to(root.parent)), node.lineno, name))
    return [f"{path}:{line}: .{name}" for path, line, name in sorted(hits)]


def test_attribute_list_comes_from_the_class():
    """The scanned names cover the caches, the index maps and private helpers."""
    private = private_attributes()
    assert {
        "_snr_cache",
        "_profile_cache",
        "_delivery_cache",
        "_routing_cache",
        "_by_id",
        "_node_index",
        "_unprimed_pairs",
    } <= private
    assert not any(name.startswith("__") for name in private)
    assert "memo" not in private and "delivery_probs" not in private


def test_no_private_testbed_reads_outside_topology():
    hits = private_reads()
    assert not hits, "private Testbed state read outside repro.net.topology:\n" + "\n".join(hits)
