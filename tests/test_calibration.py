"""Every calibration constant drives the model.

A constant in :mod:`repro.calibration` that no other module reads looks
calibrated but changes nothing, and ``repro calibration`` would print it
as if it did.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
CALIBRATION = SRC / "calibration.py"


def _constants():
    """Upper-case module-level names assigned in ``calibration.py``."""
    names = []
    for node in ast.parse(CALIBRATION.read_text()).body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        names += [
            t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()
        ]
    return names


def _names_read_outside_calibration():
    """Every name, attribute and imported name under ``src/repro``
    outside ``calibration.py``."""
    seen = set()
    for path in SRC.rglob("*.py"):
        if path == CALIBRATION:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
    return seen


def test_every_calibration_constant_is_read_by_the_model():
    constants = _constants()
    assert len(constants) > 50
    read = _names_read_outside_calibration()
    assert [name for name in constants if name not in read] == []
