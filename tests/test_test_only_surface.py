"""The test-only surface report, on a tiny repository tree."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_TOOL = ROOT / "tools" / "test_only_surface.py"
_spec = importlib.util.spec_from_file_location("test_only_surface", _TOOL)
test_only_surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(test_only_surface)


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


MODULE = '''
__all__ = ["listed_only"]


def used():
    return _private()


def _private():
    return 1


def only_tested():
    return 2


def listed_only():
    return 3


def by_string():
    return 4


class Box:
    def run(self):
        return self.helper_inside()

    def helper_inside(self):
        return 5

    def test_helper(self):
        return 6

    class Inner:
        def deep(self):
            return 7
'''


def test_reports_what_only_tests_reference(tmp_path, capsys):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "from pkg.mod import only_tested, used\n",
        "src/pkg/mod.py": MODULE,
        "examples/demo.py": (
            "from pkg.mod import Box, used\n"
            "used()\n"
            "Box().run()\n"
            "getattr(Box, 'by_string')\n"
        ),
        "tests/test_mod.py": (
            "from pkg.mod import Box, listed_only, only_tested\n"
            "only_tested()\n"
            "listed_only()\n"
            "Box().test_helper()\n"
            "Box.Inner().deep()\n"
        ),
        "tests/helpers/extra.py": "from pkg.mod import Box\nBox.Inner\n",
    })
    found = [qual for _, _, qual in test_only_surface.candidates(root)]
    # Re-exports, imports and __all__ entries are not uses; a string
    # that is exactly the name is.  Private names are never listed.
    assert found == [
        "only_tested", "listed_only", "Box.test_helper", "Box.Inner",
        "Box.Inner.deep",
    ]
    assert test_only_surface.main(["--root", str(root)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src/pkg/mod.py:13: only_tested"
    assert len(out) == 5


def test_a_shared_name_hides_a_candidate(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/a.py": "class Env:\n    def peek(self):\n        return 0\n",
        "src/pkg/b.py": "class Queue:\n    def peek(self):\n        return 1\n",
        "tools/use.py": "from pkg.b import Queue\nQueue().peek()\n",
        "tests/test_a.py": "from pkg.a import Env\nEnv().peek()\n",
    })
    # Env.peek is test-only, but it shares its name with a used method.
    assert [q for _, _, q in test_only_surface.candidates(root)] == ["Env"]
