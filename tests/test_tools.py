"""The rules of the repository's static and trace checks (``tools/``)."""

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent / "tools"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def untraced():
    return _load("untraced", TOOLS / "untraced.py")


@pytest.fixture(scope="module")
def unused():
    return _load("unused", TOOLS / "unused.py")


MODULE = textwrap.dedent(
    """\
    import abc
    import functools


    class Base(abc.ABC):
        @abc.abstractmethod
        def declared(self):
            return 0


    def plain():
        return 1


    @functools.lru_cache(
        maxsize=None,
    )
    def decorated():
        return 2


    def child():
        return 3
    """
)


@pytest.fixture
def package(tmp_path, untraced):
    """A one-module package whose ``plain`` and ``decorated`` ran under
    the tool's trace; ``child`` never did."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "mod.py").write_text(MODULE)
    module = _load("traced_mod", root / "mod.py")
    _, called = untraced.traced(
        lambda: (module.plain(), module.decorated()), str(root)
    )
    return root, called


class TestUntraced:
    def test_only_the_uncalled_def_fails(self, untraced, package):
        """The abstract body is skipped, and the decorated def is found at
        its decorator line, where the trace reports it."""
        root, called = package
        assert untraced.report(root, called, child_only=()) == [
            f"FAIL mod.py: child:{MODULE.splitlines().index('def child():') + 1}"
        ]

    def test_decorator_line_is_the_first_line(self, untraced, package):
        root, _ = package
        lines = untraced.defined(root / "mod.py")
        first = MODULE.splitlines().index("@functools.lru_cache(") + 1
        assert lines[first] == "decorated"
        assert "declared" not in lines.values()

    def test_child_only_exempts_a_def(self, untraced, package):
        root, called = package
        assert untraced.report(root, called, (("mod.py", "child"),)) == []

    def test_stale_child_only_entry_fails(self, untraced, package):
        root, called = package
        stale = (("mod.py", "child"), ("mod.py", "gone"), ("nope.py", "x"))
        assert untraced.report(root, called, stale) == [
            "FAIL CHILD_ONLY mod.py: no def gone",
            "FAIL CHILD_ONLY nope.py: no def x",
        ]
        traced = (("mod.py", "child"), ("mod.py", "plain"))
        assert untraced.report(root, called, traced) == [
            "FAIL CHILD_ONLY mod.py: plain runs in-process"
        ]

    def test_package_child_only_entries_exist(self, untraced):
        for rel, name in untraced.CHILD_ONLY:
            assert name in untraced.defined(untraced.SRC / rel).values()


class TestUnusedLocals:
    def check(self, unused, source):
        return unused.unread_locals(ast.parse(textwrap.dedent(source)))

    def test_assigned_and_never_read_fails(self, unused):
        assert self.check(
            unused,
            """
            def f(x):
                total = 0
                total += x
                seen = x
                return seen
            """,
        ) == {"f.total": 3}

    def test_exempt_forms(self, unused):
        """Tuple unpacking, ``_`` names, declared globals and reads in a
        nested function or a later statement are not flagged."""
        assert self.check(
            unused,
            """
            def f(pairs):
                global state
                state = 1
                a, b = pairs
                _ignored = 2
                count = 0

                def bump():
                    return count + 1

                return bump
            """,
        ) == {}
