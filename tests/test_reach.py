"""The reach profiler (tools/reach.py) on a tiny package whose reach is
known: no paper artifact or workload is run."""

import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reach  # dataclasses look their module up
_spec.loader.exec_module(reach)

MODULE = textwrap.dedent('''\
    def used():
        return helper()


    def helper():
        return 1


    def unused():
        value = 1
        return value


    class Widget:
        @property
        def size(self):
            return 1

        def never(self):
            def inner():
                return 2
            return inner()


    def outer():
        def inner_unused():
            return 3
        return 4
''')


def test_reach_of_a_known_package(tmp_path, monkeypatch):
    package = tmp_path / "reachpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (package / "idle.py").write_text("def idle():\n    return 0\n")
    monkeypatch.syspath_prepend(str(tmp_path))

    def run():
        mod = importlib.import_module("reachpkg.mod")
        mod.used()
        assert mod.Widget().size == 1
        mod.outer()

    try:
        modules = reach.measure(package, run)
    finally:
        for name in ("reachpkg", "reachpkg.mod"):
            sys.modules.pop(name, None)
    by_name = {m.path.name: m for m in modules}
    assert sorted(by_name) == ["__init__.py", "idle.py", "mod.py"]
    mod = by_name["mod.py"]
    assert [f.name for f in mod.functions] == [
        "used", "helper", "unused", "Widget.size", "Widget.never",
        "Widget.never.inner", "outer", "outer.inner_unused",
    ]
    assert [f.name for f in mod.unreached] == [
        "unused", "Widget.never", "Widget.never.inner", "outer.inner_unused",
    ]
    # unused: 3 lines; never: 4 (inner counted once, inside it); 2 more.
    assert mod.unreached_lines == 3 + 4 + 2
    assert by_name["idle.py"].unreached_lines == 2
    assert reach.totals(modules) == (5, 9, 11, 28 + 2)
    report = reach.format_report(modules, tmp_path)
    assert "reachpkg/mod.py: 4 of 8 functions, 9 of 28 lines unreached" in report
    assert "  Widget.never  lines 19-22" in report
    assert report.endswith("total: 5 of 9 functions and 11 of 30 lines never reached")
