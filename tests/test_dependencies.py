import ast
import sys
from pathlib import Path

import quasifit

SOURCES = sorted(Path(quasifit.__file__).resolve().parent.glob("*.py"))
TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))


def _imports_outside(sources, allowed):
    """`file: module` for every absolute import of a module outside the standard library and `allowed`."""
    outside = set()
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{source.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | allowed}
    return outside


def test_numpy_is_the_only_runtime_dependency():
    # scipy is installed for the cross-check tests, but the package must not need it
    assert SOURCES
    assert not _imports_outside(SOURCES, {"numpy"})


def test_tools_need_only_the_standard_library():
    assert TOOLS
    # a tool may import another tool, whose own imports this checks too, and
    # the package under src/, whose own imports the test above checks
    assert not _imports_outside(TOOLS, {tool.stem for tool in TOOLS} | {"quasifit"})
