"""Only ``shaprank.formats`` reads, parses or writes a file.

An ``ast`` scan of every module of the package for the calls that open,
parse or write a file: ``open``, ``json.load``/``json.loads``/``json.dump``,
the ``read_text``/``read_bytes``/``write_text``/``write_bytes`` methods of a
path, ``np.frombuffer`` and ``os.replace``.  ``json.dumps`` makes a string,
as the CLI does for its stderr lines, and is allowed anywhere.
"""

import ast
from pathlib import Path

import shaprank

PACKAGE = Path(shaprank.__file__).parent
# (module, function) of a call that touches a file; None: a builtin
FILE_FUNCTIONS = {
    (None, "open"),
    ("json", "load"),
    ("json", "loads"),
    ("json", "dump"),
    ("np", "frombuffer"),
    ("os", "replace"),
}
# called on a path, whatever the name it is bound to
PATH_METHODS = {"read_text", "read_bytes", "write_text", "write_bytes"}


def file_calls(path: Path) -> list[str]:
    """``"line: call"`` for each call of ``path``'s source that touches a
    file, or imports such a function by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names
                      if (node.module, alias.name) in FILE_FUNCTIONS
                      or (node.module == "numpy" and alias.name == "frombuffer")]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and (None, func.id) in FILE_FUNCTIONS:
            found.append(f"{node.lineno}: {func.id}")
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if func.attr in PATH_METHODS or (owner, func.attr) in FILE_FUNCTIONS:
                found.append(f"{node.lineno}: {owner or '<path>'}.{func.attr}")
    return sorted(found, key=lambda call: int(call.split(":")[0]))


def test_no_module_but_formats_touches_a_file():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "formats.py" in modules
    offenders = {path.name: file_calls(path) for path in modules if path.name != "formats.py"}
    assert {name: calls for name, calls in offenders.items() if calls} == {}


def test_the_scan_finds_the_calls_of_formats():
    # without these the first test could pass by finding nothing anywhere
    calls = {call.split(": ", 1)[1] for call in file_calls(PACKAGE / "formats.py")}
    assert {"<path>.read_bytes", "<path>.write_text", "json.loads", "os.replace"} <= calls


def test_the_scan_names_each_kind_of_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import json, os\n"
        "from json import loads\n"
        "open('f')\n"
        "json.dump({}, fh)\n"
        "Path('f').read_text()\n"
        "self.out.write_bytes(b'')\n"
        "os.replace('a', 'b')\n"
        "json.dumps({})\n",
        encoding="utf-8",
    )
    assert file_calls(source) == [
        "2: from json import loads", "3: open", "4: json.dump",
        "5: <path>.read_text", "6: <path>.write_bytes", "7: os.replace",
    ]
