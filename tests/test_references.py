"""Every name the README and the package docstrings cite resolves in the
package, so a rename or a removal fails here instead of leaving stale text.

Checked: every backticked dotted name in README.md, every backticked bare
name in its Layout table (against the modules its row names), and every
`module.name` or `Class.attr` in a docstring under src/d4vgit.  File names
(`equations.py`) are not names, and backticked text that is not a name
(commands, formulas, JSON) is skipped.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import d4vgit

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {m.name: importlib.import_module("d4vgit." + m.name)
           for m in pkgutil.iter_modules(d4vgit.__path__)}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if inspect.isclass(obj) and obj.__module__.startswith("d4vgit.")}
FILE_SUFFIXES = {"py", "md", "json", "toml", "txt"}
# a name, optionally called: `pairing_terms(u, v)`, `Report.add`
BACKTICKED_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
DOTTED = re.compile(r"(?<![\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")


def _resolves(obj, attrs):
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _resolves_dotted(name):
    """Whether module.name or Class.attr (any depth) names something in the
    package."""
    head, *rest = name.split(".")
    scope = MODULES.get(head) or CLASSES.get(head)
    return scope is not None and _resolves(scope, rest)


def _is_file_name(name):
    return name.rsplit(".", 1)[-1] in FILE_SUFFIXES


def _readme_references():
    """(where, name, resolves) for the README's backticked names."""
    text = (ROOT / "README.md").read_text()
    layout = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    refs = []
    for span in re.findall(r"`([^`\n]+)`", text):
        m = BACKTICKED_NAME.fullmatch(span)
        if m and "." in m.group(1) and not _is_file_name(m.group(1)):
            refs.append(("README.md", m.group(1), _resolves_dotted(m.group(1))))
    for row in layout.splitlines():
        cells = row.split("|")[1:-1]
        owners = re.findall(r"`([^`]+)`", cells[0]) if cells else []
        where = "README.md Layout row %s" % ", ".join(owners)
        refs += [(where, name, name in MODULES) for name in owners]
        modules = [MODULES[name] for name in owners if name in MODULES]
        for span in re.findall(r"`([^`\n]+)`", "|".join(cells[1:])):
            m = BACKTICKED_NAME.fullmatch(span)
            if m and "." not in m.group(1):
                name = m.group(1)
                refs.append((where, name, any(hasattr(module, name) for module in modules)))
    return refs


def _docstring_references():
    """(where, name, resolves) for module.name and Class.attr in the
    docstrings of src/d4vgit."""
    refs = []
    for path in sorted((ROOT / "src" / "d4vgit").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            doc = ast.get_docstring(node) or ""
            where = "%s %s" % (path.name, getattr(node, "name", "module docstring"))
            for name in DOTTED.findall(doc):
                head = name.split(".", 1)[0]
                if (head in MODULES or head in CLASSES) and not _is_file_name(name):
                    refs.append((where, name, _resolves_dotted(name)))
    return refs


def test_every_cited_name_resolves_in_the_package():
    readme, docstrings = _readme_references(), _docstring_references()
    # the collectors see the citations they are meant to check
    assert any(where.startswith("README.md Layout") for where, _, _ in readme)
    assert docstrings
    stale = ["%s: %s" % (where, name) for where, name, ok in readme + docstrings if not ok]
    assert not stale, "stale references:\n" + "\n".join(stale)
