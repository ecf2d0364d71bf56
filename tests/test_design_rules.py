"""Design rules of the package source, checked on its syntax tree.

No module may reach an underscore name of another module: neither
``from .x import _y`` nor ``x._y`` on an imported sibling module. What one
module needs from another is public there.

Every name the package exports is used: some other module of the package
refers to it, or README's "Library use" block imports it. Code that only
tests call lives with the tests.

Only ``ordertype.py`` spells a descriptor's or signature's text (``W``,
``W*``, ``Q[]``, ``FIN(k)``, ``ASC``, ``DESC``); other modules build
descriptors from its constants and ``fin``, and read them through
``block_signature`` and ``is_finite``.

The package raises built-in exceptions. It defines two classes of its own:
``ListingExhausted``, which callers catch by name, and ``ListingCutOff``, an
internal signal.
"""

import ast
import builtins
from pathlib import Path

import enumorder

PACKAGE = Path(enumorder.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_references(package: Path) -> list[str]:
    """``file:line: text`` for every cross-module underscore reference."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()  # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                in_package = node.level > 0 or (node.module or "").startswith("enumorder")
                if not in_package:
                    continue
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{path.name}:{node.lineno}: imports {alias.name}")
                    if node.module in (None, "enumorder"):
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("enumorder."):
                        modules.add(alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_another_modules_private_names():
    assert private_references(PACKAGE) == []


def test_rule_catches_both_forms(tmp_path):
    (tmp_path / "a.py").write_text("def _hidden():\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import _hidden\n\n\ndef f(self):\n"
        "    return a._hidden, self._state, a.__name__\n",
        encoding="utf-8",
    )
    assert private_references(tmp_path) == [
        "b.py:2: imports _hidden",
        "b.py:6: a._hidden",
    ]


SHAPE_TEXTS = {"W", "W*", "Q[]", "ASC", "DESC"}


def _docstrings(tree: ast.Module) -> set[int]:
    """``id`` of each docstring constant in ``tree``."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }


def shape_text_constants(package: Path) -> list[str]:
    """``file:line: text`` for every string constant outside ``ordertype.py``
    that spells a descriptor or signature shape: ``W``, ``W*``, ``Q[]``,
    ``ASC``, ``DESC``, or text starting ``FIN(``. Docstrings are exempt."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "ordertype.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and (node.value in SHAPE_TEXTS or node.value.startswith("FIN("))
                and id(node) not in docstrings
            ):
                found.append((path.name, node.lineno, node.value))
    return [f"{name}:{line}: {text!r}" for name, line, text in sorted(found)]


def test_only_ordertype_spells_the_shape_texts():
    assert shape_text_constants(PACKAGE) == []


def test_shape_text_rule_catches_constants_and_f_strings(tmp_path):
    (tmp_path / "ordertype.py").write_text('OMEGA = "W"\n', encoding="utf-8")
    (tmp_path / "b.py").write_text(
        '"""W"""\n\n\ndef f(d, k):\n    """FIN(k) is exempt here."""\n'
        '    return d == "W*" or d == f"FIN({k})" or ["DESC"] or "Q[] + W"\n',
        encoding="utf-8",
    )
    assert shape_text_constants(tmp_path) == ["b.py:6: 'DESC'", "b.py:6: 'FIN('", "b.py:6: 'W*'"]


def library_use_imports(readme: str) -> set[str]:
    """Names imported by the first Python block of README's "Library use"."""
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unused_exports(package: Path, readme: str) -> list[str]:
    """Names ``__init__.py`` imports that no other module of the package
    refers to and README's "Library use" block does not import."""
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    used = library_use_imports(readme)
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name in exported if name not in used)


def test_every_export_is_used_in_the_package_or_shown_in_readme():
    assert unused_exports(PACKAGE, README.read_text(encoding="utf-8")) == []


def exception_classes(package: Path) -> list[str]:
    """``file: name`` for every class the package defines that derives,
    directly or through another such class, from a built-in exception."""
    classes = []  # (file, name, base names)
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                # A base is a name, or an attribute such as ``module.Name``.
                bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases}
                classes.append((path.name, node.name, bases))
    exceptions = {
        name for name in dir(builtins)
        if isinstance(getattr(builtins, name), type)
        and issubclass(getattr(builtins, name), BaseException)
    }
    found = set()
    while True:
        new = {(f, name) for f, name, bases in classes if bases & exceptions} - found
        if not new:
            return sorted(f"{f}: {name}" for f, name in found)
        found |= new
        exceptions |= {name for _, name in new}


def test_the_package_defines_only_its_two_exception_classes():
    assert exception_classes(PACKAGE) == [
        "listings.py: ListingCutOff",
        "listings.py: ListingExhausted",
    ]


def test_exception_rule_catches_direct_and_derived_classes(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Bad(ValueError):\n    pass\n\n\nclass Plain:\n    pass\n", encoding="utf-8"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\nclass Worse(a.Bad):\n    pass\n\n\n"
        "class Base(Exception):\n    pass\n\n\nclass Data(a.Plain):\n    pass\n",
        encoding="utf-8",
    )
    assert exception_classes(tmp_path) == ["a.py: Bad", "b.py: Base", "b.py: Worse"]
