"""The package's surface: every export resolves, is listed once and is used
by the package itself, and files are opened in one place."""

import ast
import functools
import importlib
import inspect
import pathlib
import re

import pxthin
from conftest import public_parameters


def test_every_export_resolves_once():
    names = pxthin.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pxthin, name)]
    assert missing == []


def test_the_public_surface_does_not_grow():
    # lower both bounds when the surface shrinks
    assert len(pxthin.__all__) <= 48
    assert public_parameters() <= 136


@functools.cache
def _locals(def_):
    """The names a def binds in its own scope (an over-estimate: the
    bindings of nested defs and comprehensions count too)."""
    args = def_.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    for node in ast.walk(def_):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not def_:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Global):
            names -= set(node.names)
    return names


def _reads(node, defs=()):
    """Each Name and Attribute that node loads, with the defs that hold it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
            yield child, defs
        yield from _reads(child, defs + (child,) if isinstance(child, ast.FunctionDef)
                          else defs)


def test_every_exported_function_has_a_caller_in_the_package():
    # a use reads the function object itself: a name the module binds to it
    # and no enclosing def rebinds, or an attribute of a module that holds
    # it, outside the function's own def; the re-exports of __init__ are
    # imports and strings, so they do not count
    functions = {id(getattr(pxthin, name)): name for name in pxthin.__all__
                 if inspect.isfunction(getattr(pxthin, name))}
    used = set()
    for path in sorted(pathlib.Path(pxthin.__file__).parent.glob("*.py")):
        module = vars(importlib.import_module(f"pxthin.{path.stem}")
                      if path.stem != "__init__" else pxthin)
        for node, defs in _reads(ast.parse(path.read_text())):
            local = set().union(*map(_locals, defs))
            if isinstance(node, ast.Name):
                obj = None if node.id in local else module.get(node.id)
            elif isinstance(node.value, ast.Name) and node.value.id not in local:
                holder = module.get(node.value.id)
                obj = (getattr(holder, node.attr, None)
                       if inspect.ismodule(holder) else None)
            else:
                obj = None
            if id(obj) in functions and obj.__name__ not in {d.name for d in defs}:
                used.add(functions[id(obj)])
    assert sorted(set(functions.values()) - used) == []


def test_one_reader_and_one_writer_open_files():
    # mesh._text_lines and mesh._write_text serve every file pxthin touches
    source = pathlib.Path(pxthin.__file__).parent
    counts = {path.name: path.read_text().count("open(")
              for path in sorted(source.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {"mesh.py": 2}


def test_the_package_imports_no_scipy():
    # numpy kernels on the P1 pattern serve every solve; scipy is a test oracle
    source = pathlib.Path(pxthin.__file__).parent
    importing = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert [path.name for path in sorted(source.glob("*.py"))
            if importing.search(path.read_text())] == []


def test_every_public_method_is_read_in_the_package():
    # the method-level twin of the test above: each public method or property
    # of a class in the package has an attribute read of its name in the
    # package outside its own def. Names match by spelling alone, so a
    # method that shares its name with an attribute read elsewhere passes
    # unread: a `shape` property would, since arrays' .shape is read all over
    trees = [ast.parse(path.read_text())
             for path in sorted(pathlib.Path(pxthin.__file__).parent.glob("*.py"))]
    methods = {node: f"{cls.name}.{node.name}" for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    read = set()
    for tree in trees:
        for node, defs in _reads(tree):
            if isinstance(node, ast.Attribute):
                read |= {m for m in methods if m.name == node.attr and m not in defs}
    assert sorted(methods[m] for m in methods.keys() - read) == []
