#!/usr/bin/env python3
"""Measure the size of the lab's public surface.

Usage:
    python scripts/surface.py

Prints the line count of src/gfn_lab/*.py and the number of settable public
values: the parameters of public module-level functions and of the public
methods and ``__init__`` of public classes (``self`` and ``cls`` left out),
plus the fields of public dataclasses; then how many of those values have a
default; then the line count of each module, ``src lines <file>: N``, so a
change shows where its lines went.  A name is public when it does not start
with an underscore.  Only the standard library's ``ast`` reads the sources;
nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gfn_lab"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _parameters(fn: ast.FunctionDef) -> list:
    """(name, has default) of every parameter but ``self`` and ``cls``."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaults = [False] * (len(positional) - len(a.defaults)) \
        + [True] * len(a.defaults)
    out = list(zip((p.arg for p in positional), defaults))
    out += [(p.arg, d is not None) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
    out += [(p.arg, False) for p in (a.vararg, a.kwarg) if p is not None]
    return [(name, d) for name, d in out if name not in ("self", "cls")]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.Module) -> list:
    """(qualified name, has default) of each settable public value."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            out += [(f"{node.name}({p})", d) for p, d in _parameters(node)]
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        _public(item.name) or item.name == "__init__"):
                    out += [(f"{node.name}.{item.name}({p})", d)
                            for p, d in _parameters(item)]
                elif (isinstance(item, ast.AnnAssign) and _is_dataclass(node)
                      and isinstance(item.target, ast.Name)):
                    out.append((f"{node.name}.{item.target.id}",
                                item.value is not None))
    return out


def main() -> int:
    lines = {}
    values = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines[path.name] = len(text.splitlines())
        values += settable_values(ast.parse(text))
    print(f"src lines: {sum(lines.values())}")
    print(f"settable public values: {len(values)}")
    print(f"with a default: {sum(d for _, d in values)}")
    for name, count in lines.items():
        print(f"src lines {name}: {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
