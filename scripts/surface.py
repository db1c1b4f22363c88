#!/usr/bin/env python3
"""Measure the size of the lab's public surface.

Usage:
    python scripts/surface.py

Prints the line count of src/gfn_lab/*.py and the number of settable public
values: the parameters of public module-level functions and of the public
methods and ``__init__`` of public classes (``self`` and ``cls`` left out),
plus the fields of public dataclasses; then how many of those values have a
default; then the line count of each module, ``src lines <file>: N``, so a
change shows where its lines went.  Last come the code lines, the lines
that are not blank, not only a comment and not part of a docstring, in
total (``src code lines: N``) and per module (``src code lines <file>:
N``): deleting a comment or a docstring changes the raw count, not this
one.  After the counts come the settable public values themselves, one a
line and sorted, by module-qualified name (``value: basic_space.embed_C(w)``),
so the ``diff`` of two checkouts' outputs names each value a change
removed or added.  Last, sorted, each public function, class and method
of a public class in src/gfn_lab that no used code names (as a name, an
attribute or an import): ``unused: testfunc.moments_upto``.  Used code is
transitive: the module-level statements of src/ outside any definition
and all of scripts/ are used, and so is every definition whose name used
code names; a function that only an unused function calls is unused.
A name is public when it does not start with an underscore.  Only the
standard library's ``ast`` and ``tokenize`` read the sources; nothing is
imported.  A reader that closes the pipe early (``| head -1``) ends the
run quietly, with status 1.
"""

import ast
import io
import os
import sys
import tokenize
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


def definitions(tree: ast.Module) -> list:
    """(qualified name, name) of each public module-level function and
    class, and of each public method of a public class."""
    out = []
    for node in tree.body:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and _public(node.name)):
            continue
        out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and _public(item.name)]
    return out


def used_names(tree: ast.Module) -> set:
    """Every name ``tree`` reads or binds as a name, an attribute or an
    import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def references(tree: ast.Module) -> tuple:
    """(names the module-level statements outside any definition use,
    {defined name: names its definition uses}).  A class's own entry holds
    its bases, decorators, body statements and special methods, which run
    when the class is used; each other method is an entry of its own."""
    roots, defs = set(), {}

    def add(name, node):
        defs.setdefault(name, set()).update(used_names(node))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node.name, node)
        elif isinstance(node, ast.ClassDef):
            for part in [*node.bases, *node.keywords, *node.decorator_list,
                         *node.body]:
                own = isinstance(part, ast.FunctionDef) and \
                    not _is_dunder(part.name)
                add(part.name if own else node.name, part)
        else:
            roots |= used_names(node)
    return roots, defs


def live_names(src_trees: list, script_trees: list) -> set:
    """The names that used code names: the roots of ``references`` over
    ``src_trees`` and every name in ``script_trees``, closed under the
    definitions they name."""
    live, defs = set(), {}
    for tree in src_trees:
        roots, own = references(tree)
        live |= roots
        for name, names in own.items():
            defs.setdefault(name, set()).update(names)
    for tree in script_trees:
        live |= used_names(tree)
    todo = list(live)
    while todo:
        for name in defs.get(todo.pop(), ()):
            if name not in live:
                live.add(name)
                todo.append(name)
    return live


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold a token other than a
    comment or a docstring (the first statement of a module, class or
    function body, when it is a string)."""
    tree = ast.parse(text)
    docs = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and body and \
                isinstance(body[0], ast.Expr) and \
                isinstance(body[0].value, ast.Constant) and \
                isinstance(body[0].value.value, str):
            docs.add((body[0].lineno, body[0].col_offset))
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in skip or (tok.type == tokenize.STRING
                                and tok.start in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    lines, code = {}, {}
    values, defined, trees = [], [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        trees.append(tree)
        lines[path.name] = len(text.splitlines())
        code[path.name] = code_lines(text)
        values += [(f"{path.stem}.{name}", d)
                   for name, d in settable_values(tree)]
        defined += [(f"{path.stem}.{q}", name) for q, name in definitions(tree)]
    used = live_names(trees, [
        ast.parse(path.read_text()) for path in
        sorted(SRC.parent.parent.joinpath("scripts").glob("*.py"))])
    print(f"src lines: {sum(lines.values())}")
    print(f"settable public values: {len(values)}")
    print(f"with a default: {sum(d for _, d in values)}")
    for name, count in lines.items():
        print(f"src lines {name}: {count}")
    print(f"src code lines: {sum(code.values())}")
    for name, count in code.items():
        print(f"src code lines {name}: {count}")
    for name in sorted(name for name, _ in values):
        print(f"value: {name}")
    for name in sorted(q for q, name in defined if name not in used):
        print(f"unused: {name}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()  # here, not at exit, where it cannot be caught
    except BrokenPipeError:  # the reader is gone, as after ``| head -1``
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
