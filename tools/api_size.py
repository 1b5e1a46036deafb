"""Print the size of the package: its line count and its option count.

Lines are the total of ``wc -l src/metaborrow/*.py``.  Options are
counted over each module's AST: the parameters of public module-level
functions and of the public methods of public classes (``self`` and
``cls`` not counted, ``__init__`` counted, ``*args`` and ``**kw`` one
each), plus the fields of public dataclasses.  A name is public when it
does not start with an underscore.

Run from the repository root: ``python tools/api_size.py``.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "metaborrow"


def _public(name):
    return not name.startswith("_")


def _n_params(fn):
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return sum(n not in ("self", "cls") for n in names)


def _is_dataclass(cls):
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def count_options(tree):
    """Options of one module's AST."""
    total = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            total += _n_params(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                        _public(item.name) or item.name == "__init__"):
                    total += _n_params(item)
                elif isinstance(item, ast.AnnAssign) and _is_dataclass(node):
                    total += 1
    return total


def main():
    files = sorted(SRC.glob("*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    options = sum(count_options(ast.parse(f.read_text(encoding="utf-8"))) for f in files)
    print(f"lines {lines}")
    print(f"options {options}")


if __name__ == "__main__":
    sys.exit(main())
