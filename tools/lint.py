#!/usr/bin/env python
"""Stdlib stand-in for pyflakes: ``python tools/lint.py [DIR ...]`` prints
``path:line: message`` per unused import, local assigned and never read, and
name bound nowhere in its file (scopes ignored); exit 1 if there was one.  A
name spelt in a string (``__all__``, quoted annotations) counts as used;
``# noqa`` on the line silences it.  ``tests/test_lint.py`` runs it."""
import ast
import builtins
import os
import re
import sys



def names(tree, *contexts):
    """Names in *contexts*, or declared global/nonlocal, under *tree*."""
    return {name for n in ast.walk(tree) for name in (
        [n.id] if isinstance(n, ast.Name) and isinstance(n.ctx, contexts)
        else n.names if isinstance(n, (ast.Global, ast.Nonlocal)) else ())}


def check(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree, found = ast.parse(source, path), []
    used = names(tree, ast.Load, ast.Del) | set(re.findall(r"\w+", " ".join(
        str(n.value) for n in ast.walk(tree) if isinstance(n, ast.Constant)
        and re.fullmatch(r"\S+|.*[|\[].*", str(n.value)))))  # not prose
    bound = names(tree, ast.Store, ast.Del) | {"__file__", *dir(builtins)}
    for node in ast.walk(tree):
        bound.add(node.arg if isinstance(node, ast.arg)   # else def, class,
                  else getattr(node, "name", None))       # except/match as
        for alias in node.names if isinstance(
                node, (ast.Import, ast.ImportFrom)) else ():
            bound.add(name := (alias.asname or alias.name).split(".")[0])
            if name not in used | {"*"} and \
                    getattr(node, "module", "") != "__future__":
                found.append((node.lineno, f"unused import {name}"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = names(node, ast.Load, ast.Del).union(*(   # + class attrs
                names(c, ast.Store) for c in ast.walk(node)
                if isinstance(c, ast.ClassDef)))
            for a in ast.walk(node):
                for t in a.targets if isinstance(a, ast.Assign) else ():
                    if isinstance(t, ast.Name) and t.id not in read:
                        found.append((a.lineno, f"local {t.id} never read"))
    found += [(n.lineno, f"undefined name {n.id}") for n in ast.walk(tree)
              if isinstance(n, ast.Name) and n.id not in bound
              and "*" not in bound]                  # star import: can't tell
    return [f"{path}:{line}: {message}" for line, message in sorted(set(found))
            if "# noqa" not in source.splitlines()[line - 1]]


if __name__ == "__main__":
    tops = sys.argv[1:] or ("src", "tests", "tools", "benchmarks")
    paths = sorted(os.path.join(base, name) for top in tops for base, _, files
                   in os.walk(top) for name in files if name.endswith(".py"))
    problems = [line for path in paths for line in check(path)]
    print("\n".join(problems) or f"{len(paths)} files clean")
    sys.exit(1 if problems else 0)
