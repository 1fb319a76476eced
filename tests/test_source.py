"""Checks over the package's source files, not its behaviour."""

import ast
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "cobweb").rglob("*.py"))

# An import of threading, or a `with` statement that takes a lock.
_THREADING = re.compile(r"^\s*(import|from)\s.*\bthreading\b|^\s*with\b.*lock", re.IGNORECASE)


def test_no_threading_and_no_lock_outside_the_memo_class():
    found = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in MODULES if path != SRC / "cobweb" / "_memo.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _THREADING.search(line)
    ]
    assert found == [], "only cobweb._memo may import threading or take a lock"


# functools' unbounded caches, by name or as a decorator; a per-instance
# cached_property is not one of them.
_UNBOUNDED_CACHE = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|@cache\b|import\s.*\bcache\b")


def test_every_memo_is_a_bounded_memo():
    found = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in MODULES
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _UNBOUNDED_CACHE.search(line)
    ]
    assert found == [], "memoize through cobweb._memo.Memo, which is bounded"


# The prefix memo, its entries and its charge, named from outside cobweb._parts.
_PREFIX_MEMO = re.compile(r"_parts\.(MEMO|_Entry|_bits|_charge)\b")


def test_only_the_parts_module_fills_or_charges_the_prefix_memo():
    found = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in MODULES if path != SRC / "cobweb" / "_parts.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _PREFIX_MEMO.search(line)
    ]
    assert found == [], "keep a prefix result through _parts.entry(seq, n).kept(name, compute)"


# cobweb._parts, or a name of cobweb._digits other than `text`, the
# renderer's retry for an int past the digit limit.
_TABLE_RULE = re.compile(r"\b_parts\b|\b_digits\b(?!(\.| import )text\b)")


def test_the_cli_leaves_how_a_table_is_produced_to_the_fnomial_module():
    # Streamed, listed in full or computed in Decimal: `fnomial._cli_rows`
    # decides, so no CLI request compiles the rule as part of cli.py.
    found = [
        f"{lineno}: {line.strip()}"
        for lineno, line in enumerate((SRC / "cobweb" / "cli.py").read_text(
            encoding="utf-8").splitlines(), 1)
        if _TABLE_RULE.search(line)
    ]
    assert found == [], "produce CLI tables and prefab rows through fnomial._cli_rows"


# Calls that change the collector or skip interpreter shutdown, as attributes
# or imported names.
_EXIT_AND_COLLECTOR = {("gc", "freeze"), ("gc", "disable"), ("gc", "set_threshold"), ("os", "_exit")}


def _exit_and_collector_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in _EXIT_AND_COLLECTOR:
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if any((node.module, alias.name) in _EXIT_AND_COLLECTOR for alias in node.names):
                yield node.lineno


def test_only_the_console_script_freezes_the_collector():
    # The library never changes a caller's collector, and no path skips
    # interpreter shutdown: only cli.main, which ends its own process, freezes.
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path == SRC / "cobweb" / "cli.py":
            main = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "main")
            allowed = set(_exit_and_collector_uses(main))
        found += [f"{path.relative_to(SRC)}:{lineno}"
                  for lineno in _exit_and_collector_uses(tree) if lineno not in allowed]
    assert found == [], "only cobweb.cli.main may freeze the collector or call os._exit"


def test_every_module_compiles_with_warnings_as_errors():
    # Compiled from source, so a warning shows whatever the bytecode caches hold.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in MODULES:
            compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)


def test_every_module_imports_with_warnings_as_errors():
    code = "import cobweb.cli, cobweb._parts, cobweb._digits; from cobweb import *"
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def _bound_names(tree):
    """(line, name) for each name a module binds: by assignment, import,
    definition or parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id
        elif isinstance(node, ast.alias):
            yield node.lineno, (node.asname or node.name).split(".")[0]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg


def test_only_the_cli_writer_sizes_a_chunk():
    # `cli._render` joins every output into its writes; the producers of
    # pieces (Möbius blocks, DOT levels and sources) take no size.
    found = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in MODULES if path != SRC / "cobweb" / "cli.py"
        for lineno, name in _bound_names(ast.parse(path.read_text(encoding="utf-8")))
        if name.startswith("_BATCH")
    ]
    assert found == [], "size chunks in cobweb.cli._render only"
    producers = {"grid.py": ("_mobius_chunks", ["g", "frame"]),
                 "hasse.py": ("_dot_chunks", ["poset", "levels", "name"])}
    for module, (name, params) in producers.items():
        tree = ast.parse((SRC / "cobweb" / module).read_text(encoding="utf-8"))
        fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        assert [a.arg for a in args] == params, name
        assert fn.args.vararg is fn.args.kwarg is None, name
