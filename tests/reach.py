"""The reach gate: run the tier-1 tests and fail on every line of
`src/cobweb/` that no test runs.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

The tests run in this process, under a line recorder restricted to
`src/cobweb/`: `sys.monitoring` on Python 3.12 and later, where each line
returns DISABLE after its first hit, and `sys.settrace` (with
`threading.settrace` for worker threads) before that.  The tests that start
a Python child count too: the runner puts a directory holding one
`sitecustomize.py` first on every child's PYTHONPATH, and that hook starts
the same recorder only when COBWEB_REACH_OUT names a directory, where the
child writes its hits at exit.

A line is expected when the compiler gives it an instruction other than a
function's prelude.  The lines inside `if TYPE_CHECKING:` blocks and those
listed in EXEMPT, each with its reason, are not.  The gate prints each
`file:line` that no test reached and exits 1 if there is one, if an EXEMPT
entry matches no unreached line, or if the tests fail.  Stdlib only, apart
from pytest and hypothesis, which the tests need anyway; hypothesis runs
without deadlines here, since the recorder slows every line.
"""

from __future__ import annotations

import os
import sys

TESTS = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
PACKAGE = os.path.join(SRC, "cobweb") + os.sep
OUT = "COBWEB_REACH_OUT"

# (module, its stripped source line) -> why no tier-1 test runs that line.
# Empty: every line outside `if TYPE_CHECKING:` is reached.
EXEMPT: dict[tuple[str, str], str] = {}

# The child hook: load this file and start its recorder, under OUT only.
_SITE = f"""\
import os
if os.environ.get({OUT!r}):
    import importlib.util
    _spec = importlib.util.spec_from_file_location("_cobweb_reach", {os.path.realpath(__file__)!r})
    _reach = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_reach)
    _reach.child(os.environ[{OUT!r}])
"""


def record(hits: set[tuple[str, int]]) -> None:
    """Add (file, line) to `hits` for every line of the package run from now on."""
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        tool = monitoring.COVERAGE_ID

        def line(code, lineno):
            if code.co_filename.startswith(PACKAGE):
                hits.add((code.co_filename, lineno))
            return monitoring.DISABLE

        monitoring.use_tool_id(tool, "cobweb-reach")
        monitoring.register_callback(tool, monitoring.events.LINE, line)
        monitoring.set_events(tool, monitoring.events.LINE)
        return

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    import threading

    threading.settrace(call)
    sys.settrace(call)


def child(out: str) -> None:
    """Record this process's hits and write them to a file in `out` at exit."""
    import atexit

    hits: set[tuple[str, int]] = set()
    record(hits)

    def dump() -> None:
        with open(os.path.join(out, f"{os.getpid()}.hits"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\t{path}\n" for path, line in hits)

    atexit.register(dump)


# Instructions a function runs before its first line; a line with nothing else
# (a def line) raises no line event.
_PRELUDE = {"RESUME", "RETURN_GENERATOR", "POP_TOP", "COPY_FREE_VARS", "MAKE_CELL", "CACHE"}


def expected(path: str) -> dict[int, str]:
    """Line -> its stripped text, for every line of `path` a test should reach."""
    import ast
    import dis
    from types import CodeType

    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            skipped.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    lines = {}
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
        raw = code.co_code
        for start, end, line in code.co_lines():
            if line and line not in skipped and any(
                dis.opname[raw[i]] not in _PRELUDE for i in range(start, end, 2)
            ):
                lines[line] = text[line - 1].strip()
    return lines


def main(args: list[str]) -> int:
    import shutil
    import subprocess
    import tempfile

    out = tempfile.mkdtemp(prefix="cobweb-reach-")
    site = os.path.join(out, "site")
    os.mkdir(site)
    with open(os.path.join(site, "sitecustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(_SITE)

    # The tests give their children a PYTHONPATH of their own, so the hook
    # directory is put first on whatever PYTHONPATH a child gets.
    def with_hook(env: dict[str, str] | None) -> dict[str, str]:
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (site, env.get("PYTHONPATH"))))
        return env

    class Popen(subprocess.Popen):
        def __init__(self, *a, env=None, **kw):
            super().__init__(*a, env=with_hook(env), **kw)

    os.environ[OUT] = out
    os.environ.update(with_hook({"PYTHONPATH": SRC}))
    sys.path.insert(0, SRC)
    subprocess.Popen = Popen  # type: ignore[misc]
    import pytest

    class NoDeadline:
        """The recorder slows every line, so a hypothesis deadline would time it."""

        @staticmethod
        def pytest_configure(config: object) -> None:
            from hypothesis import settings

            settings.register_profile("reach", deadline=None)
            settings.load_profile("reach")

    hits: set[tuple[str, int]] = set()
    record(hits)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", os.path.dirname(TESTS),
                              *args, TESTS], plugins=[NoDeadline()])
    finally:
        sys.settrace(None)
        for name in os.listdir(out):
            if name.endswith(".hits"):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    for row in fh:
                        line, path = row.rstrip("\n").split("\t", 1)
                        hits.add((path, int(line)))
        shutil.rmtree(out)

    reached: dict[str, set[int]] = {}
    for path, line in hits:
        reached.setdefault(os.path.realpath(path), set()).add(line)
    unreached, matched = [], set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        seen = reached.get(os.path.realpath(path), set())
        for line, text in sorted(expected(path).items()):
            if line in seen:
                continue
            if (name, text) in EXEMPT:
                matched.add((name, text))
            else:
                unreached.append(f"src/cobweb/{name}:{line}: {text}")
    stale = [f"{name}: {text!r}" for name, text in EXEMPT if (name, text) not in matched]
    for line in unreached:
        print(f"unreached {line}")
    for entry in stale:
        print(f"exemption matches no unreached line: {entry}")
    if status:
        print(f"the tests failed under the recorder (pytest exit {int(status)})")
    print(f"reach: {len(unreached)} unreached lines, {len(matched)} exempt")
    return 1 if unreached or stale or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
