"""The mutation gate: every seeded mutant of `src/cobweb/` must fail the tests
named for it.

    PYTHONPATH=src python tests/mutants.py

Each mutant replaces the one occurrence of `old` in `path` with `new`.  For
each, the gate copies `src/` to a temporary directory, applies the mutant
there and runs `pytest -q -x -p no:cacheprovider` on the mutant's tests, with
PYTHONPATH at the copy and hypothesis deadlines off, so that a loaded host
cannot fail a test by its clock and fake a kill, and shrinking off, since a
failing example is not shown.  A mutant is killed when
pytest fails, survives when it passes, and times out after TIMEOUT seconds.
An `old` found nowhere is reported missing, and one found more than once
ambiguous.  The gate prints one line per mutant with its runtime, then the
total, and exits 1 unless every mutant is killed: a refactor that moves the
code fails loudly, and a survivor is fixed by a test, never by deleting the
mutant.  Stdlib only, apart from pytest and hypothesis, which the tests need
anyway.  It takes no options.

The seeds are mistakes once made, or nearly made: in the memos (the memo
class, the prefix memo with its readers, and the engine memo's key, charge
and closure), in the engine and the views' cover rules, and in the writers of
Möbius rows, DOT and output chunks.  Each is named for what it breaks.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

TESTS = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(TESTS)
# Seconds per mutant: about five times the longest pass of any seed's tests on
# an unmutated tree, 12 s on a 2-vCPU VM, which is what a survivor runs.  Kept
# well under the CI step's cap, so a stuck mutant gets its own verdict there.
TIMEOUT = 60

# The prefix memo's tests; the first, its model, kills most seeds within seconds.
PARTS = "tests/test_parts.py"
# The engine memo's tests, its model first.
ENGINES = "tests/test_engine_memo.py"
# The one writer's test of how raw pieces are cut into chunks.
RENDER = "tests/test_cli.py::test_render_joins_raw_pieces_between_pieces"


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    old: str  # occurs exactly once in path
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


MUTANTS = [
    # The memo class.  test_memo.py draws its examples afresh on each run, so
    # the derandomized model of the prefix memo goes first where it kills too.
    Mutant("get leaves the order unchanged", "src/cobweb/_memo.py",
           "if (kept := self.entries.pop(key, None)) is None:",
           "if (kept := self.entries.get(key)) is None:",
           (PARTS, "tests/test_memo.py", ENGINES)),
    Mutant("eviction drops the newest entry", "src/cobweb/_memo.py",
           "self.charged -= self.entries.pop(next(iter(self.entries)))[1]",
           "self.charged -= self.entries.popitem()[1][1]",
           (PARTS, "tests/test_memo.py", ENGINES)),
    Mutant("recharge measures before the lock", "src/cobweb/_memo.py",
           "        with self._lock:\n            kept = self.entries.get(key)\n"
           "            if kept is not None and kept[0] is value:\n"
           "                self._keep(key, value, measure())",
           "        cost = measure()\n        with self._lock:\n            kept = self.entries.get(key)\n"
           "            if kept is not None and kept[0] is value:\n"
           "                self._keep(key, value, cost)",
           ("tests/test_memo.py",)),
    Mutant("recharge of any value under the key", "src/cobweb/_memo.py",
           "if kept is not None and kept[0] is value:",
           "if kept is not None:",
           ("tests/test_memo.py",)),
    # The prefix memo, its one door and its readers.
    Mutant("b0 never kept", "src/cobweb/_parts.py",
           'return self.kept("b0", b0)',
           "return b0(self)",
           (PARTS,)),
    Mutant("every callable kept", "src/cobweb/_parts.py",
           "(type(rule) is _Terms or id(rule) in _PURE)",
           "callable(rule)",
           (PARTS,)),
    Mutant("key without n", "src/cobweb/_parts.py",
           "    key = (rule, n)\n    if (e := MEMO.get(key))",
           "    key = (rule,)\n    if (e := MEMO.get(key))",
           (PARTS,)),
    Mutant("results never kept", "src/cobweb/_parts.py",
           "self.results = {**self.results, name: kept}",
           "self.results = {**self.results}",
           (PARTS,)),
    Mutant("no bound check before storing", "src/cobweb/_parts.py",
           "if self.bits + kept[1] <= MEMO.limit:",
           "if True:",
           (PARTS,)),
    Mutant("every lookup sieves", "src/cobweb/_parts.py",
           "    e.key = key\n    return e",
           "    e.key = key\n    e.parts()\n    return e",
           (PARTS,)),
    Mutant("bell_f_table without the walk fallback", "src/cobweb/prefab.py",
           "        except IndexOutOfDomain:\n            pass",
           "        except IndexOutOfDomain:\n            raise",
           (PARTS, "tests/test_prefab.py")),
    Mutant("custom prefix one term long", "src/cobweb/sequences.py",
           "return list(self.vals[:count])",
           "return list(self.vals[:count + 1])",
           (PARTS, "tests/test_sequences.py")),
    Mutant("coefficient keyed by k", "src/cobweb/fnomial.py",
           "return parts.entry(self.seq, n).kept(j, compute)",
           "return parts.entry(self.seq, n).kept(k, compute)",
           (PARTS,)),
    Mutant("an int charged nothing", "src/cobweb/_parts.py",
           "return result.bit_length() + INT_BITS",
           "return 0",
           (PARTS,)),
    Mutant("custom hash over every term", "src/cobweb/sequences.py",
           "return hash((len(self.vals), self.vals[:4], self.vals[-4:]))",
           "return hash(self.vals)",
           (PARTS,)),
    Mutant("a None result read as missing", "src/cobweb/_parts.py",
           "if (kept := self.results.get(name)) is None:",
           "if (kept := self.results.get(name)) is None or kept[0] is None:",
           (PARTS,)),
    Mutant("fill measured at the call site", "src/cobweb/_parts.py",
           "MEMO.recharge(self.key, self, lambda: self.bits)",
           "MEMO.recharge(self.key, self, (lambda bits: lambda: bits)(self.bits))",
           (PARTS,)),
    Mutant("result table changed in place", "src/cobweb/_parts.py",
           "self.results = {**self.results, name: kept}",
           "self.results[name] = kept",
           (PARTS,)),
    Mutant("limit check dropped", "src/cobweb/_parts.py",
           "(type(rule) is _Terms or id(rule) in _PURE) and (seq.limit is None or n <= seq.limit)",
           "(type(rule) is _Terms or id(rule) in _PURE)",
           (PARTS,)),
    Mutant("kept ignores the result name", "src/cobweb/_parts.py",
           "if (kept := self.results.get(name)) is None:",
           "if (kept := next(iter(self.results.values()), None)) is None:",
           (PARTS,)),
    Mutant("from_values fast check without min(vals) >= 1", "src/cobweb/sequences.py",
           "if countOf(map(type, vals), int) != len(vals) or min(vals) < 1:",
           "if countOf(map(type, vals), int) != len(vals):",
           ("tests/test_sequences.py",)),
    Mutant("witness scanned over vals[:-1]", "src/cobweb/sequences.py",
           "_scan(e.vals, b0)",
           "_scan(e.vals[:-1], b0)",
           (PARTS, "tests/test_paths.py")),
    Mutant("custom hash by identity", "src/cobweb/sequences.py",
           "return hash((len(self.vals), self.vals[:4], self.vals[-4:]))",
           "return id(self)",
           (PARTS,)),
    Mutant("witness never kept", "src/cobweb/sequences.py",
           '(w := e.kept("witness", lambda e: _scan(e.vals, b0)))',
           "(w := _scan(e.vals, b0))",
           (PARTS,)),
    Mutant("falling product bypasses the memo", "src/cobweb/fnomial.py",
           'parts = sys.modules.get(f"{__package__}._parts")',
           "parts = None",
           (PARTS,)),
    Mutant("result stored past the limit", "src/cobweb/_parts.py",
           "if self.bits + kept[1] <= MEMO.limit:",
           "if self.bits <= MEMO.limit:",
           (PARTS,)),
    Mutant("entry key set on a miss only", "src/cobweb/_parts.py",
           "        MEMO.put(key, e, e.bits)\n    e.key = key",
           "        MEMO.put(key, e, e.bits)\n        e.key = key",
           (PARTS,)),
    Mutant("fill recharged under (rule,)", "src/cobweb/_parts.py",
           "MEMO.recharge(self.key, self, lambda: self.bits)",
           "MEMO.recharge(self.key and self.key[:1], self, lambda: self.bits)",
           (PARTS,)),
    # The engine memo's key and charge.
    Mutant("engine fill measured at the call site", "src/cobweb/poset.py",
           "        p._up = up\n        _ENGINES.recharge(p._key, p, lambda: _charge(p))",
           "        p._up = up\n        _ENGINES.recharge(p._key, p, (lambda size: lambda: size)(_charge(p)))",
           (ENGINES,)),
    Mutant("engine key never set", "src/cobweb/poset.py",
           "    p._key = key\n    return p",
           "    return p",
           (ENGINES,)),
    Mutant("engine key set on a miss only", "src/cobweb/poset.py",
           "        _ENGINES.put(key, p, _charge(p))\n    p._key = key",
           "        _ENGINES.put(key, p, _charge(p))\n        p._key = key",
           (ENGINES,)),
    Mutant("closure never recharged", "src/cobweb/poset.py",
           "        p._up = up\n        _ENGINES.recharge(p._key, p, lambda: _charge(p))",
           "        p._up = up",
           (ENGINES,)),
    Mutant("closure built at construction", "src/cobweb/poset.py",
           "        self._key: Hashable = None  # its `_ENGINES` key",
           "        self._key: Hashable = None  # its `_ENGINES` key\n        _upsets(self)",
           (ENGINES,)),
    Mutant("chains listed through the closure", "src/cobweb/poset.py",
           '    if mode == "enumerate":',
           '    if mode == "enumerate":\n        _upsets(p)',
           (ENGINES,)),
    Mutant("tops read through the closure", "src/cobweb/poset.py",
           '        """Maximal elements, in index order."""',
           '        """Maximal elements, in index order."""\n        _upsets(self)',
           (ENGINES,)),
    Mutant("engine skips its count budget", "src/cobweb/poset.py",
           "    check_count_budget(size)\n    p = _ENGINES.get(key)",
           "    p = _ENGINES.get(key)",
           ("tests/test_grid.py::test_engine_is_refused_past_the_count_budget",
            "tests/test_poset.py::test_count_budget")),
    # The engine, the views' cover rules, and the writers.
    Mutant("readers counted per set", "src/cobweb/poset.py",
           "readers[j] += r",
           "readers[j] += 1",
           ("tests/test_poset.py::test_a_shared_set_read_by_two_runs_keeps_its_up_sets_for_both",)),
    Mutant("count budget back in maximal_chains", "src/cobweb/poset.py",
           '    n = len(p)\n    if mode == "count":',
           '    n = len(p)\n    if mode == "count":\n        check_count_budget(n)',
           ("tests/test_poset.py::test_count_budget",)),
    Mutant("slice levels k - 1..n - 1", "src/cobweb/hasse.py",
           "levels = _levels(w, k)",
           "levels = _levels(w, k - 1)",
           (ENGINES, "tests/test_hasse.py::test_layer_subposet")),
    Mutant("last cobweb level covered", "src/cobweb/hasse.py",
           "zip(levels, [*levels[1:], ()])",
           "zip(levels, [*levels[1:], levels[0]])",
           ("tests/test_hasse.py::test_build_examples", ENGINES)),
    Mutant("Möbius zero run written as 1", "src/cobweb/grid.py",
           'rows.append(pre + f"0{end}{between}{pre}".join(ys[len(head) :]) + "0" + end)',
           'rows.append(pre + f"1{end}{between}{pre}".join(ys[len(head) :]) + "1" + end)',
           ("tests/test_grid.py::test_mobius_chunks_equal_render_over_the_plain_rows",
            "tests/test_cli.py::test_mobius_rows")),
    Mutant("Möbius block without its lead", "src/cobweb/grid.py",
           "yield lead + between.join(rows)",
           "yield between.join(rows)",
           ("tests/test_grid.py::test_mobius_chunks_equal_render_over_the_plain_rows",)),
    Mutant("label row rank off by gap", "src/cobweb/grid.py",
           "range(2 * l, l + g.n + 1 - gap)",
           "range(2 * l + gap, l + g.n + 1)",
           ("tests/test_cli.py::test_grid_outputs",)),
    Mutant("raw pieces cut past the character bound", "src/cobweb/cli.py",
           "if chars >= _BATCH_CHARS or len(chunk) == _BATCH_ROWS:",
           "if chars > _BATCH_CHARS or len(chunk) == _BATCH_ROWS:",
           (RENDER,)),
    Mutant("raw pieces without the piece cap", "src/cobweb/cli.py",
           "if chars >= _BATCH_CHARS or len(chunk) == _BATCH_ROWS:",
           "if chars >= _BATCH_CHARS:",
           (RENDER,)),
    Mutant("a trailing empty chunk", "src/cobweb/cli.py",
           '        if chunk:\n            yield "".join(chunk)',
           '        yield "".join(chunk)',
           (RENDER,)),
    Mutant("pending count kept at a cut", "src/cobweb/cli.py",
           '                yield "".join(chunk)\n                chunk, chars = [], 0',
           '                yield "".join(chunk)\n                chunk = []',
           (RENDER,)),
    Mutant("DOT node lines in one piece", "src/cobweb/hasse.py",
           'yield from map("  {};\\n".format, names)',
           'yield "".join(map("  {};\\n".format, names))',
           ("tests/test_hasse.py::test_dot_pieces_are_one_level_node_or_source_each",)),
    Mutant("DOT level line dropped", "src/cobweb/hasse.py",
           "for level in sorted(by_level):",
           "for level in sorted(by_level)[1:]:",
           ("tests/test_hasse.py::test_dot_cobweb_round_trip",)),
    Mutant("grid row one label short", "src/cobweb/grid.py",
           "w = g.n + 1 - _gap(g.mode)",
           "w = g.n - _gap(g.mode)",
           (ENGINES, "tests/test_grid.py::test_cover_blocks_are_the_present_unit_steps")),
    Mutant("Möbius (-1, 1) head without i > 0", "src/cobweb/grid.py",
           "(-1, 1) if d == 1 and i > 0 else ()",
           "(-1, 1) if d == 1 else ()",
           ("tests/test_grid.py::test_grid_mobius_matches_engine",)),
    Mutant("DOT source written with the previous covers", "src/cobweb/hasse.py",
           "    for q, ys in poset._blocks(names):\n        if ys:",
           "    last = ()\n    for q, ys in poset._blocks(names):\n"
           "        ys, last = last or ys, ys\n        if ys:",
           ("tests/test_hasse.py::test_dot_cobweb_round_trip",)),
]

# Loaded by every pytest run of the gate: hypothesis without a deadline, and
# without shrinking or an example database, since only the verdict is read;
# and the package must come from the mutated copy.
_PLUGIN = """\
import os

import pytest


def pytest_configure(config):
    from hypothesis import Phase, settings

    settings.register_profile("mutants", deadline=None, database=None,
                              phases=[Phase.explicit, Phase.generate])
    settings.load_profile("mutants")
    import cobweb

    if not os.path.realpath(cobweb.__file__).startswith(os.environ["COBWEB_MUTANT_SRC"]):
        raise pytest.UsageError(f"cobweb was imported from {cobweb.__file__}, not the mutant")
"""


def apply(m: Mutant, root: str) -> int:
    """How often m's `old` occurs in its file; when exactly once, src/ is
    copied under root with m applied."""
    with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
        text = fh.read()
    if (count := text.count(m.old)) != 1:
        return count
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    with open(os.path.join(root, m.path), "w", encoding="utf-8") as fh:
        fh.write(text.replace(m.old, m.new))
    with open(os.path.join(root, "_mutant_plugin.py"), "w", encoding="utf-8") as fh:
        fh.write(_PLUGIN)
    return count


def run(m: Mutant) -> str:
    """The verdict of m's tests against m: "killed", "survived", "timed out",
    or "missing" or "ambiguous" when its `old` occurs never or more than once."""
    with tempfile.TemporaryDirectory(prefix="cobweb-mutant-") as root:
        if (count := apply(m, root)) != 1:
            return "ambiguous" if count else "missing"
        src = os.path.realpath(os.path.join(root, "src"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, root)),
                   COBWEB_MUTANT_SRC=src, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-p", "_mutant_plugin", *m.tests]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out"
    if done.returncode in (0, 1):
        return "killed" if done.returncode else "survived"
    # Exit codes past 1 mean pytest could not run the tests at all.
    raise RuntimeError(f"pytest exited {done.returncode} on {m.name!r}:\n{done.stdout}{done.stderr}")


def main() -> int:
    failed = 0
    begin = time.perf_counter()
    for m in MUTANTS:
        start = time.perf_counter()
        verdict = run(m)
        print(f"{verdict:9}  {time.perf_counter() - start:5.1f} s  {m.name}  ({m.path})", flush=True)
        failed += verdict != "killed"
    total = time.perf_counter() - begin
    print(f"mutants: {len(MUTANTS) - failed} of {len(MUTANTS)} killed in {total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
