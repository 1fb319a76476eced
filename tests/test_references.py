"""CLI outputs pinned, byte for byte, to references that import no cobweb.

Each case is an argv and the text a stdlib reference gives for it; the
references come from ``references.py`` (which runs ``bench/checks.py``), and
each is computed with the int-to-str digit limit lifted.  The CLI runs under
the interpreter's limit, or under a lowered one where the case names it, and
must print the reference exactly, with nothing on stderr.
"""

import json
import math
import os
import subprocess
import sys
from io import StringIO
from itertools import zip_longest
from pathlib import Path

import pytest

from cobweb import cli
from references import (checks, cobweb_chains, gcd_morphic, grid_bell, grid_whitney, problems,
                        weak_grid_chains)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# The naturals 1..300 with F_240 times 7, written to a file for `--seq file:`.
WITNESS_VALUES = [7 * s if s == 240 else s for s in range(1, 301)]


def _lines(columns, rows, sep=" "):
    return "".join(sep.join(map(str, row)) + "\n" for row in [columns, *rows])


def _first_difference(got, expected):
    """(line number, got line, expected line) where the texts first differ, or
    None; a cheap report where a diff of megabytes of text is not."""
    lines = zip_longest(got.split("\n"), expected.split("\n"))
    return next(((i, a, b) for i, (a, b) in enumerate(lines, 1) if a != b), None)


def _gcd_text(values):
    holds, witness, g, f = gcd_morphic(values)
    if holds:
        return "holds\n1\n"
    n, m = witness
    return f"holds n m gcd_of_values f_at_gcd\n0 {n} {m} {g} {f}\n"


# id: (argv, reference text, the digit limit the CLI runs under or None)
CASES = {
    # A result past a lowered digit limit prints exactly, without run()
    # lifting the limit.
    "catalan-2000-under-640-digits": (
        ["catalan", "--n", "2000"], lambda: f"{checks.catalan(2000)}\n", 640),
    # A fibonomial of 690k bits, built from primitive parts; the reference
    # divides the falling product by F_1000!.
    "fibonomial-2000-1000": (
        ["fnomial", "--seq", "fibonacci", "--n", "2000", "--k", "1000"],
        lambda: f"{checks.fnomial('fibonacci', 2000, 1000)}\n", None),
    # Certified tables, written as their rows are computed: every entry a
    # falling product over F_k!, and B_n = sum over k of (n - k over k)_F.
    "fibonomial-table-150": (
        ["fnomial", "--seq", "fibonacci", "--table", "150"],
        lambda: _lines(("n", "k", "value"), ((n, k, checks.fnomial("fibonacci", n, k))
                                             for n in range(151) for k in range(n + 1))),
        None),
    "bell-fibonacci-table-300": (
        ["bell", "--family", "prefab", "--seq", "fibonacci", "--n", "300", "--table"],
        lambda: _lines(("n", "value"), ((n, checks.bell("fibonacci", n)) for n in range(301))),
        None),
    "naturals-table-400-csv": (
        ["fnomial", "--seq", "naturals", "--table", "400", "--format", "csv"],
        lambda: _lines(("n", "k", "value"), ((n, k, checks.fnomial("naturals", n, k))
                                             for n in range(401) for k in range(n + 1)), ","),
        None),
    # Decided by the primitive-parts certificate without the pair scan; the
    # reference is the theorem gcd(F_n, F_m) = F_gcd(n, m) for Fibonacci.
    "gcd-morphic-fibonacci-2000": (
        ["seq", "--seq", "fibonacci", "--gcd-morphic", "2000"], lambda: "holds\n1\n", None),
    # A witness deep in a file sequence; the reference scans every pair n < m.
    "gcd-morphic-file-witness": (
        ["seq", "--seq", "file:{witness}", "--gcd-morphic", "300"],
        lambda: _gcd_text(WITNESS_VALUES), None),
    # Möbius rows at benchmark size, streamed as they are computed; the
    # reference applies the Boolean-interval rule to every pair.
    "mobius-30-60": (
        ["mobius", "--k", "30", "--n", "60"],
        lambda: _lines(("x_l", "x_m", "y_l", "y_m", "mu"),
                       checks.grid_mobius_rows(30, 60, "strict")),
        None),
    # Brute counts at benchmark size; the CLI also checks each against its
    # closed form.
    "brute-cobweb-naturals-4-54": (
        ["chains", "--family", "cobweb", "--seq", "naturals", "--k", "4", "--n", "54",
         "--method", "brute"],
        lambda: f"{math.prod(checks.seq_values('naturals', 54)[3:])}\n", None),
    "brute-grid-strict-48-129": (
        ["chains", "--family", "grid", "--k", "48", "--n", "129", "--mode", "strict",
         "--method", "brute"],
        lambda: f"{checks.strict_chains(48, 129)}\n", None),
    # Closed counts and the grid's Whitney, Bell and problems tables, each
    # against a reference that counts, sums or walks the elements.
    "whitney-grid-second-12-30": (
        ["whitney", "--family", "grid", "--l", "12", "--m", "30"],
        lambda: _lines(("k", "value"), enumerate(grid_whitney(12, 30, "second"))), None),
    "whitney-grid-first-12-30": (
        ["whitney", "--family", "grid", "--l", "12", "--m", "30", "--kind", "first"],
        lambda: _lines(("k", "value"), enumerate(grid_whitney(12, 30, "first"))), None),
    "bell-grid-12-30": (
        ["bell", "--family", "grid", "--l", "12", "--m", "30"],
        lambda: f"{grid_bell(12, 30)}\n", None),
    "problems-6-14": (["problems", "--l", "6", "--m", "14"], lambda: _lines(*problems(6, 14)), None),
    "closed-grid-weak-40-90": (
        ["chains", "--family", "grid", "--k", "40", "--n", "90", "--mode", "weak"],
        lambda: f"{weak_grid_chains(40, 90)}\n", None),
    "closed-cobweb-fibonacci-3-18": (
        ["chains", "--family", "cobweb", "--seq", "fibonacci", "--k", "3", "--n", "18"],
        lambda: f"{cobweb_chains(checks.seq_values('fibonacci', 18)[2:])}\n", None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_cli_prints_the_reference(case, tmp_path):
    argv, reference, lowered = CASES[case]
    witness = tmp_path / "witness.txt"
    witness.write_text("".join(f"{v}\n" for v in WITNESS_VALUES))
    argv = [a.format(witness=witness) for a in argv]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = reference()
        sys.set_int_max_str_digits(lowered or limit)
        out, err = StringIO(), StringIO()
        code = cli.run(argv, out, err)
        assert sys.get_int_max_str_digits() == (lowered or limit)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and err.getvalue() == "", (code, err.getvalue())
    assert _first_difference(out.getvalue(), expected) is None


# One call of each public function in references.py, made in the probe below.
REFERENCE_CALLS = {
    "fibonacci": "list(fibonacci(5))",
    "failed": "failed(('NonIntegral', 6, 4))",
    "fnomial": "fnomial([2, 3], 2, 1)",
    "fnomial_triangle": "fnomial_triangle([1, 1, 2], 3)",
    "whitney_row": "whitney_row([1, 2, 3, 4], 4)",
    "bell": "bell([1, 2, 3, 4], 4)",
    "bell_table": "bell_table([1, 2, 3], 3)",
    "gcd_morphic": "gcd_morphic([1, 2, 4])",
    "primitive_parts": "primitive_parts([1, 2, 3, 4])",
    "exact_prefix": "exact_prefix(([1, 1, 2], None), 2)",
    "grid_whitney": "grid_whitney(1, 3, 'first')",
    "grid_bell": "grid_bell(1, 3)",
    "problems": "problems(2, 4)",
    "weak_grid_chains": "weak_grid_chains(2, 3)",
    "cobweb_chains": "cobweb_chains([1, 2, 3])",
    "lifted_str": "lifted_str(10**5000)",
    "record_text": "record_text(None, ('k', 'value'), [(0, 1)], 'json')",
    "dot_text": "dot_text(['a', 'b'], [('a', 'b')], {'a': 0, 'b': 1})",
}


def test_references_import_no_cobweb():
    # Each reference is called, so one that imports cobweb when run fails too.
    probe = (
        "import json, sys, types\n"
        "import references\n"
        "for call in json.loads(sys.argv[1]).values():\n"
        "    eval(call, vars(references))\n"
        "public = sorted(name for name, f in vars(references).items() if not name.startswith('_')\n"
        "                and isinstance(f, types.FunctionType) and f.__module__ == 'references')\n"
        "loaded = sorted(m for m in sys.modules if m == 'cobweb' or m.startswith('cobweb.'))\n"
        "print(json.dumps([references.checks.__file__, public, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(SRC)]))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(REFERENCE_CALLS)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    path, public, loaded = json.loads(done.stdout)
    assert Path(path) == TESTS.parent / "bench" / "checks.py"
    assert public == sorted(REFERENCE_CALLS)
    assert loaded == []
