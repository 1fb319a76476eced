import contextlib
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cobweb.poset
from cobweb import BUILTIN_SEQUENCES, FIBONACCI, FinitePoset, FNomialTable, cli
from cobweb._memo import Memo
from references import lifted_str, record_text
from test_acceptance import CLI_MATRIX

SRC = str(Path(__file__).resolve().parents[1] / "src")


def invoke(*args):
    out, err = StringIO(), StringIO()
    code = cli.run(list(args), out, err)
    return code, out.getvalue(), err.getvalue()


def test_fnomial_single():
    code, out, err = invoke("fnomial", "--seq", "fibonacci", "--n", "4", "--k", "2")
    assert (code, out, err) == (0, "6\n", "")


def test_fnomial_table_csv():
    code, out, _ = invoke("fnomial", "--seq", "naturals", "--table", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert lines[1] == "0,0,1"
    assert "3,1,3" in lines


def test_fnomial_requires_n_and_k():
    code, _, err = invoke("fnomial", "--seq", "naturals", "--n", "4")
    assert code == 2
    assert "--n and --k" in err


def test_bell_grid_example():
    code, out, _ = invoke("bell", "--family", "grid", "--l", "2", "--m", "3")
    assert (code, out) == (0, "6\n")


def test_chains_weak_brute_example():
    code, out, _ = invoke(
        "chains", "--family", "grid", "--k", "1", "--n", "2", "--mode", "weak",
        "--method", "brute",
    )
    assert (code, out) == (0, "2\n")


def test_chains_json_carries_agreement():
    code, out, _ = invoke(
        "chains", "--family", "grid", "--k", "2", "--n", "4", "--mode", "strict",
        "--method", "brute", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "chains"
    assert payload["result"]["agreement"] is True
    assert payload["result"]["value"].isdigit()


def test_chains_cobweb_brute():
    code, out, _ = invoke(
        "chains", "--family", "cobweb", "--seq", "fibonacci", "--k", "2", "--n", "4",
        "--method", "brute",
    )
    assert (code, out) == (0, "6\n")


def test_discrepancy_trips_nonzero_exit(monkeypatch):
    from cobweb import grid as grid_mod

    real = grid_mod.grid_chain_count

    def lying(k, n, mode="strict", method="closed"):
        if method == "closed":
            return real(k, n, mode, method) + 1
        return real(k, n, mode, method)

    monkeypatch.setattr(grid_mod, "grid_chain_count", lying)
    code, out, err = invoke(
        "chains", "--family", "grid", "--k", "1", "--n", "2", "--mode", "weak",
        "--method", "brute",
    )
    assert code == 1
    assert out == ""
    assert "discrepancy" in err and "brute=2" in err and "closed=3" in err


def test_seq_values_text():
    code, out, _ = invoke("seq", "--seq", "even1", "--count", "5")
    assert code == 0
    assert out == "s value\n1 1\n2 2\n3 4\n4 6\n5 8\n"


def test_seq_gcd_morphic_json():
    code, out, _ = invoke(
        "seq", "--seq", "even1", "--gcd-morphic", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["columns"] == ["holds", "n", "m", "gcd_of_values", "f_at_gcd"]
    assert payload["result"]["rows"] == [["0", "2", "3", "2", "1"]]
    code, out, _ = invoke("seq", "--seq", "fibonacci", "--gcd-morphic", "30", "--format", "csv")
    assert out == "holds\n1\n"


def test_seq_from_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("2\n4\n8\n")
    code, out, _ = invoke("seq", "--seq", f"file:{path}", "--count", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["1 2", "2 4", "3 8"]
    code, _, err = invoke("seq", "--seq", f"file:{tmp_path/'nope.txt'}", "--count", "1")
    assert code == 1
    assert "FileNotFoundError" in err
    # A token past int()'s digit limit is quoted in part, and named as too long.
    path.write_text("7" * 5000 + "\n")
    code, out, err = invoke("seq", "--seq", f"file:{path}", "--count", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200, err
    assert f"{path}:1: 5000 digits" in err and "int digit limit" in err
    # A non-ASCII byte is refused with the line that holds it, not a decode error.
    path.write_bytes(b"2\n\xd9\xa3\n")
    code, out, err = invoke("seq", "--seq", f"file:{path}", "--count", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and f"{path}:2: expected an integer" in err, err
    # A file with no values is refused by its path.
    code, out, err = invoke("seq", "--seq", f"file:{os.devnull}", "--count", "1")
    assert (code, out) == (1, "")
    assert err == f"error: ValueError: {os.devnull}: custom sequence needs at least one value\n"


def test_grid_outputs():
    code, out, _ = invoke("grid", "--k", "1", "--n", "2")
    assert (code, out) == (0, "3\n")
    code, out, _ = invoke("grid", "--k", "1", "--n", "2", "--what", "elements", "--format", "csv")
    assert out == "l,m\n0,1\n0,2\n1,2\n"
    code, out, _ = invoke("grid", "--k", "1", "--n", "2", "--what", "ranks")
    assert out.splitlines()[1:] == ["0 1 0", "0 2 1", "1 2 2"]


def test_catalan_and_ballot():
    assert invoke("catalan", "--n", "4")[1] == "14\n"
    assert invoke("ballot", "--k", "1", "--n", "2")[1] == "2\n"


def test_whitney_grid_first_kind():
    code, out, _ = invoke("whitney", "--family", "grid", "--l", "1", "--m", "2", "--kind", "first")
    assert out == "k value\n0 1\n1 -1\n2 0\n"


def test_whitney_prefab():
    code, out, _ = invoke("whitney", "--family", "prefab", "--seq", "naturals", "--n", "5")
    assert out == "k value\n0 1\n1 4\n2 3\n"
    code, _, err = invoke(
        "whitney", "--family", "prefab", "--seq", "naturals", "--n", "5", "--kind", "first"
    )
    assert code == 2
    assert "--kind first" in err


def test_bell_grid_table_is_a_usage_error():
    code, out, err = invoke("bell", "--family", "grid", "--l", "1", "--m", "2", "--table")
    assert (code, out) == (2, "")
    assert "--table" in err


def test_bell_prefab_table():
    code, out, _ = invoke(
        "bell", "--family", "prefab", "--seq", "naturals", "--n", "8", "--table"
    )
    assert [line.split()[1] for line in out.splitlines()[1:]] == [
        "1", "1", "2", "3", "5", "8", "13", "21", "34",
    ]


def test_mobius_rows():
    code, out, _ = invoke("mobius", "--k", "1", "--n", "2", "--format", "csv")
    assert out.splitlines()[0] == "x_l,x_m,y_l,y_m,mu"
    assert "0,1,1,2,0" in out.splitlines()


def test_dot_to_stdout_and_file(tmp_path):
    code, out, _ = invoke("dot", "--family", "grid", "--k", "1", "--n", "2")
    assert code == 0
    assert out.startswith('digraph "grid_strict_1_2" {')
    target = tmp_path / "g.dot"
    code, out, _ = invoke(
        "dot", "--family", "cobweb", "--seq", "odd", "--levels", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith('digraph "cobweb_odd" {')
    # Both sinks get the same bytes, over more than one chunk of edges.
    for argv in [
        ("dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "10"),
        ("dot", "--family", "grid", "--k", "20", "--n", "60", "--mode", "weak"),
    ]:
        code, out, err = invoke(*argv)
        assert (code, err) == (0, ""), argv
        assert out.count("->") > 1024, argv
        assert invoke(*argv, "--out", str(target)) == (0, "", ""), argv
        assert target.read_bytes() == out.encode("ascii"), argv


def test_problems_table():
    code, out, _ = invoke("problems", "--l", "1", "--m", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,stirling1,stirling2,d1_dm,d2_dm,d1_dl,d2_dl"
    assert len(lines) == 1 + 4  # ranks 0..l+m-1


def test_domain_error_exit_code():
    code, _, err = invoke("grid", "--k", "3", "--n", "2")
    assert code == 1
    assert "InvalidBounds" in err
    code, _, err = invoke("ballot", "--k", "-1", "--n", "2")
    assert code == 1
    assert "ValueError" in err
    for argv, named in [
        (("whitney", "--family", "prefab", "--seq", "naturals", "--n", "-2"), "n >= 0, got -2"),
        (("bell", "--family", "prefab", "--seq", "naturals", "--n", "-2"), "n >= 0, got -2"),
        (("seq", "--seq", "naturals", "--count", "-3"), "count >= 0, got -3"),
        (("fnomial", "--seq", "naturals", "--table", "-1"), "need n_max >= 0, got -1"),
        (("problems", "--l", "3", "--m", "1"), "InvalidBounds: strict grid needs 0 <= l < m"),
        (("problems", "--l", "-1", "--m", "2"), "got l=-1, m=2"),
        (("problems", "--l", "2", "--m", "2"), "got l=2, m=2"),
        (("whitney", "--family", "grid", "--l", "3", "--m", "1"), "got l=3, m=1"),
        (("bell", "--family", "grid", "--l", "3", "--m", "1"), "strict grid needs 0 <= l < m"),
        (("mobius", "--k", "2", "--n", "2", "--mode", "strict"), "InvalidBounds: strict mode"),
        (("mobius", "--k", "-1", "--n", "3"), "InvalidBounds: need 0 <= k <= n"),
    ]:
        code, out, err = invoke(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and named in err, argv


def test_strict_grid_bounds_print_one_line():
    for l, m in [(3, 1), (3, 3), (-1, 2)]:
        errs = set()
        for argv in (("bell", "--family", "grid"), ("whitney", "--family", "grid"), ("problems",)):
            code, out, err = invoke(*argv, "--l", str(l), "--m", str(m))
            assert (code, out) == (1, ""), argv
            errs.add(err)
        want = f"error: InvalidBounds: strict grid needs 0 <= l < m, got l={l}, m={m}\n"
        assert errs == {want}, (l, m)


def test_results_past_the_digit_limit_print_exactly():
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke("fnomial", "--seq", "fibonacci", "--n", "1000", "--k", "500")
    expected = lifted_str(FNomialTable(FIBONACCI).fnomial(1000, 500))
    assert (code, out, err) == (0, f"{expected}\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_run_leaves_the_digit_limit_alone(monkeypatch):
    argv = ["fnomial", "--seq", "fibonacci", "--n", "1000", "--k", "500"]
    digits = lifted_str(FNomialTable(FIBONACCI).fnomial(1000, 500))
    params = '{"seq": "fibonacci", "n": 1000, "k": 500}'
    expected = {
        "text": f"{digits}\n",
        "csv": f"value\n{digits}\n",
        "json": f'{{"command": "fnomial", "params": {params}, "result": "{digits}"}}\n',
    }
    set_limit, limit = sys.set_int_max_str_digits, sys.get_int_max_str_digits()

    def refuse(_):
        raise AssertionError("run() changed the int-to-str digit limit")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    try:
        for lowered in (limit, 640):
            set_limit(lowered)
            for fmt, text in expected.items():
                assert invoke(*argv, "--format", fmt) == (0, text, ""), (lowered, fmt)
                assert sys.get_int_max_str_digits() == lowered
    finally:
        set_limit(limit)


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from((4299, 4300, 4301)),
    offset=st.one_of(st.sampled_from((-1, 0)), st.integers(-(10**6), 10**6)),
    negative=st.booleans(),
    small=st.integers(-(10**9), 10**9),
    fmt=st.sampled_from(("text", "csv", "json")),
)
def test_render_past_the_digit_limit_equals_lifted_str(k, offset, negative, small, fmt):
    v = 10**k + offset
    v = -v if negative else v
    # The last table's first past-limit value lies beyond its first batch.
    later = [(i, small) for i in range(cli._BATCH_ROWS + 3)] + [(0, v), (1, -v), (2, small)]
    records = [
        cli.OutputRecord("t", {}, value=v),
        cli.OutputRecord("t", {}, value=-v),
        cli.OutputRecord("t", {}, columns=("k", "value"), rows=[(0, small), (1, v), (2, -v)]),
        cli.OutputRecord("t", {}, columns=("k", "value"), rows=later),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        for rec in records:
            expected = record_text(rec.value, rec.columns, rec.rows, fmt)
            assert "".join(cli._render(rec, fmt)) == expected
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=80, deadline=None)
@given(
    count=st.sampled_from((0, 1, 255, 256, 257, 513)),
    width=st.integers(1, 5),
    pool=st.lists(
        st.one_of(st.sampled_from((0, -1)), st.integers(-(10**30), 10**30)),
        min_size=1,
        max_size=12,
    ),
    past=st.booleans(),
    fmt=st.sampled_from(("text", "csv", "json")),
)
def test_render_tables_of_any_shape_equal_lifted_str(count, width, pool, past, fmt):
    cells = itertools.cycle(pool)
    rows = [tuple(itertools.islice(cells, width)) for _ in range(count)]
    if past and rows:
        # In the last row, so past one batch when there are more rows than that.
        rows[-1] = (*rows[-1][:-1], -(10**4300) - 7)
    columns = tuple(f"c{j}" for j in range(width))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        expected = record_text(None, columns, rows, fmt)
        rec = cli.OutputRecord("t", {}, columns=columns, rows=iter(rows))
        assert "".join(cli._render(rec, fmt)) == expected
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    count=st.sampled_from((0, 1, 2, 255, 256, 257, 700)),
    pool=st.lists(st.one_of(st.just(""), st.text("ab\n", max_size=30)), min_size=1, max_size=6),
    large=st.lists(st.tuples(st.integers(0, 700), st.integers(-2, cli._BATCH_CHARS + 2)),
                   max_size=3),
)
def test_render_joins_raw_pieces_between_pieces(count, pool, large):
    # Short pieces (empty ones among them) cycled from a pool, with up to
    # three pieces of about _BATCH_CHARS characters or more put in.
    pieces = list(itertools.islice(itertools.cycle(pool), count))
    for at, extra in large:
        pieces.insert(at, "x" * (cli._BATCH_CHARS + extra))
    taken = 0

    def source():
        nonlocal taken
        for piece in pieces:
            taken += 1
            yield piece

    cuts = [0]
    chunks = []
    for chunk in cli._render(cli.OutputRecord("t", {}, raw=source())):
        chunks.append(chunk)
        cuts.append(taken)
    assert "".join(chunks) == "".join(pieces)
    for i, chunk in enumerate(chunks):
        # A chunk is the pieces read since the last cut, and no more.
        run = pieces[cuts[i] : cuts[i + 1]]
        assert chunk == "".join(run) and 0 < len(run) <= cli._BATCH_ROWS, i
        if i < len(chunks) - 1:  # cut as soon as it reaches either bound
            assert len(chunk) >= cli._BATCH_CHARS or len(run) == cli._BATCH_ROWS, i
            assert len(chunk) - len(run[-1]) < cli._BATCH_CHARS, i
    assert cuts[-1] == len(pieces)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_render_cuts_chunks_by_size(fmt):
    big = 7**4000  # 3,381 digits
    wide = cli.OutputRecord("t", {}, columns=("k", "a", "b", "c"),
                            rows=[(k, big, big + k, big - k) for k in range(60)])
    chunks = list(cli._render(wide, fmt))[1:-1]  # the head and the tail left out
    assert sum(chunk.count("\n") for chunk in chunks) == 60
    assert all(len(c) <= 2 * cli._BATCH_CHARS or c.count("\n") == 1 for c in chunks)
    assert len(chunks) < 60
    narrow = cli.OutputRecord("t", {}, columns=("k",), rows=[(k,) for k in range(2000)])
    counts = [chunk.count("\n") for chunk in list(cli._render(narrow, fmt))[1:-1]]
    ramp = [2**i for i in range(8)]  # 1 + 2 + ... + 128 = 255 rows
    rest = 2000 - sum(ramp)
    assert counts == ramp + [cli._BATCH_ROWS] * (rest // cli._BATCH_ROWS) + [rest % cli._BATCH_ROWS]


def test_multi_batch_table_past_the_digit_limit_prints_as_lifted():
    argv = ["fnomial", "--seq", "fibonacci", "--table", "142", "--format", "csv"]
    outs = {}
    for limit in ("640", "0"):  # 0 lifts the limit
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONINTMAXSTRDIGITS=limit)
        done = subprocess.run([sys.executable, "-m", "cobweb.cli", *argv], capture_output=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, b""), limit
        outs[limit] = done.stdout
    assert outs["640"] == outs["0"]
    assert outs["0"].count(b"\n") == 1 + 143 * 144 // 2  # header, then rows n <= 142
    assert max(map(len, outs["0"].splitlines())) > 640 + len("142,71,")


# Runs the CLI as `python -m cobweb.cli` would, with the C `_decimal` core
# blocked, so that `decimal` falls back to the pure-Python `_pydecimal`.
_NO_C_DECIMAL = (
    "import sys\n"
    "sys.modules['_decimal'] = None\n"
    "from cobweb.cli import main\n"
    "sys.argv[1:] = sys.argv[2:]\n"
    "main()\n"
)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_without_the_c_decimal_core_output_is_whole(fmt):
    # Past the digit limit, each record is written whole, as lifted str()
    # writes it, and the certified table that the C core builds in Decimal
    # takes the int rows and prints the same bytes.
    from cobweb import catalan

    digits = lifted_str(catalan(2000))
    expected = {
        "text": f"{digits}\n",
        "csv": f"value\n{digits}\n",
        "json": f'{{"command": "catalan", "params": {{"n": 2000}}, "result": "{digits}"}}\n',
    }[fmt]
    table = ["fnomial", "--seq", "fibonacci", "--table", "142", "--format", fmt]
    code, with_core, err = invoke(*table)
    assert (code, err) == (0, "")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONINTMAXSTRDIGITS="640")
    for argv, want in ((["catalan", "--n", "2000", "--format", fmt], expected), (table, with_core)):
        done = subprocess.run([sys.executable, "-c", _NO_C_DECIMAL, "-", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, want, ""), argv


@pytest.mark.parametrize("argv", [
    ("fnomial", "--seq", "odd", "--n", "3000", "--k", "1500"),
    ("bell", "--family", "prefab", "--seq", "odd", "--n", "3000"),
])
def test_non_integral_past_the_digit_limit_names_bit_lengths(argv):
    code, out, err = invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: NonIntegral: quotient of a ") and err.count("\n") == 1
    assert "-bit numerator by a " in err and "-bit denominator is not an integer" in err
    assert "Traceback" not in err


def test_small_non_integral_and_out_of_domain_messages(tmp_path):
    path = tmp_path / "lumpy.txt"
    path.write_text("2\n3\n4\n")
    tok = f"file:{path}"
    beyond = f"error: IndexOutOfDomain: sequence 'file:{path}' is defined up to index 3, got 4\n"
    for argv, expected in [
        (("fnomial", "--seq", tok, "--n", "2", "--k", "1"),
         "error: NonIntegral: quotient 6/4 is not an integer\n"),
        (("fnomial", "--seq", "odd", "--n", "4", "--k", "2"),
         "error: NonIntegral: quotient 105/9 is not an integer\n"),
        (("fnomial", "--seq", tok, "--n", "4", "--k", "0"), beyond),
        (("fnomial", "--seq", tok, "--n", "4", "--k", "4"), beyond),
        (("fnomial", "--seq", tok, "--table", "1"), None),
        # row 2 of the triangle fails before row 4 would leave the domain
        (("fnomial", "--seq", tok, "--table", "5"),
         "error: NonIntegral: quotient 6/4 is not an integer\n"),
        (("whitney", "--family", "prefab", "--seq", tok, "--n", "4"), beyond),
        (("bell", "--family", "prefab", "--seq", tok, "--n", "4"), beyond),
        (("bell", "--family", "prefab", "--seq", tok, "--n", "5", "--table"),
         "error: NonIntegral: quotient 6/4 is not an integer\n"),
        # Tables past an uncertified prefix are computed in full before any
        # output, so a non-integral entry leaves stdout empty.
        (("fnomial", "--seq", "odd", "--table", "6"),
         "error: NonIntegral: quotient 105/9 is not an integer\n"),
        (("bell", "--family", "prefab", "--seq", "odd", "--n", "8", "--table"),
         "error: NonIntegral: quotient 105/9 is not an integer\n"),
    ]:
        code, out, err = invoke(*argv)
        if expected is None:
            assert (code, err) == (0, ""), argv
        else:
            assert (code, out, err) == (1, "", expected), argv
    # even1 = 1, 2, 4, 6, 8, 10 has P_6 = F_6 / (P_1 P_2 P_3) = 10 / 8, yet
    # every (n over k)_F with n <= 6 is an integer.
    f = [1, 2, 4, 6, 8, 10]
    rows = [f"{n} {k} {math.prod(f[n - k:n]) // math.prod(f[:k])}" for n in range(7)
            for k in range(n + 1)]
    assert invoke("fnomial", "--seq", "even1", "--table", "6") == (
        0, "\n".join(["n k value", *rows]) + "\n", "")


def test_usage_error_exit_code():
    code, _, err = invoke("grid", "--k", "1")
    assert code == 2
    code, _, err = invoke("nonsense")
    assert code == 2
    code, out, err = invoke("whitney", "--family", "grid")
    assert (code, out) == (2, "")
    assert "whitney --family grid needs --l and --m" in err
    code, _, err = invoke("fnomial", "--seq", "martian", "--n", "1", "--k", "1")
    assert code == 2
    assert "--seq" in err


def test_identical_invocations_are_byte_identical():
    args = ("whitney", "--family", "grid", "--l", "2", "--m", "4", "--format", "json")
    assert invoke(*args) == invoke(*args)


def test_production_paths_build_no_engine_poset(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the generic poset engine was built")

    monkeypatch.setattr(FinitePoset, "__init__", refuse)
    # Start from an empty engine memo, so the brute path below must build.
    monkeypatch.setattr(cobweb.poset, "_ENGINES", Memo(cobweb.poset._MEMO_BYTES))
    for argv in [
        ("dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "8"),
        ("dot", "--family", "grid", "--k", "3", "--n", "6", "--mode", "weak"),
        ("grid", "--k", "3", "--n", "6", "--what", "size"),
        ("grid", "--k", "3", "--n", "6", "--what", "elements"),
        ("grid", "--k", "3", "--n", "6", "--mode", "weak", "--what", "ranks"),
        ("chains", "--family", "cobweb", "--seq", "naturals", "--k", "2", "--n", "6"),
    ]:
        code, out, err = invoke(*argv)
        assert (code, err) == (0, ""), argv
        assert out, argv
    with pytest.raises(AssertionError, match="engine was built"):
        invoke("chains", "--family", "cobweb", "--seq", "naturals", "--k", "2", "--n", "6",
               "--method", "brute")
    # The brute grid count refuses an over-budget grid from its closed-form size.
    code, out, err = invoke("chains", "--family", "grid", "--k", "100", "--n", "200",
                            "--method", "brute")
    assert (code, out) == (1, "")
    assert err == "error: BudgetExceeded: 15150 elements exceed the count budget 10000\n"


_INT = st.integers(-3, 12).map(str)
_VALUES = {  # every other option takes a small integer
    "--seq": st.sampled_from([*BUILTIN_SEQUENCES, "martian", "file:"]),
    "--mode": st.sampled_from(["strict", "weak", "loose"]),
    "--format": st.sampled_from(["text", "csv", "json", "xml"]),
    "--family": st.sampled_from(["grid", "prefab", "cobweb", "tree"]),
    "--kind": st.sampled_from(["first", "second", "third"]),
    "--what": st.sampled_from(["size", "ranks", "elements", "colour"]),
    "--method": st.sampled_from(["brute", "closed", "guess"]),
}
_OPTIONS = {  # command: (required options, other options)
    "seq": (("--seq",), ("--count", "--gcd-morphic", "--format")),
    "fnomial": (("--seq",), ("--n", "--k", "--table", "--format")),
    "catalan": (("--n",), ("--format",)),
    "ballot": (("--k", "--n"), ("--format",)),
    "grid": (("--k", "--n"), ("--mode", "--what", "--format")),
    "whitney": (("--family",), ("--kind", "--l", "--m", "--seq", "--n", "--format")),
    "bell": (("--family",), ("--l", "--m", "--seq", "--n", "--format")),
    "chains": (("--family", "--k", "--n"), ("--mode", "--seq", "--method", "--format")),
    "mobius": (("--k", "--n"), ("--mode", "--format")),
    "dot": (("--family",), ("--seq", "--levels", "--k", "--n", "--mode")),
    "problems": (("--l", "--m"), ("--format",)),
}


def test_help_lists_every_command_and_option():
    code, out, err = invoke("--help")
    assert (code, err) == (0, "")
    assert all(command in out for command in _OPTIONS)
    for command, (required, other) in _OPTIONS.items():
        code, out, err = invoke(command, "--help")
        assert (code, err) == (0, ""), command
        extra = {"dot": ("--out",), "bell": ("--table",)}.get(command, ())
        for option in (*required, *other, *extra):
            assert re.search(rf"{option}\b", out), (command, option)
    # The module entry point prints the help too.
    done = _console(["--help"], subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, "")
    assert all(command in done.stdout for command in _OPTIONS)


@st.composite
def _argvs(draw):
    """Mostly well-formed invocations; one in five drops the required options."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    required, other = _OPTIONS[command]
    options = list(required) if draw(st.integers(0, 4)) else []
    options += draw(st.lists(st.sampled_from(other), unique=True))
    argv = [command]
    for opt in options:
        argv += [opt, draw(_VALUES.get(opt, _INT))]
    if command == "bell" and draw(st.booleans()):
        argv.append("--table")
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_cli_fuzz_exits_cleanly(argv):
    code, out, err = invoke(*argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code:
        assert out == "", argv


# Tokens that argparse reads differently from a plain value, or refuses.
_ODD_VALUES = st.sampled_from(["", "-1", "-", "--", "-x", "--n", "+7", "1_0", " 5", "x", "5.0"])


def _plain_values(kw):
    if "choices" in kw:
        return st.sampled_from((*kw["choices"], "nope"))
    if kw.get("type") is int:
        return st.integers(-3, 30).map(str)
    return st.sampled_from([*BUILTIN_SEQUENCES, "martian", "file:x"])


@st.composite
def _spellings(draw):
    """A subcommand and its flags in any order, sometimes missing a required
    one; one value in four is odd, and in one argv in two a flag is repeated
    or respelled: `=` value, prefix, no value, or a help flag."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = dict(cli._COMMANDS[command][2])
    required = [flag for flag, kw in options.items() if kw.get("required")]
    flags = required if draw(st.integers(0, 4)) else []
    others = sorted(set(options) - set(flags))
    flags = draw(st.permutations(flags + draw(st.lists(st.sampled_from(others), unique=True))))
    pairs = []
    for flag in flags:
        kw = options[flag]
        if kw.get("action") == "store_true":
            pairs.append([flag])
        else:
            odd = draw(st.integers(0, 3)) == 0
            pairs.append([flag, draw(_ODD_VALUES if odd else _plain_values(kw))])
    if pairs and draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        flag, *value = pairs[i]
        pairs[i] = draw(st.sampled_from([
            [f"{flag}={(value or ['x'])[0]}"],
            [flag[: draw(st.integers(2, len(flag) - 1))], *value],
            [flag], ["-h"], [flag, *value, flag, *value],
        ]))
    return [command, *(token for pair in pairs for token in pair)]


@settings(max_examples=500, deadline=None)
@given(_spellings())
def test_plain_parse_agrees_with_argparse(argv):
    ns = cli._plain_parse(argv)
    if ns is not None:
        assert vars(ns) == vars(cli._build_parser().parse_args(argv)), argv


def test_plain_argvs_run_concurrently_without_redirecting(monkeypatch):
    def refuse(_):
        raise AssertionError("run() redirected a standard stream")

    monkeypatch.setattr(contextlib, "redirect_stdout", refuse)
    monkeypatch.setattr(contextlib, "redirect_stderr", refuse)
    expected = [invoke(*argv) for argv in CLI_MATRIX]
    with ThreadPoolExecutor(8) as pool:
        got = list(pool.map(lambda argv: invoke(*argv), CLI_MATRIX * 4))
    assert got == expected * 4


class _RefusingOut(StringIO):
    """A sink that takes `writes` writes, then raises `exc` on each one."""

    def __init__(self, exc, writes=0):
        super().__init__()
        self.exc, self.writes = exc, writes

    def write(self, text):
        if not self.writes:
            raise self.exc
        self.writes -= 1
        return super().write(text)


@pytest.mark.parametrize("exc, line", [
    (OSError(28, "No space left on device"), "OSError: [Errno 28] No space left on device"),
    (BrokenPipeError(32, "Broken pipe"), "BrokenPipeError: [Errno 32] Broken pipe"),
])
def test_failed_output_write_is_one_error_line(exc, line):
    err = StringIO()
    assert cli.run(["catalan", "--n", "5"], _RefusingOut(exc), err) == 1
    assert err.getvalue() == f"error: {line}\n"
    # A write that fails on a later chunk, after part of the output is out.
    for argv in [
        ["mobius", "--k", "10", "--n", "31", "--format", "json"],
        ["fnomial", "--seq", "fibonacci", "--table", "60", "--format", "csv"],
        ["dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "12"],  # 8 chunks
    ]:
        out, err = _RefusingOut(exc, writes=3), StringIO()
        assert cli.run(argv, out, err) == 1, argv
        assert out.getvalue() and err.getvalue() == f"error: {line}\n", argv


def _console(argv, stdout):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as under a shell
    return subprocess.run([sys.executable, "-m", "cobweb.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_console_write_to_a_full_device_exits_1():
    with open("/dev/full", "w") as full:
        done = _console(["catalan", "--n", "5"], full)
    full_line = "error: OSError: [Errno 28] No space left on device\n"
    assert (done.returncode, done.stderr) == (1, full_line)


def test_console_reader_closing_mid_stream_exits_1():
    argv = ["dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "13"]  # 1.4 MB
    env = dict(os.environ, PYTHONPATH=SRC)
    for unbuffered in (False, True):  # unbuffered, a single write could end part-way silently
        env.pop("PYTHONUNBUFFERED", None)
        env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
        with subprocess.Popen([sys.executable, "-m", "cobweb.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            head = proc.stdout.read(4096)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert head.startswith(b'digraph "cobweb_fibonacci" {') and len(head) == 4096
        assert (code, err) == (1, b"error: BrokenPipeError: [Errno 32] Broken pipe\n"), unbuffered


# Runs each request from a fresh interpreter that only spawns it and reads its
# peak RSS: Linux carries the spawning process's peak RSS into the child's
# ru_maxrss, so spawning from the test process would raise every reading.
_PEAKS = """
import os, sys
for argv in sys.argv[1:]:
    null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    cmd = [sys.executable, "-m", "cobweb.cli", *argv.split()]
    pid = os.posix_spawn(sys.executable, cmd, os.environ, file_actions=null)
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4") or not hasattr(os, "posix_spawn"),
                    reason="needs os.wait4 and os.posix_spawn")
def test_large_outputs_peak_near_a_scalar_request():
    argvs = [
        "catalan --n 5",
        "fnomial --seq fibonacci --table 142 --format json",  # writes 3.9 MB
        "dot --family cobweb --seq naturals --levels 57",  # writes 1.3 MB
        "mobius --k 30 --n 60",  # writes 7.9 MB
        # Rows from range arithmetic: no label tuple, no rank dict.
        "grid --k 1000 --n 2000 --what ranks",  # 1,501,500 rows
        "grid --k 1000 --n 2000 --what elements --mode weak",  # 1,502,501 rows
    ]
    done = subprocess.run([sys.executable, "-c", _PEAKS, *argvs], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    codes, peaks = zip(*(map(int, line.split()) for line in done.stdout.splitlines()))
    assert codes == (0,) * len(argvs)
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, else kB
    base, *large = (peak * unit / 2**20 for peak in peaks)  # MB
    assert all(peak < base + 5 for peak in large), (base, large)


@pytest.mark.skipif(not hasattr(os, "wait4") or not hasattr(os, "posix_spawn"),
                    reason="needs os.wait4 and os.posix_spawn")
def test_tables_and_rows_stream_near_a_scalar_request():
    # The certified table is written as its rows are computed, and the
    # prefab row in chunks of about _BATCH_CHARS characters.
    argvs = [
        "catalan --n 5",
        "fnomial --seq naturals --table 800",  # writes 40 MB
        "whitney --family prefab --seq fibonacci --n 700",  # 351 rows of up to 12.8k digits
    ]
    done = subprocess.run([sys.executable, "-c", _PEAKS, *argvs], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    codes, peaks = zip(*(map(int, line.split()) for line in done.stdout.splitlines()))
    assert codes == (0, 0, 0)
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, else kB
    base, *large = (peak * unit / 2**20 for peak in peaks)  # MB
    assert all(peak < base + 2 for peak in large), (base, large)


@pytest.mark.parametrize("argv, large", [
    (["fnomial", "--seq", "fibonacci", "--table"], 140),
    (["whitney", "--family", "prefab", "--seq", "fibonacci", "--n"], 400),
    (["bell", "--family", "prefab", "--seq", "fibonacci", "--table", "--n"], 140),
])
def test_a_table_request_fetches_its_prefix_once_and_sieves_it_once(argv, large, monkeypatch):
    from cobweb import _digits, _parts
    from cobweb.sequences import FSequence

    fetched, sieved, converted = [], [], []
    values, sieve, to_decimal = FSequence.values, _parts.sieve, _digits.to_decimal
    # Fetches of Fibonacci's own prefix; a Decimal table reads the Decimal
    # copy of it through a sequence of its own.
    monkeypatch.setattr(FSequence, "values", lambda self, count: (
        self.rule is FIBONACCI.rule and fetched.append(count)) or values(self, count))
    monkeypatch.setattr(_parts, "sieve", lambda vals: sieved.append(len(vals)) or sieve(vals))
    monkeypatch.setattr(_digits, "to_decimal", lambda v: converted.append(v) or to_decimal(v))
    # The largest entry of the F-nomial table and the Whitney row is estimated
    # below _DECIMAL_BITS at 60 and above it at `large`; a Bell table is never
    # computed in Decimal.
    for n, decimal in ((60, False), (large, argv[0] != "bell")):
        monkeypatch.setattr(_parts, "MEMO", Memo(_parts.MEMO_BITS))
        for made in (fetched, sieved, converted):
            made.clear()
        code, out, _ = invoke(*argv, str(n))
        assert code == 0 and out.count("\n") > n // 2
        assert (fetched, sieved, len(converted)) == ([n], [n], n if decimal else 0), n


@pytest.mark.skipif(not hasattr(os, "wait4") or not hasattr(os, "posix_spawn"),
                    reason="needs os.wait4 and os.posix_spawn")
def test_brute_counts_peak_near_a_scalar_request():
    # The engine keeps no closure for a chain count: the largest naturals slice
    # and the largest weak grid within the count budget (9,870 and 9,656 elements).
    argvs = [
        "catalan --n 5",
        "chains --family cobweb --seq naturals --k 1 --n 140 --method brute",
        "chains --family grid --k 70 --n 170 --mode weak --method brute",
    ]
    done = subprocess.run([sys.executable, "-c", _PEAKS, *argvs], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    codes, peaks = zip(*(map(int, line.split()) for line in done.stdout.splitlines()))
    assert codes == (0, 0, 0)
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, else kB
    base, *brute = (peak * unit / 2**20 for peak in peaks)  # MB
    assert all(peak < base + 5 for peak in brute), (base, brute)


def test_console_write_to_a_closed_pipe_exits_1():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        rows = _console(["mobius", "--k", "10", "--n", "31"], write_end)
        help_text = _console(["--help"], write_end)
    finally:
        os.close(write_end)
    pipe_line = "error: BrokenPipeError: [Errno 32] Broken pipe\n"
    assert (rows.returncode, rows.stderr) == (1, pipe_line)
    assert (help_text.returncode, help_text.stderr) == (1, "")


@pytest.mark.parametrize("argv", [
    ["catalan", "--n", "5"],
    ["fnomial", "--seq", "fibonacci", "--table", "60", "--format", "json"],  # streamed
    ["dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "5"],
    ["fnomial", "--seq", "odd", "--table", "4"],  # exit 1, NonIntegral
    ["whitney", "--family", "prefab", "--kind", "first", "--seq", "naturals", "--n", "3"],  # exit 2
    ["--help"],
])
def test_the_console_script_prints_and_exits_as_run_does(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    want = invoke(*argv)
    done = _console(argv, subprocess.PIPE)
    assert (done.returncode, done.stdout, done.stderr) == want
    if argv[0] == "dot":
        assert want[0] == 0 and want[1].startswith('digraph "cobweb_fibonacci" {')
        target = tmp_path / "fib.dot"
        done = _console([*argv, "--out", str(target)], subprocess.PIPE)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert target.read_bytes() == want[1].encode("ascii")


# One argv per subcommand.
_EACH_COMMAND = [
    ["seq", "--seq", "fibonacci", "--count", "10"],
    ["fnomial", "--seq", "fibonacci", "--table", "12"],
    ["catalan", "--n", "5"],
    ["ballot", "--k", "2", "--n", "4"],
    ["grid", "--k", "2", "--n", "3", "--what", "ranks"],
    ["whitney", "--family", "prefab", "--seq", "fibonacci", "--n", "9"],
    ["bell", "--family", "prefab", "--seq", "naturals", "--n", "12", "--table"],
    ["chains", "--family", "cobweb", "--seq", "fibonacci", "--k", "2", "--n", "4", "--method", "brute"],
    ["mobius", "--k", "1", "--n", "2"],
    ["dot", "--family", "grid", "--k", "2", "--n", "3", "--mode", "weak"],
    ["problems", "--l", "2", "--m", "4"],
]


def test_run_leaves_the_collector_as_it_found_it():
    assert [argv[0] for argv in _EACH_COMMAND] == list(cli._COMMANDS)
    for argv in _EACH_COMMAND:
        before = gc.get_freeze_count(), gc.isenabled()
        code, out, _ = invoke(*argv)
        assert code == 0 and out, argv
        assert (gc.get_freeze_count(), gc.isenabled()) == before, argv


# A child that registers an exit hook and then runs the console script.
_MAIN_WITH_HOOK = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
import cobweb.cli
cobweb.cli.main()
"""


@pytest.mark.parametrize("argv", [
    ["catalan", "--n", "5"],
    ["fnomial", "--seq", "odd", "--table", "4"],
    ["catalan", "--n", "x"],
])
def test_main_freezes_the_collector_and_exit_hooks_still_run(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal's width
    code, out, err = invoke(*argv)
    done = subprocess.run([sys.executable, "-c", _MAIN_WITH_HOOK, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert (done.returncode, done.stdout) == (code, out)
    assert done.stderr == err + "frozen at exit: True\n"
