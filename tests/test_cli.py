import json
import sys
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import BUILTIN_SEQUENCES, FIBONACCI, FinitePoset, FNomialTable, cli


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
        (("fnomial", "--seq", "naturals", "--table", "-1"), "table >= 0, got -1"),
        (("problems", "--l", "3", "--m", "1"), "InvalidBounds: strict grid needs 0 <= l < m"),
        (("problems", "--l", "-1", "--m", "2"), "got l=-1, m=2"),
        (("problems", "--l", "2", "--m", "2"), "got l=2, m=2"),
        (("whitney", "--family", "grid", "--l", "3", "--m", "1"), "got l=3, m=1"),
        (("bell", "--family", "grid", "--l", "3", "--m", "1"), "InvalidBounds: need 0 <= l < m"),
    ]:
        code, out, err = invoke(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and named in err, argv


def test_results_past_the_digit_limit_print_exactly():
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke("fnomial", "--seq", "fibonacci", "--n", "1000", "--k", "500")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    expected = FNomialTable(FIBONACCI).fnomial(1000, 500)
    sys.set_int_max_str_digits(0)
    try:
        assert int(out) == expected
    finally:
        sys.set_int_max_str_digits(limit)


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
    ]:
        code, out, err = invoke(*argv)
        if expected is None:
            assert (code, err) == (0, ""), argv
        else:
            assert (code, out, err) == (1, "", expected), argv


def test_usage_error_exit_code():
    code, _, err = invoke("grid", "--k", "1")
    assert code == 2
    code, _, err = invoke("nonsense")
    assert code == 2
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
