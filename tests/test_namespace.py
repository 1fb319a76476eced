"""The lazy package namespace and the modules each CLI request imports.

The import checks run in fresh interpreters and compare module sets, not
timings, so they are deterministic.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cobweb

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The public names and their home modules, as the eager package exported them.
HOMES = {
    "errors": [
        "BudgetExceeded", "CobwebError", "IndexOutOfDomain", "InvalidBounds", "NonIntegral",
        "NotAPartialOrder", "NotGraded", "NoUniqueMinimum", "UndefinedRank",
    ],
    "fnomial": ["BallotCount", "FNomialTable", "ballot", "catalan", "dominated_strings_brute"],
    "grid": [
        "GridElement", "GridPoset", "bell_grid", "build_grid", "grid_chain_count", "grid_mobius",
        "grid_rank", "grid_whitney", "size_formula", "stirling1_grid", "stirling2_closed",
        "stirling2_grid",
    ],
    "hasse": [
        "CobwebPoset", "CobwebVertex", "build_cobweb", "layer_chain_count", "layer_subposet",
        "to_dot",
    ],
    "poset": [
        "FinitePoset", "MobiusMatrix", "RankLabels", "WhitneyVector", "maximal_chains", "mobius",
        "rank_function", "whitney",
    ],
    "prefab": [
        "BellSequence", "PrefabWhitneyRow", "bell_f", "bell_f_table", "whitney_prefab",
        "whitney_row",
    ],
    "sequences": [
        "BUILTIN_SEQUENCES", "DIV31", "EVEN1", "FIBONACCI", "NATURALS", "ODD", "FSequence",
        "GcdMorphicReport", "from_file", "from_values", "is_gcd_morphic",
    ],
}


def _new_modules(code: str) -> set[str]:
    """The modules that running `code` in a fresh interpreter adds to
    sys.modules; those loaded before it (say, by a site hook) do not count."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = f"import sys\n_before = set(sys.modules)\n{code}\n_new = set(sys.modules) - _before"
    probe += "\nimport json\nprint(json.dumps(sorted(_new)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _loaded_after(code: str) -> set[str]:
    """The cobweb modules loaded after running `code` in a fresh interpreter."""
    return {m for m in _new_modules(code) if m == "cobweb" or m.startswith("cobweb.")}


def _cli_code(argvs: list[list[str]]) -> str:
    """Code that runs each argv through the CLI and checks it exits 0."""
    code = "import io\nfrom cobweb import cli\n"
    return code + f"for argv in {argvs!r}:\n    assert cli.run(argv, io.StringIO()) == 0, argv\n"


def _imported(*args: str) -> set[str]:
    """The modules `python -X importtime <args>` reports it imported."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert done.returncode == 0, done.stderr
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def test_bare_cli_import_loads_no_library_module():
    assert _loaded_after("import cobweb.cli") == {"cobweb", "cobweb.cli", "cobweb.errors"}


def test_arithmetic_commands_load_no_poset_code():
    argvs = [
        ["seq", "--seq", "fibonacci", "--count", "5"],
        ["seq", "--seq", "odd", "--gcd-morphic", "12"],
        ["fnomial", "--seq", "naturals", "--n", "6", "--k", "2"],
        ["fnomial", "--seq", "fibonacci", "--table", "5", "--format", "json"],
        ["catalan", "--n", "10"],
        ["ballot", "--k", "2", "--n", "4", "--format", "csv"],
        ["whitney", "--family", "prefab", "--seq", "fibonacci", "--n", "9"],
        ["bell", "--family", "prefab", "--seq", "naturals", "--n", "8"],
        ["bell", "--family", "prefab", "--seq", "naturals", "--n", "8", "--table"],
    ]
    loaded = _loaded_after(_cli_code(argvs))
    assert not loaded & {"cobweb.poset", "cobweb.grid", "cobweb.hasse"}, loaded
    assert {"cobweb.sequences", "cobweb.fnomial", "cobweb.prefab"} <= loaded
    # `--gcd-morphic` reads the primitive parts, whose memo is a cobweb._memo.Memo.
    assert "cobweb._memo" not in loaded or "cobweb._parts" in loaded, loaded


def test_cobweb_dot_loads_no_poset_engine():
    argvs = [["dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "6"]]
    assert not _loaded_after(_cli_code(argvs)) & {"cobweb.poset", "cobweb._memo"}


def test_grid_commands_load_no_fnomial():
    argvs = [
        ["mobius", "--k", "2", "--n", "4"],
        ["whitney", "--family", "grid", "--l", "2", "--m", "4"],
        ["grid", "--k", "2", "--n", "4", "--what", "ranks"],
        ["problems", "--l", "2", "--m", "4"],
        ["dot", "--family", "grid", "--k", "2", "--n", "4"],
    ]
    loaded = _loaded_after(_cli_code(argvs))
    assert "cobweb.grid" in loaded
    refused = {"cobweb.fnomial", "cobweb.sequences", "cobweb.poset", "cobweb._memo"}
    assert not loaded & refused, loaded


def test_catalan_and_ballot_load_no_sequences():
    argvs = [["catalan", "--n", "10"], ["ballot", "--k", "2", "--n", "4"]]
    loaded = _loaded_after(_cli_code(argvs))
    assert "cobweb.fnomial" in loaded
    assert not loaded & {"cobweb.sequences", "cobweb.prefab"}, loaded


def test_primitive_parts_load_only_where_a_path_reads_them():
    session_set_up = (
        "import cobweb\n"
        "mersenne = cobweb.from_values('mersenne', [2**s - 1 for s in range(1, 501)])\n"
        "cobweb.FNomialTable(cobweb.FIBONACCI), cobweb.FNomialTable(mersenne)\n"
    )
    small = [
        ["catalan", "--n", "10"],
        ["fnomial", "--seq", "naturals", "--n", "6", "--k", "2"],
        ["fnomial", "--seq", "fibonacci", "--n", "40", "--k", "20"],
    ]
    for code in (session_set_up, _cli_code(small)):
        assert not _loaded_after(code) & {"cobweb._parts", "cobweb._memo"}
    for argv in (
        ["seq", "--seq", "fibonacci", "--gcd-morphic", "30"],
        # A table streams once the parts certify it.
        ["fnomial", "--seq", "naturals", "--table", "5"],
        ["bell", "--family", "prefab", "--seq", "fibonacci", "--n", "8", "--table"],
        # Prefab rows and Bell numbers are kept on the parts' memo entries.
        ["whitney", "--family", "prefab", "--seq", "fibonacci", "--n", "9"],
        ["bell", "--family", "prefab", "--seq", "naturals", "--n", "8"],
    ):
        loaded = _loaded_after(_cli_code([argv]))
        assert {"cobweb._parts", "cobweb._memo"} <= loaded and "cobweb.poset" not in loaded, argv


def test_start_up_paths_load_no_dataclasses_or_inspect():
    argvs = [
        ["seq", "--seq", "fibonacci", "--count", "5"],
        ["fnomial", "--seq", "naturals", "--n", "6", "--k", "2", "--format", "json"],
        ["catalan", "--n", "10"],
        ["ballot", "--k", "2", "--n", "4"],
        ["grid", "--k", "2", "--n", "4"],
        ["whitney", "--family", "grid", "--l", "2", "--m", "4"],
        ["whitney", "--family", "prefab", "--seq", "fibonacci", "--n", "9"],
        ["bell", "--family", "grid", "--l", "2", "--m", "4"],
        ["bell", "--family", "prefab", "--seq", "naturals", "--n", "8"],
        ["chains", "--family", "grid", "--k", "2", "--n", "4"],
        ["chains", "--family", "cobweb", "--seq", "naturals", "--k", "1", "--n", "4",
         "--method", "brute"],
        ["mobius", "--k", "2", "--n", "4"],
        ["dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "4"],
        ["dot", "--family", "grid", "--k", "2", "--n", "4"],
        ["problems", "--l", "2", "--m", "4"],
    ]
    session = (
        "import cobweb\n"
        "cobweb.FNomialTable(cobweb.from_values('v', [1, 3, 7])).fnomial(3, 1)\n"
        "cobweb.build_grid(2, 4).poset\n"
        "cobweb.build_cobweb(cobweb.FIBONACCI, 5).elements\n"
    )
    # A plain argv is parsed without argparse, so neither it nor the
    # gettext and locale it pulls in are loaded; and a small table is built
    # and written without `decimal`.
    heavy = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    decimals = {"decimal", "_decimal", "_pydecimal"}
    table = [["fnomial", "--seq", "fibonacci", "--table", "5"]]
    for code in (_cli_code(argvs + table), session):
        assert not _new_modules(code) & (heavy | decimals)
    # The module entry point, run by `python -m`, adds none of them either,
    # unless the bare interpreter already imports them.
    started = _imported("-m", "cobweb.cli", "catalan", "--n", "5") - _imported("-c", "pass")
    assert not started & (heavy | decimals)


def test_public_names_resolve_to_their_home_objects():
    expected = sorted(name for names in HOMES.values() for name in names)
    assert len(expected) == 57
    assert cobweb.__all__ == expected
    for module, names in HOMES.items():
        home = importlib.import_module(f"cobweb.{module}")
        for name in names:
            assert getattr(cobweb, name) is getattr(home, name), name


def test_star_import_dir_and_unknown_names():
    namespace: dict[str, object] = {}
    exec("from cobweb import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == cobweb.__all__
    assert set(cobweb.__all__) <= set(dir(cobweb))
    assert cobweb.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        cobweb.not_a_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from cobweb import not_a_name", {})
