"""CLI output pinned across commits.

Each group of argvs has one sha256 over every (argv, exit code, stdout,
stderr) it produces, so a refactor that changes one byte of output fails
here.  argparse usage and help text are left out: they differ across Python
versions.  After a deliberate output change, `PYTHONPATH=src python
tests/test_cli_golden.py` prints the new digests.
"""

import hashlib
import tempfile
from io import StringIO
from pathlib import Path

import pytest

from cobweb import cli
from test_acceptance import CLI_MATRIX

BUILTINS = ("fibonacci", "naturals", "odd", "even1", "div31")
MODES = ("strict", "weak")
# Custom sequence files, written afresh for each digest: an argv names one as
# {mersenne}, and the digest hashes that placeholder, not the path.
FILES = {"mersenne": "".join(f"{2**s - 1}\n" for s in range(1, 301))}


def _grids(n_max):
    for mode in MODES:
        for n in range(n_max + 1):
            for k in range(n + (mode == "weak")):
                yield mode, k, n


GROUPS = {
    "matrix": CLI_MATRIX,
    "cobweb_chains": [
        ["chains", "--family", "cobweb", "--seq", s, "--k", str(k), "--n", str(n),
         "--method", "brute"]
        for s in BUILTINS for n in range(2, 7) for k in range(1, n)
    ],
    "cobweb_dot": [
        ["dot", "--family", "cobweb", "--seq", s, "--levels", str(levels)]
        for s in BUILTINS for levels in range(1, 7)
    ],
    "grid_chains": [
        ["chains", "--family", "grid", "--k", str(k), "--n", str(n), "--mode", mode,
         "--method", method]
        for mode, k, n in _grids(8) for method in ("brute", "closed")
    ],
    "grid_dot": [
        ["dot", "--family", "grid", "--k", str(k), "--n", str(n), "--mode", mode]
        for mode, k, n in _grids(8)
    ],
    # DOT of the sizes the benchmark's cli-poset workload renders: up to
    # 61,712 edges (naturals, 57 levels) and a fan-out of 233 (fibonacci).
    "dot_large": [
        ["dot", "--family", "cobweb", "--seq", "naturals", "--levels", "56"],
        ["dot", "--family", "cobweb", "--seq", "naturals", "--levels", "57"],
        ["dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "13"],
        ["dot", "--family", "grid", "--k", "28", "--n", "86", "--mode", "strict"],
        ["dot", "--family", "grid", "--k", "32", "--n", "94", "--mode", "weak"],
        ["dot", "--family", "grid", "--k", "28", "--n", "88", "--mode", "weak"],
    ],
    "mobius": [
        *(["mobius", "--k", str(k), "--n", str(n), "--mode", mode] for mode, k, n in _grids(8)),
        ["mobius", "--k", "2", "--n", "4", "--mode", "strict", "--format", "json"],
    ],
    # Möbius tables of the sizes the benchmark's cli-poset workload renders.
    "mobius_large": [
        ["mobius", "--k", "10", "--n", "29"],
        ["mobius", "--k", "10", "--n", "30", "--mode", "weak", "--format", "csv"],
        ["mobius", "--k", "10", "--n", "31", "--format", "json"],
    ],
    "domain_errors": [
        ["grid", "--k", "3", "--n", "2"],
        ["mobius", "--k", "3", "--n", "2"],
        ["chains", "--family", "grid", "--k", "2", "--n", "2", "--mode", "strict"],
        ["chains", "--family", "grid", "--k", "-1", "--n", "2", "--method", "brute"],
        ["chains", "--family", "cobweb", "--seq", "naturals", "--k", "3", "--n", "3",
         "--method", "brute"],
        ["chains", "--family", "cobweb", "--seq", "naturals", "--k", "0", "--n", "3"],
        ["dot", "--family", "cobweb", "--seq", "naturals", "--levels", "0"],
        ["dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "40"],
        ["dot", "--family", "grid", "--k", "4", "--n", "3", "--mode", "weak"],
    ],
    "usage_errors": [
        ["whitney", "--family", "grid", "--l", "2"],
        ["whitney", "--family", "prefab", "--seq", "fibonacci"],
        ["whitney", "--family", "prefab", "--kind", "first", "--seq", "odd", "--n", "4"],
        ["bell", "--family", "grid", "--m", "4"],
        ["bell", "--family", "prefab", "--n", "4"],
        ["chains", "--family", "cobweb", "--k", "1", "--n", "3"],
        ["dot", "--family", "cobweb", "--levels", "3"],
        ["dot", "--family", "grid", "--n", "3"],
        ["fnomial", "--seq", "naturals", "--n", "5"],
        ["fnomial", "--seq", "martian", "--n", "5", "--k", "2"],
    ],
    "json_variants": [
        [*argv, "--format", "json"]
        for argv in [
            ["seq", "--seq", "odd", "--count", "6"],
            ["seq", "--seq", "even1", "--gcd-morphic", "20"],
            ["fnomial", "--seq", "naturals", "--n", "6", "--k", "2"],
            ["fnomial", "--seq", "naturals", "--table", "4"],
            ["catalan", "--n", "9"],
            ["ballot", "--k", "2", "--n", "5"],
            ["grid", "--k", "1", "--n", "3"],
            ["grid", "--k", "1", "--n", "3", "--what", "ranks"],
            ["grid", "--k", "1", "--n", "3", "--mode", "weak", "--what", "elements"],
            ["whitney", "--family", "grid", "--l", "1", "--m", "3"],
            ["whitney", "--family", "prefab", "--seq", "naturals", "--n", "5"],
            ["bell", "--family", "grid", "--l", "2", "--m", "4"],
            ["bell", "--family", "prefab", "--seq", "naturals", "--n", "6"],
            ["bell", "--family", "prefab", "--seq", "odd", "--n", "5", "--table"],
            ["chains", "--family", "grid", "--k", "2", "--n", "5"],
            ["chains", "--family", "grid", "--k", "2", "--n", "5", "--method", "brute"],
            ["chains", "--family", "cobweb", "--seq", "naturals", "--k", "2", "--n", "4"],
            ["chains", "--family", "cobweb", "--seq", "naturals", "--k", "2", "--n", "4",
             "--method", "brute"],
            ["mobius", "--k", "1", "--n", "2", "--mode", "weak"],
            ["problems", "--l", "0", "--m", "1"],
            ["problems", "--l", "2", "--m", "4"],
        ]
    ],
    # Results past the interpreter's 4,300-digit int-to-str limit; the
    # prefab Whitney row straddles it, so only some of its entries are past.
    "past_digit_limit": [
        [*argv, "--format", fmt]
        for fmt in ("text", "csv", "json")
        for argv in [
            ["fnomial", "--seq", "fibonacci", "--n", "1000", "--k", "500"],
            ["whitney", "--family", "prefab", "--seq", "fibonacci", "--n", "420"],
            ["catalan", "--n", "9000"],
            ["bell", "--family", "prefab", "--seq", "fibonacci", "--n", "470"],
        ]
    ],
    # F-nomials of tens of thousands of bits on GCD-morphic sequences, and
    # naturals, whose result stays near 6,000 bits; the file case prints
    # text, whose output does not name the file.
    "fnomial_large": [
        ["fnomial", "--seq", "fibonacci", "--n", "869", "--k", "395", "--format", "csv"],
        ["fnomial", "--seq", "fibonacci", "--n", "500", "--k", "250"],
        ["fnomial", "--seq", "naturals", "--n", "6259", "--k", "3077", "--format", "json"],
        ["fnomial", "--seq", "file:{mersenne}", "--n", "287", "--k", "154"],
    ],
    # Spellings only argparse accepts or refuses: `=` values, repeats,
    # prefixes, signed or underscored ints, values starting with "-" and
    # empty values.
    "argparse_spellings": [
        ["catalan", "--n=5"],
        ["catalan", "--n", "5", "--n", "6"],
        ["fnomial", "--seq=fibonacci", "--n", "10", "--k", "4", "--form", "json"],
        ["ballot", "--k", "-1", "--n", "3"],
        ["bell", "--family", "prefab", "--seq", "naturals", "--n", "6", "--table", "--table"],
        ["mobius", "--k", "1", "--n", "3", "--mode=weak"],
        ["seq", "--seq", "fibonacci", "--count", "5", "--format", "csv", "--format", "text"],
        ["grid", "--k", "2", "--n", "5", "--wh", "ranks"],
        ["fnomial", "--seq", "naturals", "--n", "+7", "--k", "3"],
        ["fnomial", "--seq", "naturals", "--n", "1_0", "--k", "3"],
        ["whitney", "--family", "prefab", "--seq", "", "--n", "3"],
    ],
}

GOLDEN = {
    "argparse_spellings": "10f64b9a8d357ee6a566e7b02ca91b6de16db254eec963d6de39b246f539911d",
    "cobweb_chains": "d6d66fc60fbc130625ab4fb1dc0a4a53fc5f6467919adbdacce4b9c4b58250e4",
    "cobweb_dot": "188fc452ef70d441cbecb44463ee70530bca09fc11168cbb3dc5b8cca2f3d867",
    "dot_large": "3a599f3f33cf7b859ffd9d0a24b7de50d4dc1a80ae0dc48beb4e1649513a2ffa",
    "domain_errors": "05844ea69698d86561f69001d3750fb6fecbc08ce76ad12be9427d04883e831b",
    "fnomial_large": "40bc7c7d5dd3fb8646a88561ef0c9bee29a99845d63d79349dd03f769849ae17",
    "grid_chains": "d25d2955fd213bc62400836e2e7f902d709db311b4921d035ac8311b6e165c4b",
    "grid_dot": "226adf92b7b4a060958fff62474313ac1b21994f2bcf8d93a63fc7804b2dd02a",
    "json_variants": "ca2078c117f012adca1d6846e91af924a03b1a0d703bd4a97349dfe455238ad4",
    "matrix": "88e35576d833d277430d1093a2f0f6708e7f5cd0702720b338e563cfce829f08",
    "mobius": "a0e3e9d0f12a9c339bf2c4d3ec4490ebb7652dca2d05ab5d8dcc8da3fbb923b8",
    "mobius_large": "735a27c7fc63e908f54df0d47873a1a959bbe8b89105f8d1c9c9660bf6493c36",
    "past_digit_limit": "7773038e17d945911409a9468eb232a37f1cd454b55727d88a4466f92d8fed68",
    "usage_errors": "96f306e37f69df03d2eefcc8a041e393847ad58fd97485d50be14c0a6f305792",
}


def digest(argvs):
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in FILES.items():
            paths[name] = path = Path(tmp, f"{name}.txt")
            path.write_text(text)
        for argv in argvs:
            out, err = StringIO(), StringIO()
            code = cli.run([a.format_map(paths) for a in argv], out, err)
            h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cli_output_matches_golden(group):
    assert digest(GROUPS[group]) == GOLDEN[group]


if __name__ == "__main__":
    for group in sorted(GROUPS):
        print(f'    "{group}": "{digest(GROUPS[group])}",')
