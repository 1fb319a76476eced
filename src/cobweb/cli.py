"""Command-line front end: tables, cross-checks, and DOT exports.

Exit codes: 0 success, 1 domain errors (the message names the error case),
2 usage errors.  Output formats: text (default), csv (header row plus
integer-only data rows), json (one object with command/params/result; big
integers are serialized as decimal strings).

A subcommand is declared in one place, its `_COMMANDS` entry: help line,
handler and options.  A plain argv (the subcommand, then each of its options
once, spelled in full, with a value not starting with "-") is parsed straight
from that table; any other argv, help included, goes to argparse, built
from it too.  Each handler imports the library modules it runs, so a
request pays only for its own subcommand.

A handler computes its whole result, except `mobius`, which checks its bounds
and then computes its rows as they are written, and `fnomial --table` and
`bell --table`, which do so when the primitive parts prove no entry
non-integral.  Output is written in chunks, never joined into one string: rows
in chunks of about 64k characters and at most 256 rows, each row formatted by
one %-template, and DOT edge lines about 1,024 at a time, each source's lines
in one join.
"""

from __future__ import annotations

import os
import sys
from functools import partial
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import CobwebError

if TYPE_CHECKING:
    import argparse

    from .sequences import FSequence

    # A format's layout: head, rows, row frame (cell separator, text before
    # and after each row, text between rows) and tail.
    _Layout = tuple[str, Iterable[tuple[int, ...]], tuple[str, str, str, str], str]

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Discrepancy(Exception):
    """A brute-force count that disagrees with its closed form."""


class OutputRecord(NamedTuple):
    """One command's deterministic output payload."""

    command: str
    params: dict[str, object]
    columns: tuple[str, ...] | None = None
    rows: Iterable[tuple[int, ...]] | None = None  # read once, as the output is written
    value: int | None = None
    agreement: bool | None = None
    raw: Iterable[str] | None = None  # preformatted chunks (DOT) that bypass --format


def _seq_from_token(token: str) -> FSequence:
    from .sequences import BUILTIN_SEQUENCES, from_file

    if token in BUILTIN_SEQUENCES:
        return BUILTIN_SEQUENCES[token]
    if token.startswith("file:"):
        return from_file(token[len("file:") :])
    names = "|".join(BUILTIN_SEQUENCES)
    raise _UsageError(f"--seq must be one of {names} or file:<path>, got {token!r}")


def _need(ns: argparse.Namespace, what: str, *names: str) -> None:
    """Raise the usage error "<what> needs --a and --b" unless each option is given."""
    if any(getattr(ns, name) is None for name in names):
        raise _UsageError(f"{what} needs " + " and ".join(f"--{name}" for name in names))


# -- handlers ---------------------------------------------------------------


def _cmd_seq(ns: argparse.Namespace) -> OutputRecord:
    from .sequences import is_gcd_morphic

    seq = _seq_from_token(ns.seq)
    if ns.gcd_morphic is not None:
        report = is_gcd_morphic(seq, ns.gcd_morphic)
        params = {"seq": ns.seq, "gcd_morphic": ns.gcd_morphic}
        if report.holds:
            return OutputRecord("seq", params, columns=("holds",), rows=[(1,)])
        n, m = report.witness
        return OutputRecord(
            "seq",
            params,
            columns=("holds", "n", "m", "gcd_of_values", "f_at_gcd"),
            rows=[(0, n, m, report.gcd_of_values, report.f_at_gcd)],
        )
    rows = enumerate(seq.values(ns.count), 1)
    return OutputRecord("seq", {"seq": ns.seq, "count": ns.count}, columns=("s", "value"), rows=rows)


def _cmd_fnomial(ns: argparse.Namespace) -> OutputRecord:
    from .fnomial import FNomialTable

    seq = _seq_from_token(ns.seq)
    table = FNomialTable(seq)
    if ns.table is not None:
        from ._parts import integral_up_to

        triangle = table.rows(ns.table)
        if not integral_up_to(seq, ns.table):
            triangle = list(triangle)  # in full, so a NonIntegral is raised here
        rows = ((n, k, v) for n, row in enumerate(triangle) for k, v in enumerate(row))
        return OutputRecord(
            "fnomial", {"seq": ns.seq, "table": ns.table}, columns=("n", "k", "value"), rows=rows
        )
    if ns.n is None or ns.k is None:
        raise _UsageError("fnomial needs --n and --k (or --table)")
    return OutputRecord(
        "fnomial", {"seq": ns.seq, "n": ns.n, "k": ns.k}, value=table.fnomial(ns.n, ns.k)
    )


def _cmd_catalan(ns: argparse.Namespace) -> OutputRecord:
    from .fnomial import catalan

    return OutputRecord("catalan", {"n": ns.n}, value=catalan(ns.n))


def _cmd_ballot(ns: argparse.Namespace) -> OutputRecord:
    from .fnomial import ballot

    return OutputRecord("ballot", {"k": ns.k, "n": ns.n}, value=ballot(ns.k, ns.n).count)


def _cmd_grid(ns: argparse.Namespace) -> OutputRecord:
    from .grid import build_grid

    params = {"k": ns.k, "n": ns.n, "mode": ns.mode, "what": ns.what}
    g = build_grid(ns.k, ns.n, ns.mode)
    if ns.what == "size":
        return OutputRecord("grid", params, value=len(g))
    if ns.what == "elements":
        return OutputRecord("grid", params, columns=("l", "m"), rows=g.elements)
    rows = ((e.l, e.m, r) for e, r in g.level_of().items())
    return OutputRecord("grid", params, columns=("l", "m", "rank"), rows=rows)


def _cmd_whitney(ns: argparse.Namespace) -> OutputRecord:
    if ns.family == "grid":
        _need(ns, "whitney --family grid", "l", "m")
        from .grid import grid_whitney

        values = grid_whitney(ns.l, ns.m, ns.kind).values
        params = {"family": "grid", "l": ns.l, "m": ns.m, "kind": ns.kind}
    else:
        if ns.kind == "first":
            raise _UsageError("--kind first is not defined for --family prefab")
        _need(ns, "whitney --family prefab", "seq", "n")
        from .prefab import whitney_row

        values = whitney_row(_seq_from_token(ns.seq), ns.n).values
        params = {"family": "prefab", "seq": ns.seq, "n": ns.n, "kind": "second"}
    return OutputRecord("whitney", params, columns=("k", "value"), rows=enumerate(values))


def _cmd_bell(ns: argparse.Namespace) -> OutputRecord:
    if ns.family == "grid":
        if ns.table:
            raise _UsageError("--table is not defined for --family grid")
        _need(ns, "bell --family grid", "l", "m")
        from .grid import bell_grid

        return OutputRecord(
            "bell", {"family": "grid", "l": ns.l, "m": ns.m}, value=bell_grid(ns.l, ns.m)
        )
    _need(ns, "bell --family prefab", "seq", "n")
    from .prefab import _bell_sums, bell_f

    seq = _seq_from_token(ns.seq)
    params = {"family": "prefab", "seq": ns.seq, "n": ns.n}
    if ns.table:
        from ._parts import integral_up_to

        params["table"] = True
        sums = _bell_sums(seq, ns.n)
        if not integral_up_to(seq, ns.n):
            sums = list(sums)  # in full, so a NonIntegral is raised here
        return OutputRecord("bell", params, columns=("n", "value"), rows=enumerate(sums))
    return OutputRecord("bell", params, value=bell_f(seq, ns.n))


def _cmd_chains(ns: argparse.Namespace) -> OutputRecord:
    if ns.family == "grid":
        from .grid import grid_chain_count

        params = {"family": "grid", "k": ns.k, "n": ns.n, "mode": ns.mode, "method": ns.method}
        what = f"grid chains k={ns.k} n={ns.n} mode={ns.mode}"
        count = partial(grid_chain_count, ns.k, ns.n, ns.mode)
    else:
        _need(ns, "chains --family cobweb", "seq")
        from .hasse import build_cobweb, layer_chain_count

        seq = _seq_from_token(ns.seq)
        params = {"family": "cobweb", "seq": ns.seq, "k": ns.k, "n": ns.n, "method": ns.method}
        what = f"cobweb chains seq={ns.seq} k={ns.k} n={ns.n}"
        count = partial(layer_chain_count, build_cobweb(seq, ns.n), ns.k, ns.n)
    # The closed form first: it may load `cobweb.fnomial`, which then compiles
    # before the engine is built rather than on top of it.
    closed = count("closed") if ns.method == "brute" else None
    value = count(ns.method)
    agreement = None
    if ns.method == "brute":
        if value != closed:
            raise _Discrepancy(f"{what}: brute={value} closed={closed}")
        agreement = True
    return OutputRecord("chains", params, value=value, agreement=agreement)


def _cmd_mobius(ns: argparse.Namespace) -> OutputRecord:
    from .grid import _mobius_blocks, build_grid

    blocks = _mobius_blocks(build_grid(ns.k, ns.n, ns.mode))  # bounds checked before output
    rows = ((*x, *y, mu) for x, ys, mus in blocks for y, mu in zip(ys, mus))
    params = {"k": ns.k, "n": ns.n, "mode": ns.mode}
    return OutputRecord("mobius", params, columns=("x_l", "x_m", "y_l", "y_m", "mu"), rows=rows)


def _cmd_dot(ns: argparse.Namespace) -> OutputRecord:
    from .hasse import _dot_chunks, build_cobweb

    if ns.family == "cobweb":
        _need(ns, "dot --family cobweb", "seq", "levels")
        c = build_cobweb(_seq_from_token(ns.seq), ns.levels)
        chunks = _dot_chunks(c, c.level_of(), f"cobweb_{ns.seq}")
        params: dict[str, object] = {"family": "cobweb", "seq": ns.seq, "levels": ns.levels}
    else:
        _need(ns, "dot --family grid", "k", "n")
        from .grid import build_grid

        g = build_grid(ns.k, ns.n, ns.mode)
        chunks = _dot_chunks(g, g.level_of(), f"grid_{ns.mode}_{ns.k}_{ns.n}")
        params = {"family": "grid", "k": ns.k, "n": ns.n, "mode": ns.mode}
    if ns.out is not None:
        with open(ns.out, "w", encoding="ascii") as fh:
            fh.writelines(chunks)
        chunks = ()
    return OutputRecord("dot", params, raw=chunks)


def _cmd_problems(ns: argparse.Namespace) -> OutputRecord:
    from .grid import grid_whitney, stirling2_closed

    l, m = ns.l, ns.m
    s1 = grid_whitney(l, m, "first").values  # InvalidBounds unless 0 <= l < m
    columns = ["k", "stirling1", "stirling2"]
    # The neighbours (l, m-1) and (l-1, m) that are still strict grids; their
    # first-kind vectors are one rank shorter, so pad them with a 0.
    near = []
    for tag, nl, nm in (("dm", l, m - 1), ("dl", l - 1, m)):
        if 0 <= nl < nm:
            columns += [f"d1_{tag}", f"d2_{tag}"]
            near.append((nl, nm, (*grid_whitney(nl, nm, "first").values, 0)))
    rows = []
    for k in range(l + m):
        s2 = stirling2_closed(k, l, m)
        row = [k, s1[k], s2]
        for nl, nm, near_s1 in near:
            row += [s1[k] - near_s1[k], s2 - stirling2_closed(k, nl, nm)]
        rows.append(tuple(row))
    return OutputRecord("problems", {"l": l, "m": m}, columns=tuple(columns), rows=rows)


# -- rendering ---------------------------------------------------------------

_BATCH_ROWS = 256  # most rows rendered, then written, per chunk
_BATCH_CHARS = 1 << 16  # characters a chunk aims at


def _table_layout(rec: OutputRecord, sep: str, scalar_header: str) -> _Layout:
    """Text and CSV: the column header, then one `sep`-joined line per row; a
    single value is written under `scalar_header`."""
    if rec.rows is None:
        return scalar_header, [(rec.value,)], (sep, "", "\n", ""), ""
    return sep.join(rec.columns) + "\n", rec.rows, (sep, "", "\n", ""), ""


def _json_layout(rec: OutputRecord) -> _Layout:
    """The text of json.dumps over the payload object.  A decimal integer
    needs no escaping, so each row is framed here as a list of strings, and a
    table streams in batches as it does in text."""
    import json

    head = f'{{"command": {json.dumps(rec.command)}, "params": {json.dumps(rec.params)}'
    head, tail = f'{head}, "result": ', "}\n"
    if rec.agreement is not None:
        head, tail = head + '{"value": ', f', "agreement": {json.dumps(rec.agreement)}}}{tail}'
    if rec.rows is None:
        return head, [(rec.value,)], ("", '"', '"', ""), tail
    head += f'{{"columns": {json.dumps(list(rec.columns))}, "rows": ['
    return head, rec.rows, ('", "', '["', '"]', ", "), "]}" + tail


_LAYOUTS = {
    "text": partial(_table_layout, sep=" ", scalar_header=""),
    "csv": partial(_table_layout, sep=",", scalar_header="value\n"),
    "json": _json_layout,
}


def _render(rec: OutputRecord, fmt: str) -> Iterator[str]:
    """The output text as its format's head, the rows in chunks, and its
    tail; each chunk is rendered only when it is read, so no copy of the
    whole text is held.  The first chunk is one row; each next one takes as
    many rows as the last chunk's rows per _BATCH_CHARS characters, but at
    least one, at most twice the last count and at most _BATCH_ROWS.  Each
    row is formatted by one %-template: the text before the row, one %s per
    cell joined by the format's cell separator, and the text after it.

    Results of any size are exact; the int-to-str digit limit is never
    changed.  Only a batch in which str() refuses an int past the limit is
    rendered again through Decimal, which converts any int exactly, before
    any of it is yielded.  That needs the C `_decimal` (the pure-Python
    `_pydecimal` converts through str() and hits the same limit); CPython
    3.10-3.12 ship it."""
    head, rows, (cell_sep, start, end, between), tail = _LAYOUTS[fmt](rec)
    yield head
    rows, lead, size = iter(rows), "", 1
    while batch := list(islice(rows, size)):
        template = start + cell_sep.join(["%s"] * len(batch[0])) + end
        try:
            text = between.join(map(template.__mod__, batch))
        except ValueError:
            from decimal import Decimal

            text = between.join([template % tuple(map(Decimal, row)) for row in batch])
        yield lead + text
        lead = between
        size = max(1, min(_BATCH_ROWS, 2 * size, size * _BATCH_CHARS // len(text)))
    yield tail


# -- subcommands ---------------------------------------------------------------


# Options shared by several subcommands, declared once (these --seq, --k and
# --n are the required ones).
_FORMAT = ("--format", {"choices": ("text", "csv", "json"), "default": "text"})
_MODE = ("--mode", {"choices": ("strict", "weak"), "default": "strict"})
_SEQ = ("--seq", {"required": True})
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_K, _N = ("--k", _REQUIRED_INT), ("--n", _REQUIRED_INT)

# Each subcommand: (help line, handler, options), the options in help order as
# (flag, add_argument keywords) pairs.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], OutputRecord], list[Any]]] = {
    "seq": ("sequence values or GCD-morphism check", _cmd_seq, [
        _FORMAT, _SEQ,
        ("--count", {"type": int, "default": 10}),
        ("--gcd-morphic", {"type": int, "metavar": "RANGE_MAX"}),
    ]),
    "fnomial": ("one F-nomial coefficient or a triangle", _cmd_fnomial, [
        _FORMAT, _SEQ,
        ("--n", _INT),
        ("--k", _INT),
        ("--table", {"type": int, "metavar": "N_MAX"}),
    ]),
    "catalan": ("n-th Catalan number", _cmd_catalan, [_FORMAT, _N]),
    "ballot": ("0-dominated string count", _cmd_ballot, [_FORMAT, _K, _N]),
    "grid": ("layer-poset size, ranks, or elements", _cmd_grid, [
        _FORMAT, _K, _N, _MODE,
        ("--what", {"choices": ("size", "ranks", "elements"), "default": "size"}),
    ]),
    "whitney": ("Whitney numbers of a grid or prefab row", _cmd_whitney, [
        _FORMAT,
        ("--family", {"choices": ("grid", "prefab"), "required": True}),
        ("--kind", {"choices": ("second", "first"), "default": "second"}),
        ("--l", _INT),
        ("--m", _INT),
        ("--seq", {}),
        ("--n", _INT),
    ]),
    "bell": ("Bell-like numbers (grid or prefab)", _cmd_bell, [
        _FORMAT,
        ("--family", {"choices": ("grid", "prefab"), "required": True}),
        ("--l", _INT),
        ("--m", _INT),
        ("--seq", {}),
        ("--n", _INT),
        ("--table", {"action": "store_true"}),
    ]),
    "chains": ("maximal chain counts, brute or closed", _cmd_chains, [
        _FORMAT,
        ("--family", {"choices": ("grid", "cobweb"), "required": True}),
        _K, _N, _MODE,
        ("--seq", {}),
        ("--method", {"choices": ("brute", "closed"), "default": "closed"}),
    ]),
    "mobius": ("Möbius matrix of a grid", _cmd_mobius, [_FORMAT, _K, _N, _MODE]),
    "dot": ("DOT export of a cobweb or grid Hasse diagram", _cmd_dot, [
        ("--family", {"choices": ("cobweb", "grid"), "required": True}),
        ("--seq", {}),
        ("--levels", _INT),
        ("--k", _INT),
        ("--n", _INT),
        _MODE,
        ("--out", {"metavar": "PATH"}),
    ]),
    "problems": ("experimental Stirling tables of both kinds with neighbour differences",
                 _cmd_problems, [_FORMAT, ("--l", _REQUIRED_INT), ("--m", _REQUIRED_INT)]),
}


def _plain_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain argv, built from `_COMMANDS`
    without argparse: the subcommand, then each of its flags at most once and
    in full, each but a store_true flag followed by a value not starting with
    "-" that its type and choices accept.  Any other argv gives None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    left = dict(options)  # the flags not given yet
    values = {flag: kw.get("default", False if "action" in kw else None) for flag, kw in options}
    tokens = iter(argv[1:])
    for flag in tokens:
        kw = left.pop(flag, None)
        if kw is None:
            return None
        if kw.get("action") == "store_true":
            values[flag] = True
            continue
        token = next(tokens, "-")
        if token.startswith("-"):
            return None
        try:
            values[flag] = value = kw.get("type", str)(token)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
    if any(kw.get("required") for kw in left.values()):
        return None
    names = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], handler=handler, **names)


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every `_COMMANDS` entry."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact combinatorics of layered posets: F-nomials, Whitney/Bell "
        "numbers, chain counts, and DOT exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def run(
    argv: Sequence[str],
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Execute one CLI invocation; returns the exit status.  The handler
    raises any domain error before it returns, so such an error leaves `out` empty;
    the output is then written to `out` chunk by chunk, and a write that
    fails on any chunk gives one error line on `err` and status 1.  An argv
    that `_plain_parse` refuses is parsed by argparse with sys.stdout/sys.stderr
    redirected to `out`/`err`, so help or usage text from concurrent calls
    taking that path can interleave."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    ns = _plain_parse(argv)
    if ns is None:
        import contextlib

        parser = _build_parser()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                ns = parser.parse_args(list(argv))
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        rec = ns.handler(ns)
        out.writelines(rec.raw if rec.raw is not None else _render(rec, ns.format))
        out.flush()
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    except _Discrepancy as exc:
        err.write(f"discrepancy in {exc}\n")
        return 1
    except (CobwebError, ValueError, OSError) as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()  # argparse help is written to it, not flushed
    except OSError:  # keep the interpreter's exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = code or 1
    sys.exit(code)


if __name__ == "__main__":
    main()
