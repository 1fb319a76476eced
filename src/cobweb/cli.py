"""Command-line front end: tables, cross-checks, and DOT exports.

Exit codes: 0 success, 1 domain errors (the message names the error case),
2 usage errors.  Output formats: text (default), csv (header row plus
integer-only data rows), json (one object with command/params/result; big
integers are serialized as decimal strings).

Each handler imports the library modules it runs, so a request pays only for
its own subcommand's imports.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, TextIO

from .errors import CobwebError

if TYPE_CHECKING:
    from .sequences import FSequence

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Discrepancy(Exception):
    def __init__(self, what: str, brute: int, closed: int) -> None:
        self.what = what
        self.brute = brute
        self.closed = closed
        super().__init__(f"{what}: brute={brute} closed={closed}")


@dataclass
class OutputRecord:
    """One command's deterministic output payload."""

    command: str
    params: dict[str, object]
    columns: tuple[str, ...] | None = None
    rows: list[tuple[int, ...]] | None = None
    value: int | None = None
    agreement: bool | None = None
    raw: str | None = None  # preformatted output (DOT) that bypasses --format


def _seq_from_token(token: str) -> FSequence:
    from .sequences import BUILTIN_SEQUENCES, from_file

    if token in BUILTIN_SEQUENCES:
        return BUILTIN_SEQUENCES[token]
    if token.startswith("file:"):
        return from_file(token[len("file:") :])
    names = "|".join(BUILTIN_SEQUENCES)
    raise _UsageError(f"--seq must be one of {names} or file:<path>, got {token!r}")


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
    if ns.count < 0:
        raise ValueError(f"need count >= 0, got {ns.count}")
    rows = [(s, seq.value(s)) for s in range(1, ns.count + 1)]
    return OutputRecord("seq", {"seq": ns.seq, "count": ns.count}, columns=("s", "value"), rows=rows)


def _cmd_fnomial(ns: argparse.Namespace) -> OutputRecord:
    from .fnomial import FNomialTable

    seq = _seq_from_token(ns.seq)
    table = FNomialTable(seq)
    if ns.table is not None:
        if ns.table < 0:
            raise ValueError(f"need table >= 0, got {ns.table}")
        rows = [(n, k, v) for n, row in enumerate(table.rows(ns.table)) for k, v in enumerate(row)]
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
        rows = [(e.l, e.m) for e in g.elements]
        return OutputRecord("grid", params, columns=("l", "m"), rows=rows)
    rows = [(e.l, e.m, r) for e, r in g.level_of().items()]
    return OutputRecord("grid", params, columns=("l", "m", "rank"), rows=rows)


def _cmd_whitney(ns: argparse.Namespace) -> OutputRecord:
    if ns.family == "grid":
        if ns.l is None or ns.m is None:
            raise _UsageError("whitney --family grid needs --l and --m")
        from .grid import grid_whitney

        vec = grid_whitney(ns.l, ns.m, ns.kind)
        params = {"family": "grid", "l": ns.l, "m": ns.m, "kind": ns.kind}
        rows = [(k, v) for k, v in enumerate(vec.values)]
        return OutputRecord("whitney", params, columns=("k", "value"), rows=rows)
    if ns.kind == "first":
        raise _UsageError("--kind first is not defined for --family prefab")
    if ns.seq is None or ns.n is None:
        raise _UsageError("whitney --family prefab needs --seq and --n")
    from .prefab import whitney_row

    row = whitney_row(_seq_from_token(ns.seq), ns.n)
    params = {"family": "prefab", "seq": ns.seq, "n": ns.n, "kind": "second"}
    rows = [(k, v) for k, v in enumerate(row.values)]
    return OutputRecord("whitney", params, columns=("k", "value"), rows=rows)


def _cmd_bell(ns: argparse.Namespace) -> OutputRecord:
    if ns.family == "grid":
        if ns.l is None or ns.m is None:
            raise _UsageError("bell --family grid needs --l and --m")
        from .grid import bell_grid

        return OutputRecord(
            "bell", {"family": "grid", "l": ns.l, "m": ns.m}, value=bell_grid(ns.l, ns.m)
        )
    if ns.seq is None or ns.n is None:
        raise _UsageError("bell --family prefab needs --seq and --n")
    from .prefab import bell_f, bell_f_table

    seq = _seq_from_token(ns.seq)
    params = {"family": "prefab", "seq": ns.seq, "n": ns.n}
    if ns.table:
        params["table"] = True
        values = bell_f_table(seq, ns.n).values
        return OutputRecord(
            "bell", params, columns=("n", "value"), rows=[(n, v) for n, v in enumerate(values)]
        )
    return OutputRecord("bell", params, value=bell_f(seq, ns.n))


def _cmd_chains(ns: argparse.Namespace) -> OutputRecord:
    if ns.family == "grid":
        from .grid import grid_chain_count

        params = {"family": "grid", "k": ns.k, "n": ns.n, "mode": ns.mode, "method": ns.method}
        value = grid_chain_count(ns.k, ns.n, ns.mode, ns.method)
        agreement = None
        if ns.method == "brute":
            closed = grid_chain_count(ns.k, ns.n, ns.mode, "closed")
            agreement = value == closed
            if not agreement:
                raise _Discrepancy(f"grid chains k={ns.k} n={ns.n} mode={ns.mode}", value, closed)
        return OutputRecord("chains", params, value=value, agreement=agreement)
    if ns.seq is None:
        raise _UsageError("chains --family cobweb needs --seq")
    from .hasse import build_cobweb, layer_chain_count

    seq = _seq_from_token(ns.seq)
    params = {"family": "cobweb", "seq": ns.seq, "k": ns.k, "n": ns.n, "method": ns.method}
    c = build_cobweb(seq, ns.n)
    value = layer_chain_count(c, ns.k, ns.n, ns.method)
    agreement = None
    if ns.method == "brute":
        closed = layer_chain_count(c, ns.k, ns.n, "closed")
        agreement = value == closed
        if not agreement:
            raise _Discrepancy(f"cobweb chains seq={ns.seq} k={ns.k} n={ns.n}", value, closed)
    return OutputRecord("chains", params, value=value, agreement=agreement)


def _cmd_mobius(ns: argparse.Namespace) -> OutputRecord:
    from .grid import grid_mobius

    entries = grid_mobius(ns.k, ns.n, ns.mode).entries
    rows = [(x.l, x.m, y.l, y.m, mu) for (x, y), mu in entries.items()]
    params = {"k": ns.k, "n": ns.n, "mode": ns.mode}
    return OutputRecord("mobius", params, columns=("x_l", "x_m", "y_l", "y_m", "mu"), rows=rows)


def _cmd_dot(ns: argparse.Namespace) -> OutputRecord:
    from .hasse import build_cobweb, to_dot

    if ns.family == "cobweb":
        if ns.seq is None or ns.levels is None:
            raise _UsageError("dot --family cobweb needs --seq and --levels")
        c = build_cobweb(_seq_from_token(ns.seq), ns.levels)
        text = to_dot(c, c.level_of(), name=f"cobweb_{ns.seq}")
        params: dict[str, object] = {"family": "cobweb", "seq": ns.seq, "levels": ns.levels}
    else:
        if ns.k is None or ns.n is None:
            raise _UsageError("dot --family grid needs --k and --n")
        from .grid import build_grid

        g = build_grid(ns.k, ns.n, ns.mode)
        text = to_dot(g, g.level_of(), name=f"grid_{ns.mode}_{ns.k}_{ns.n}")
        params = {"family": "grid", "k": ns.k, "n": ns.n, "mode": ns.mode}
    if ns.out is not None:
        with open(ns.out, "w", encoding="ascii") as fh:
            fh.write(text)
        text = ""
    return OutputRecord("dot", params, raw=text)


def _vec_at(values: Sequence[int], k: int) -> int:
    return values[k] if 0 <= k < len(values) else 0


def _cmd_problems(ns: argparse.Namespace) -> OutputRecord:
    from .grid import grid_whitney, stirling2_closed

    l, m = ns.l, ns.m
    s1 = grid_whitney(l, m, "first").values  # InvalidBounds unless 0 <= l < m
    columns = ["k", "stirling1", "stirling2"]
    with_dm = l < m - 1  # neighbour (l, m-1) stays a valid strict grid
    with_dl = l >= 1  # neighbour (l-1, m)
    if with_dm:
        columns += ["d1_dm", "d2_dm"]
    if with_dl:
        columns += ["d1_dl", "d2_dl"]
    s1_dm = grid_whitney(l, m - 1, "first").values if with_dm else ()
    s1_dl = grid_whitney(l - 1, m, "first").values if with_dl else ()
    rows = []
    for k in range(l + m):
        row = [k, _vec_at(s1, k), stirling2_closed(k, l, m)]
        if with_dm:
            row += [
                _vec_at(s1, k) - _vec_at(s1_dm, k),
                stirling2_closed(k, l, m) - stirling2_closed(k, l, m - 1),
            ]
        if with_dl:
            row += [
                _vec_at(s1, k) - _vec_at(s1_dl, k),
                stirling2_closed(k, l, m) - stirling2_closed(k, l - 1, m),
            ]
        rows.append(tuple(row))
    return OutputRecord("problems", {"l": l, "m": m}, columns=tuple(columns), rows=rows)


# -- rendering ---------------------------------------------------------------


def _render_text(rec: OutputRecord) -> str:
    if rec.rows is not None:
        lines = [" ".join(rec.columns)]
        lines += [" ".join(str(c) for c in row) for row in rec.rows]
        return "\n".join(lines) + "\n"
    return f"{rec.value}\n"


def _render_csv(rec: OutputRecord) -> str:
    if rec.rows is not None:
        lines = [",".join(rec.columns)]
        lines += [",".join(str(c) for c in row) for row in rec.rows]
        return "\n".join(lines) + "\n"
    return f"value\n{rec.value}\n"


def _render_json(rec: OutputRecord) -> str:
    import json

    result: object
    if rec.rows is not None:
        result = {
            "columns": list(rec.columns),
            "rows": [[str(c) for c in row] for row in rec.rows],
        }
    else:
        result = str(rec.value)
    if rec.agreement is not None:
        result = {"value": result, "agreement": rec.agreement}
    payload = {"command": rec.command, "params": rec.params, "result": result}
    return json.dumps(payload) + "\n"


_RENDERERS = {"text": _render_text, "csv": _render_csv, "json": _render_json}


_digit_limit_lock = threading.Lock()


def _render(rec: OutputRecord, fmt: str) -> str:
    """Render exact results of any size.  The interpreter's int-to-str digit
    limit is lifted only while rendering and restored afterwards, since run()
    is also a library call; the lock keeps concurrent runs from saving each
    other's lifted limit.  Python builds without the limit render as is."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return _RENDERERS[fmt](rec)
    with _digit_limit_lock:
        limit = get_limit()
        sys.set_int_max_str_digits(0)
        try:
            return _RENDERERS[fmt](rec)
        finally:
            sys.set_int_max_str_digits(limit)


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact combinatorics of layered posets: F-nomials, Whitney/Bell "
        "numbers, chain counts, and DOT exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("seq", parents=[fmt], help="sequence values or GCD-morphism check")
    p.add_argument("--seq", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--gcd-morphic", type=int, metavar="RANGE_MAX")
    p.set_defaults(handler=_cmd_seq)

    p = sub.add_parser("fnomial", parents=[fmt], help="one F-nomial coefficient or a triangle")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--table", type=int, metavar="N_MAX")
    p.set_defaults(handler=_cmd_fnomial)

    p = sub.add_parser("catalan", parents=[fmt], help="n-th Catalan number")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_catalan)

    p = sub.add_parser("ballot", parents=[fmt], help="0-dominated string count")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_ballot)

    p = sub.add_parser("grid", parents=[fmt], help="layer-poset size, ranks, or elements")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")
    p.add_argument("--what", choices=("size", "ranks", "elements"), default="size")
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("whitney", parents=[fmt], help="Whitney numbers of a grid or prefab row")
    p.add_argument("--family", choices=("grid", "prefab"), required=True)
    p.add_argument("--kind", choices=("second", "first"), default="second")
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seq")
    p.add_argument("--n", type=int)
    p.set_defaults(handler=_cmd_whitney)

    p = sub.add_parser("bell", parents=[fmt], help="Bell-like numbers (grid or prefab)")
    p.add_argument("--family", choices=("grid", "prefab"), required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seq")
    p.add_argument("--n", type=int)
    p.add_argument("--table", action="store_true")
    p.set_defaults(handler=_cmd_bell)

    p = sub.add_parser("chains", parents=[fmt], help="maximal chain counts, brute or closed")
    p.add_argument("--family", choices=("grid", "cobweb"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")
    p.add_argument("--seq")
    p.add_argument("--method", choices=("brute", "closed"), default="closed")
    p.set_defaults(handler=_cmd_chains)

    p = sub.add_parser("mobius", parents=[fmt], help="Möbius matrix of a grid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")
    p.set_defaults(handler=_cmd_mobius)

    p = sub.add_parser("dot", help="DOT export of a cobweb or grid Hasse diagram")
    p.add_argument("--family", choices=("cobweb", "grid"), required=True)
    p.add_argument("--seq")
    p.add_argument("--levels", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(handler=_cmd_dot)

    p = sub.add_parser(
        "problems",
        parents=[fmt],
        help="experimental Stirling tables of both kinds with neighbour differences",
    )
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_problems)

    return parser


def run(
    argv: Sequence[str],
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Execute one CLI invocation; returns the exit status."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rec = ns.handler(ns)
        text = rec.raw if rec.raw is not None else _render(rec, ns.format)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    except _Discrepancy as exc:
        err.write(f"discrepancy in {exc.what}: brute={exc.brute} closed={exc.closed}\n")
        return 1
    except (CobwebError, ValueError, OSError) as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    out.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
