"""One session: ``python bench/session_child.py PLAN OUT MODE``.

Imports ``cobweb`` once, builds the workload's sequences, then runs the
calls listed in PLAN (JSON) one after another, timing each.  MODE is
``plain``, ``trace`` (spans as in ``tracer``), ``retain`` (only the prefab
calls, under ``tracemalloc``, to measure what their memos keep) or
``setup`` (stop after the set-up).  Results
are converted to plain ints and tuples after each call's timed region and
pickled to OUT with the timings and the times of the speed job
(``calib``), which runs between calls, outside their timing.
"""

import time

perf = time.perf_counter

import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402

PREFAB_CALLS = ("bell_f_table", "whitney_row", "bell_f")
CAL_EVERY = 10  # calls between runs of the speed job
SETUP_CALS = 3  # runs of the speed job after a set-up-only child's set-up


def _fib(count):
    v = [1, 1]
    while len(v) < count:
        v.append(v[-1] + v[-2])
    return tuple(v[:count])


def run_call(cw, env, call):
    kind, *p = call
    seq = env["seq"]
    if kind == "bell_f_table":
        return cw.bell_f_table(seq(p[0]), p[1]).values
    if kind == "whitney_row":
        return cw.whitney_row(seq(p[0]), p[1]).values
    if kind == "bell_f":
        return cw.bell_f(seq(p[0]), p[1])
    if kind == "fnomial_kept":
        return env["kept"][p[0]].fnomial(p[1], p[2])
    if kind == "grid_whitney":
        return cw.grid_whitney(*p).values
    if kind == "grid_mobius":
        return cw.mobius(cw.build_grid(*p).poset).entries
    if kind == "cobweb":
        tok, levels, k = p
        c = cw.build_cobweb(seq(tok), levels)
        chains = cw.layer_chain_count(c, k, levels, "brute")
        return chains, cw.to_dot(c.poset, c.level_of(), name=f"cobweb_{tok}")
    if kind == "gcd":
        r = cw.is_gcd_morphic(seq(p[0]), p[1])
        return r.holds, r.witness, r.gcd_of_values, r.f_at_gcd
    raise ValueError(f"unknown call {kind!r}")


def plain(kind, res):
    """The result as ints and tuples only, so the harness needs no cobweb."""
    if kind == "grid_mobius":
        return sorted((x[0], x[1], y[0], y[1], v) for (x, y), v in res.items())
    if kind == "gcd":
        holds, w, g, f = res
        return (holds, tuple(w) if w else None, g, f)
    return res


def main() -> None:
    plan_path, out_path, mode = sys.argv[1:4]
    with open(plan_path) as fh:
        plan = json.load(fh)
    terms = plan["terms"]
    plan = plan["calls"]
    rec = None
    t_setup = perf()
    if mode == "trace":
        import tracer

        rec = tracer.Recorder()
        with rec.span("cobweb", "cli.import"):
            import cobweb as cw
        rec.install()
    else:
        import cobweb as cw
    mersenne = tuple((1 << s) - 1 for s in range(1, terms + 1))
    fibvals = _fib(terms)
    custom = {"custom:mersenne": lambda: cw.from_values("mersenne", mersenne),
              "custom:fibvals": lambda: cw.from_values("fibvals", fibvals)}
    env = {
        # Custom sequences are rebuilt on every call, as a caller holding
        # only the values would do.
        "seq": lambda tok: custom[tok]() if tok in custom else cw.BUILTIN_SEQUENCES[tok],
        "kept": {"fibonacci": cw.FNomialTable(cw.FIBONACCI),
                 "mersenne": cw.FNomialTable(cw.from_values("mersenne", mersenne))},
    }
    setup_s = perf() - t_setup

    lat, outs, errors, cal = [], [], [], []
    if mode == "setup":
        result = {"setup_s": setup_s, "cal": [calib.timed() for _ in range(SETUP_CALS)]}
    elif mode == "retain":
        import tracemalloc

        tracemalloc.start()
        for call in plan:
            if call[0] in PREFAB_CALLS:
                run_call(cw, env, call)
        gc.collect()
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/cobweb/*")])
        retained = sum(stat.size for stat in snap.statistics("filename"))
        tracemalloc.stop()
        result = {"setup_s": setup_s, "retained_bytes": retained}
    else:
        for i, call in enumerate(plan):
            if i % CAL_EVERY == 0:
                cal.append(calib.timed())
            if rec is not None:
                rec.request = i
            t = perf()
            try:
                res = run_call(cw, env, call)
                err = None
            except Exception as exc:  # a failed call is reported, the stream goes on
                res, err = None, f"{type(exc).__name__}: {exc}"
            lat.append(perf() - t)
            outs.append(None if err else plain(call[0], res))
            errors.append(err)
        result = {"setup_s": setup_s, "lat": lat, "out": outs, "errors": errors, "cal": cal}
        if rec is not None:
            result["spans"] = rec.spans
            result["counts"] = dict(rec.counts)
    with open(out_path, "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main()
