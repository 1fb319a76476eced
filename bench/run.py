"""Closed-loop benchmark of the cobweb CLI and library.

    python3 bench/run.py --workload cli-arith|cli-poset|session --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  One client, one request in flight at a
time.  The request list is generated from --seed; a run repeats it for
round(S / nominal pass time) passes (at least one).  Every output is checked
against references in ``checks.py`` that do not call cobweb.  Every timing
reported is scaled to a reference machine speed by the factor ``calib``
measures alongside each pass; the unscaled timings are in the record.

--trace 0 prints the end-to-end metrics, --trace 1 runs untraced and traced
passes in turn and prints the per-layer metrics.  A human-readable report
comes first; the last line of stdout is one JSON object.  A record of the
run (environment, the realised request list, failures per template) is
written to bench/out/, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calib
import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PY = sys.executable
perf = time.perf_counter
T_START = perf()

HELD_OUT_SEED = 7919  # confirm a claimed gain on this seed; never tune against it
SETUP_PROBES = 9  # set-up measurements per run, spread over its passes
REQUEST_TIMEOUT_S = 20.0
RUN_DEADLINE_S = 150.0  # stop issuing requests after this, so a run ends within 180 s
DEFECT_TEXT = "Exceeds the limit (4300 digits) for integer string conversion"
LAYERS = ("interp", "cli", "sequences", "fnomial", "prefab", "poset", "grid", "hasse")
SPAN_BUCKETS = {  # span layer -> per-layer time metric
    "cli.import": "cli.import_ms", "cli": "cli.self_ms", "sequences": "sequences.self_ms",
    "fnomial": "fnomial.self_ms", "prefab": "prefab.self_ms", "poset.build": "poset.build_ms",
    "poset.mobius": "poset.mobius_ms", "poset.algo": "poset.algo_ms", "grid": "grid.self_ms",
    "hasse": "hasse.self_ms", "hasse.dot": "hasse.dot_ms",
}


class Launcher:
    """Client of ``launcher.py``, which spawns and reaps every child."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [PY, str(BENCH / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT, env=env, start_new_session=True)

    def run(self, argv: list[str], out: Path, err: Path, timeout: float) -> dict:
        job = {"argv": [str(a) for a in argv], "out": str(out), "err": str(err),
               "timeout": timeout}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self, kill: bool) -> None:
        if kill:
            os.killpg(self.proc.pid, signal.SIGKILL)
        else:
            self.proc.stdin.close()
        self.proc.wait()


class Tally:
    """Outcomes per request template."""

    def __init__(self) -> None:
        self.by_template: dict[str, Counter] = {}
        self.unexpected = 0

    def add(self, template: str, reason: str | None) -> None:
        c = self.by_template.setdefault(template, Counter())
        c["attempted"] += 1
        if reason is not None:
            c["failed"] += 1
            c[reason] += 1
            self.unexpected += reason != "int-str-limit"

    @property
    def attempted(self) -> int:
        return sum(c["attempted"] for c in self.by_template.values())

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.by_template.values())


def timeout_s(limit: float) -> float:
    """A child's timeout: at most ``limit``, and ending soon after the deadline."""
    return max(1.0, min(limit, RUN_DEADLINE_S + 15 - (perf() - T_START)))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples above."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def speed_factor(cal: list[float]) -> float:
    """The scale that takes timings made alongside the speed-job times
    ``cal`` to the reference speed."""
    return calib.REFERENCE_S / statistics.median(cal)


def self_times(spans: list) -> list[tuple[str, float]]:
    """(layer, self seconds) per span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[1], s[3] - s[2] - child[i]) for i, s in enumerate(spans)]


# -- cli workloads -----------------------------------------------------------


def judge_cli(req: dict, job: dict, stdout: bytes, stderr: str):
    """None when the request succeeded, else the failure reason."""
    if job["timed_out"]:
        return "timeout"
    if job["code"] != 0 or "Traceback" in stderr:
        if (job["code"] == 1 and DEFECT_TEXT in stderr and req["fmt"] != "dot"
                and workloads.too_long(workloads.expected(req["ref"]))):
            return "int-str-limit"
        return f"exit-{job['code']}" + ("-traceback" if "Traceback" in stderr else "")
    try:
        text = stdout.decode("ascii")
        if req["fmt"] == "dot":
            workloads.check_dot(req["ref"], text)
        else:
            got = checks.parse_record(text, req["fmt"])
            want = workloads.expected(req["ref"])
            if got != (tuple(want[0]), want[1]):
                raise checks.Mismatch("output differs from the reference")
    except (checks.Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"wrong-output: {type(exc).__name__}: {str(exc)[:120]}"
    return None


def run_cli(args, launcher: Launcher, work: Path, reqs: list[dict]) -> dict:
    out_f, err_f = work / "stdout", work / "stderr"
    res: dict = {"tally": Tally(), "passes": [], "spans": []}

    # Set-up: the custom sequence file and fresh interpreters that import
    # cobweb.cli, after one warm-up that fills the bytecode cache.  The
    # probes are spread over the run, a few before each pass.  The speed
    # job runs before every probe and request, outside their timing.
    t = perf()
    write_mersenne()
    t_file = perf() - t

    def probe(pas: dict) -> None:
        pas["cal"].append(calib.timed())
        job = launcher.run([PY, "-c", "import cobweb.cli"], out_f, err_f,
                           timeout_s(REQUEST_TIMEOUT_S))
        if job["code"] != 0:
            raise RuntimeError(f"importing cobweb.cli failed: {err_f.read_text()[-500:]}")
        pas["probes"].append(job["t1"] - job["t0"])

    probe({"cal": [], "probes": []})

    nominal = workloads.NOMINAL_PASS_S[args.workload]
    if args.trace:
        pairs = max(1, round(args.seconds / (2 * nominal)))
        modes = [m for i in range(pairs) for m in ((False, True) if i % 2 == 0 else (True, False))]
    else:
        modes = [False] * max(1, round(args.seconds / nominal))
    for p, traced in enumerate(modes):
        pas = {"traced": traced, "lat": [], "rss": [], "bytes": 0, "acc": Counter(),
               "complete": False, "cal": [], "probes": []}
        for _ in range(-(-SETUP_PROBES // len(modes))):
            probe(pas)
        for i, req in enumerate(reqs):
            if perf() - T_START > RUN_DEADLINE_S:
                break
            pas["cal"].append(calib.timed())
            spans_f = work / "spans.json"
            if traced:
                argv = [PY, BENCH / "cli_child.py", spans_f, *req["argv"]]
                spans_f.unlink(missing_ok=True)
            else:
                argv = [PY, "-m", "cobweb.cli", *req["argv"]]
            job = launcher.run(argv, out_f, err_f, timeout_s(REQUEST_TIMEOUT_S))
            stdout = out_f.read_bytes()
            stderr = err_f.read_text(errors="replace")
            reason = judge_cli(req, job, stdout, stderr)
            res["tally"].add(req["template"], reason)
            pas["lat"].append(job["t1"] - job["t0"])
            pas["rss"].append(job["maxrss_kb"] / 1024)
            pas["bytes"] += len(stdout)
            if traced and spans_f.exists():
                account_cli_spans(pas["acc"], job, marshal.loads(spans_f.read_bytes()), p, i, res)
        else:
            pas["complete"] = True
        pas["speed"] = speed_factor(pas["cal"])
        res["passes"].append(pas)
    res["setup_raw_s"] = statistics.median(t for p in res["passes"] for t in p["probes"]) + t_file
    res["setup_s"] = (statistics.median(t * p["speed"] for p in res["passes"] for t in p["probes"])
                      + t_file * statistics.median(p["speed"] for p in res["passes"]))
    return res


def account_cli_spans(acc: Counter, job: dict, rec: dict, pass_no: int, req_no: int, res: dict):
    acc["interp"] += (rec["t0"] - job["t0"]) + (job["t1"] - rec["t_end"])
    for layer, dt in self_times(rec["spans"]):
        acc[layer] += dt
    for key, val in rec["counts"].items():
        acc["#" + key] += val
    add_spans(res["spans"], rec["spans"], lambda _: f"{pass_no}.{req_no}")


def add_spans(out: list, spans: list, request_of) -> None:
    """Append one child's spans, with parents renumbered to ids in ``out``."""
    base = len(out)
    out.extend((s[0], s[1], s[2], s[3], base + s[4] if s[4] >= 0 else -1, request_of(s[5]))
               for s in spans)


def write_mersenne() -> Path:
    path = OUT / f"mersenne-{workloads.MERSENNE_TERMS}.txt"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text("".join(f"{(1 << s) - 1}\n" for s in range(1, workloads.MERSENNE_TERMS + 1)))
    os.replace(tmp, path)
    return path


def mersenne_arg() -> str:
    return os.path.relpath(OUT / f"mersenne-{workloads.MERSENNE_TERMS}.txt", ROOT)


# -- session -------------------------------------------------------------------


def session_expected(call: list):
    """The reference in the shape ``session_child.plain`` gives results."""
    kind = call[0]
    want = workloads.expected(workloads.session_ref(kind, call[1:]))
    if kind == "gcd":
        row = want[1][0]
        return (True, None, None, None) if row[0] else (False, row[1:3], row[3], row[4])
    if kind in ("bell_f_table", "whitney_row", "grid_whitney"):
        return tuple(v for _, v in want[1])
    if kind == "grid_mobius":
        return sorted(want[1])
    return want[1]


def judge_session(call: list, out, err):
    if err is not None:
        return f"error: {err[:120]}"
    try:
        if call[0] == "cobweb":
            chains, dot = out
            if chains != session_expected(call):
                raise checks.Mismatch("chain count differs")
            workloads.check_dot(("dot_cobweb", call[1], call[2]), dot)
        elif out != session_expected(call):
            raise checks.Mismatch("result differs from the reference")
    except (checks.Mismatch, ValueError, TypeError, KeyError, IndexError) as exc:
        return f"wrong-output: {type(exc).__name__}: {str(exc)[:120]}"
    return None


def run_session(args, launcher: Launcher, work: Path, reqs: list[dict]) -> dict:
    plan_f, result_f = work / "plan.json", work / "result.pickle"
    plan_f.write_text(json.dumps({"terms": workloads.SESSION_TERMS,
                                  "calls": [r["call"] for r in reqs]}))
    res: dict = {"tally": Tally(), "passes": [], "spans": []}
    # Warm-up import so that every child finds the bytecode cache.
    job = launcher.run([PY, "-c", "import cobweb"], work / "o", work / "e",
                       timeout_s(REQUEST_TIMEOUT_S))
    if job["code"] != 0:
        raise RuntimeError(f"importing cobweb failed: {(work / 'e').read_text()[-500:]}")

    nominal = workloads.NOMINAL_PASS_S["session"]
    if args.trace:
        pairs = max(1, round(args.seconds / (2 * nominal)))
        modes = [m for i in range(pairs) for m in (("plain", "trace") if i % 2 == 0 else ("trace", "plain"))]
        modes.append("retain")
    else:
        modes = ["plain"] * max(1, round(args.seconds / nominal))
    setups = []
    for p, mode in enumerate(modes):
        if perf() - T_START > RUN_DEADLINE_S:
            break
        for _ in range(-(-SETUP_PROBES // len(modes)) - 1):
            result_f.unlink(missing_ok=True)
            launcher.run([PY, BENCH / "session_child.py", plan_f, result_f, "setup"],
                         work / "o", work / "e", timeout_s(REQUEST_TIMEOUT_S))
            if result_f.exists():
                with open(result_f, "rb") as fh:
                    out = pickle.load(fh)
                setups.append((out["setup_s"], speed_factor(out["cal"])))
        result_f.unlink(missing_ok=True)
        job = launcher.run([PY, BENCH / "session_child.py", plan_f, result_f, mode],
                           work / "o", work / "e", timeout_s(RUN_DEADLINE_S))
        if job["code"] != 0 or not result_f.exists():
            reason = "timeout" if job["timed_out"] else f"session-exit-{job['code']}"
            for r in reqs:
                res["tally"].add(r["template"], reason)
            res["passes"].append({"traced": mode == "trace", "complete": False})
            print((work / "e").read_text(errors="replace")[-2000:], file=sys.stderr)
            continue
        with open(result_f, "rb") as fh:
            out = pickle.load(fh)
        if mode == "retain":
            res["retained_mb"] = out["retained_bytes"] / 2**20
            continue
        pas = {"traced": mode == "trace", "lat": out["lat"], "rss": [job["maxrss_kb"] / 1024],
               "bytes": 0, "acc": Counter(), "complete": True, "cal": out["cal"],
               "speed": speed_factor(out["cal"])}
        if mode == "plain":
            setups.append((out["setup_s"], pas["speed"]))
        for r, o, e in zip(reqs, out["out"], out["errors"]):
            res["tally"].add(r["template"], judge_session(r["call"], o, e))
        if mode == "trace":
            spans = out["spans"]
            for (layer, dt), s in zip(self_times(spans), spans):
                pas["acc"][layer if s[5] >= 0 else "setup:" + layer] += dt
            for key, val in out["counts"].items():
                pas["acc"]["#" + key] += val
            add_spans(res["spans"], spans, lambda req, p=p: f"{p}.{req}")
        res["passes"].append(pas)
    if not setups:
        raise RuntimeError("no session set-up completed")
    res["setup_raw_s"] = statistics.median(t for t, _ in setups)
    res["setup_s"] = statistics.median(t * speed for t, speed in setups)
    return res


# -- metrics -------------------------------------------------------------------


def end_to_end(res: dict) -> tuple[dict, dict]:
    passes = [p for p in res["passes"] if p["complete"] and not p["traced"]]
    if not passes:
        raise RuntimeError("no pass completed")
    raw = [x for p in passes for x in p["lat"]]
    lat = [x * p["speed"] for p in passes for x in p["lat"]]
    tail_v, tail_p = tail(lat)
    tally = res["tally"]
    metrics = {
        "setup_s": (res["setup_s"], "s"),
        "wall_s": (statistics.median(sum(p["lat"]) * p["speed"] for p in passes), "s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail_v, "ms"),
        "peak_rss_mb": (statistics.median(max(p["rss"]) for p in passes), "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    info = {"pass_speed": [round(p["speed"], 4) for p in passes],
            "raw_setup_s": res["setup_raw_s"],
            "raw_pass_wall_s": [round(sum(p["lat"]), 4) for p in passes],
            "raw_latency_p50_ms": 1e3 * statistics.median(raw),
            "latency_samples": len(lat), "latency_tail_percentile": round(tail_p, 2),
            "failed_frac": tally.failed / tally.attempted}
    return metrics, info


def per_layer(res: dict) -> tuple[dict, dict]:
    traced = [p for p in res["passes"] if p["complete"] and p["traced"]]
    plain = [p for p in res["passes"] if p["complete"] and not p["traced"]]
    if not traced or not plain:
        raise RuntimeError("no traced/untraced pair completed")
    mean = lambda key: statistics.fmean(p["acc"][key] for p in traced)  # noqa: E731
    tmean = lambda key: statistics.fmean(p["acc"][key] * p["speed"] for p in traced)  # noqa: E731
    wall = statistics.fmean(sum(p["lat"]) * p["speed"] for p in traced)
    wall_plain = statistics.fmean(sum(p["lat"]) * p["speed"] for p in plain)
    in_wall = {k: tmean(k) for k in ("interp", *SPAN_BUCKETS)}
    accounted = sum(in_wall.values())
    metrics = {
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (wall / wall_plain - 1, "ratio"),
        "trace.unaccounted_frac": ((wall - accounted) / wall, "ratio"),
        "interp.self_ms": (1e3 * in_wall["interp"], "ms"),
    }
    for layer, name in SPAN_BUCKETS.items():
        value = in_wall[layer] + (tmean("setup:" + layer) if layer == "cli.import" else 0)
        metrics[name] = (1e3 * value, "ms")
    metrics["cli.output_bytes"] = (statistics.fmean(p["bytes"] for p in traced), "count")
    for key, unit in (("sequences.gcd_pairs", "count"), ("fnomial.result_bits", "count"),
                      ("poset.elements", "count"), ("poset.covers", "count"),
                      ("hasse.cover_pairs", "count")):
        metrics[key] = (mean("#" + key), unit)
    entries = mean("#poset.mobius_entries")
    metrics["poset.mobius_useful_frac"] = (
        mean("#poset.mobius_nonzero") / entries if entries else 0.0, "ratio")
    metrics["prefab.retained_mb"] = (res.get("retained_mb", 0.0), "MB")
    for mod in ("sequences", "fnomial", "prefab", "poset", "grid", "hasse"):
        metrics[f"{mod}.errors"] = (mean(f"#{mod}.errors"), "count")
    for layer in LAYERS:
        t = sum(v for k, v in in_wall.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.share"] = (t / wall, "ratio")
    info = {"traced_passes": len(traced), "untraced_passes": len(plain),
            "pass_speed": [round(p["speed"], 4) for p in res["passes"] if p["complete"]],
            "mobius_useful_frac_base": f"{entries:.0f} mobius() entries per pass"}
    return metrics, info


def request_medians(res: dict, i: int) -> dict:
    """Unscaled latency of request i in each untraced pass, its median, and
    the median child peak RSS."""
    passes = [p for p in res["passes"] if p["complete"] and not p["traced"]]
    if not passes:
        return {}
    ms = [round(1e3 * p["lat"][i], 3) for p in passes]
    out = {"median_ms": statistics.median(ms), "ms_by_pass": ms}
    if len(passes[0]["rss"]) > i:
        out["median_rss_mb"] = round(statistics.median(p["rss"][i] for p in passes), 1)
    return out


# -- main ------------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cobweb" / "__init__.py").is_file():
        print(f"bench: no cobweb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # references may exceed the default limit

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    if args.workload == "cli-arith":
        reqs = workloads.cli_arith(args.seed, mersenne_arg())
    elif args.workload == "cli-poset":
        reqs = workloads.cli_poset(args.seed)
    else:
        reqs = workloads.session(args.seed)
    launcher = Launcher()
    ok = False
    try:
        runner = run_session if args.workload == "session" else run_cli
        res = runner(args, launcher, work, reqs)
        ok = True
    finally:
        launcher.close(kill=not ok)
        shutil.rmtree(work, ignore_errors=True)

    metrics, info = (per_layer if args.trace else end_to_end)(res)
    tally = res["tally"]
    info.update(attempted=tally.attempted, failed=tally.failed,
                failed_known_defect=tally.failed - tally.unexpected)
    if args.workload == "session":
        info["repeat_share"] = workloads.repeat_share(reqs)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures_by_template": {t: dict(c) for t, c in sorted(tally.by_template.items())},
        "requests": [{**{k: r[k] for k in ("template", "argv", "call", "fmt") if k in r},
                      **request_medians(res, i)} for i, r in enumerate(reqs)],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if res["spans"]:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for i, (name, layer, start, end, parent, rid) in enumerate(res["spans"]):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "request": rid}) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for k, v in info.items():
        print(f"#   {k}: {v}")
    for t, c in sorted(tally.by_template.items()):
        if c["failed"]:
            reasons = ", ".join(f"{r}={n}" for r, n in c.items() if r not in ("attempted", "failed"))
            print(f"#   failed {t}: {c['failed']}/{c['attempted']} ({reasons})")
    for k, (v, u) in metrics.items():
        print(f"{k:28s} {v:14.6g} {u}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
