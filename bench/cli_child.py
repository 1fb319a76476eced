"""One traced CLI request: ``python bench/cli_child.py SPANS_OUT ARGV...``.

Does what ``python -m cobweb.cli ARGV...`` does, with spans around the
import of ``cobweb.cli`` and the calls into each module.  The spans are
written to SPANS_OUT after the run, also when the run raises; the exception
then propagates as it would without tracing.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import tracer  # noqa: E402


def main() -> None:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    with rec.span("cobweb.cli", "cli.import"):
        import cobweb.cli
    rec.install()
    code = 1
    try:
        code = cobweb.cli.run(argv)
    finally:
        sys.stdout.flush()
        t_end = time.perf_counter()
        import marshal

        with open(spans_out, "wb") as fh:
            marshal.dump({"t0": T0, "t_end": t_end, "spans": rec.spans,
                          "counts": dict(rec.counts)}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
