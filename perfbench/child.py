"""Run one ``tierflow`` command in a benchmark child process.

Usage: ``python3 perfbench/child.py STAMP_JSON SPANS_JSON|- -- <tierflow argv>``

The same wrapper stamps "data ready" in every run, as a monotonic time and
as the CPU seconds this process has used so far: the return of
``config.build_data_context`` (train, diagnose) or ``data.load_bitvectors``
(embed), under the names ``tierflow.cli`` binds them by.  With a spans path,
every traced function of ``spans.FUNCTIONS`` is wrapped as well, and the
spans are written there at exit.  ``src`` must be on ``PYTHONPATH``.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    stamp_path, spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit(__doc__)
    import tierflow.cli as cli

    stamp = {"data_ready": None, "data_ready_cpu": None}

    def stamped(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stamp["data_ready"] is None:
                stamp["data_ready"] = time.monotonic()
                usage = resource.getrusage(resource.RUSAGE_SELF)
                stamp["data_ready_cpu"] = usage.ru_utime + usage.ru_stime
            return result
        return wrapper

    cli.build_data_context = stamped(cli.build_data_context)
    cli.load_bitvectors = stamped(cli.load_bitvectors)

    tracer = None
    run = cli.main
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.spans.append(["startup", STARTED, time.monotonic(), -1])
        tracer.install()
        run = tracer.span("cli.main", cli.main)
    try:
        return run(cli_argv)
    finally:
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump(stamp, fh)
        if tracer is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
