"""Child process for one timed CLI run: ``probe.py RESULT_JSON [--trace] -- CLI_ARGS``.

Imports ``encoder_sim`` from the checkout's ``src`` and runs
``encoder_sim.cli.main(CLI_ARGS)``. The experiment starts when the CLI's
first ``build_encoder`` call returns, and ends when ``main`` returns, after
the output is written. The probe writes to RESULT_JSON the monotonic clock
at both instants (the parent compares them with its own launch time),
the CPU seconds spent between them, the peak resident set size, the CLI's
exit code and, with ``--trace``, the per-layer self times and call counts
from ``tracer.Tracer`` over one root span that covers both the import of
``encoder_sim`` and ``main``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, clock  # noqa: E402


def _cpu_s() -> float:
    # getrusage, unlike os.times, resolves microseconds rather than clock ticks.
    return sum(
        u.ru_utime + u.ru_stime
        for u in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def run_cli(cli_args: list[str], marks: dict[str, float], tracer: Tracer | None) -> int:
    from encoder_sim import cli

    build_encoder = cli.build_encoder

    def marked_build_encoder(*args, **kwargs):
        enc = build_encoder(*args, **kwargs)
        if "start" not in marks:
            marks["start"] = clock()
            marks["cpu_start"] = _cpu_s()
        return enc

    if tracer is not None:
        tracer.install()
    cli.build_encoder = marked_build_encoder
    try:
        return cli.main(cli_args)
    finally:
        cli.build_encoder = build_encoder
        if tracer is not None:
            tracer.restore()


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    traced = argv[1] == "--trace"
    cli_args = argv[argv.index("--") + 1 :]

    marks: dict[str, float] = {}
    if traced:
        tracer = Tracer()
        tracer.trace_imports()
        code = tracer.root("cli", run_cli, cli_args, marks, tracer)
    else:
        tracer = None
        code = run_cli(cli_args, marks, None)
    end = clock()
    cpu_end = _cpu_s()

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "exit_code": code,
        "start": marks.get("start"),
        "end": end,
        "cpu_s": cpu_end - marks["cpu_start"] if "cpu_start" in marks else None,
        "peak_rss_mb": usage / 1024.0,  # Linux reports ru_maxrss in KiB
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
