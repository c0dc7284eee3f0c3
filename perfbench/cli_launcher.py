"""Run one ``liechar`` command and report the child's own peak RSS.

Usage: ``python perfbench/cli_launcher.py [--spans FILE] [liechar arguments]``.

The command's stdout and exit code are those of ``liechar``, and so is its
stderr, followed by one last line ``perfbench-vm-hwm-kb: N``.  With
``--spans`` the benchmark's span wrappers are installed first, spans are
timed by a :class:`meter.SpeedClock`, and they are written to FILE when the
command returns.
"""

import contextlib
import sys

import meter

RSS_TAG = "perfbench-vm-hwm-kb:"


def main(argv) -> int:
    spans_out = None
    if argv[:1] == ["--spans"]:
        spans_out, argv = argv[1], argv[2:]
    with contextlib.ExitStack() as stack:
        if spans_out is not None:
            import spans

            tracer = spans.Tracer(stack.enter_context(meter.SpeedClock()))
            spans.install(tracer)
        from liechar import cli

        try:
            return cli.main(argv)
        finally:
            if spans_out is not None:
                tracer.uninstall()
                spans.dump_spans(spans_out, spans.tracer_spans(tracer),
                                 tracer.counts)
            print(f"{RSS_TAG} {round(meter.peak_rss_mb() * 1024)}",
                  file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
