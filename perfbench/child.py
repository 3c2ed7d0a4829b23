"""One benchmark child: import rectrep, stamp the time, run one CLI command.

    python3 perfbench/child.py [--setup-only | --trace REQUEST_ID] -- ARGS...

This is what `python -m rectrep ARGS...` does, plus a line
`@setup <CLOCK_MONOTONIC ns>` on stderr as soon as `import rectrep`
returns, so the parent can split set-up from the command in the same
process, and a line `@rss <kB>` with this process's own peak resident
set at the end.  With --trace the layer functions are wrapped first (see
tracer.py) and a line `@trace <json>` is written after the command.
stdout is the CLI's own and is left untouched.
"""

import sys
import time

import rectrep.cli


def _peak_rss_kb() -> int:
    # VmHWM belongs to this program image alone; getrusage's ru_maxrss
    # would also carry the parent's peak over from before exec.
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, args = argv[:split], argv[split + 1:]
    rec = None
    try:
        if opts == ["--setup-only"]:
            return 0
        if opts[:1] == ["--trace"]:
            import tracer
            rec = tracer.install(int(opts[1]))
        return rectrep.cli.main(args)
    finally:
        sys.stdout.flush()
        if rec is not None:
            import json
            sys.stderr.write("@trace " + json.dumps(tracer.summary(rec)) + "\n")
        sys.stderr.write(f"@rss {_peak_rss_kb()}\n")


if __name__ == "__main__":
    sys.stderr.write(f"@setup {time.monotonic_ns()}\n")
    sys.stderr.flush()
    sys.exit(main(sys.argv[1:]))
