"""One client step of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py OUT TRACE_DIR COMMANDS_JSON

Imports peakalg.cli from the checkout's src/, then runs each command
through ``peakalg.cli.main``, one after the other, with its standard
output captured.  Every time is read from the CPU clock of the child's
only thread (see yardstick.py), so the CPU time used when the import is
done is the set-up time.  Untraced, it takes
yardstick.py's samples of the host's speed: a burst just before the import
and one just after, and one sample every tenth of a second while the
commands run.  With
TRACE_DIR other than "-", the layer wrappers of tracer.py are installed
instead and the process writes its counters there.  OUT receives the
timings, the samples, exit codes and sha256 digests of the outputs as
JSON.  With no commands it only measures set-up.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def clock() -> float:
    """The same clock as yardstick.clock, which is imported only after t_main."""
    return time.clock_gettime(time.CLOCK_THREAD_CPUTIME_ID)


def run_command(main, argv, stick) -> dict:
    buf = io.StringIO()
    spent = stick.spent_s
    t0 = clock()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an errored operation is counted, not fatal
            traceback.print_exc()
            code = "error"
    t1 = clock()
    text = buf.getvalue()
    out = {
        "argv": argv,
        "exit": code,
        "t0": t0,
        "t1": t1,
        "s": t1 - t0 - (stick.spent_s - spent),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if argv[0] == "verify":
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError, TypeError):
            checks = None
        if checks is not None:
            out["checks"] = len(checks)
            out["checks_failed"] = sum(c.get("status") != "pass" for c in checks)
    return out


def main() -> int:
    out_path, trace_dir, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    untraced = trace_dir == "-"
    # the time from t_main to t_pre, building the yardstick's table and
    # sampling, is left out of the set-up time
    t_main = clock()
    from yardstick import Yardstick

    stick = Yardstick()
    if untraced:
        stick.burst()
    t_pre = clock()
    import peakalg.cli

    t_import = clock()
    if not Path(peakalg.cli.__file__).resolve().is_relative_to(SRC):
        print(f"peakalg was imported from {peakalg.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    rec = None
    if untraced:
        stick.burst()
        stick.start()
    else:
        import tracer

        rec = tracer.install(Path(trace_dir))
    t_start = clock()
    results = [run_command(peakalg.cli.main, argv, stick) for argv in commands]
    t_end = clock()
    stick.stop()
    if rec is not None:
        rec.dump("main")
    Path(out_path).write_text(
        json.dumps(
            {
                "pid": os.getpid(),
                "t_main": t_main,
                "t_pre": t_pre,
                "t_import": t_import,
                "t_start": t_start,
                "t_end": t_end,
                "cpu_s": sum(r["s"] for r in results),
                "samples": stick.samples,
                "commands": results,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
