"""Command line interface.

Subcommands: ``tm run``, ``algebra build``, ``bn build``, ``verify``,
``depth``, ``sd-meet``.  Each leaf parser names its handler with
``set_defaults(run=...)``, and `main` calls ``args.run(args, budget)``
inside the one set of error handlers.  A handler imports the lemma suite
(`witness`) or `lattice` itself, so a command loads only what it runs;
``verify`` and ``depth`` run each width through `witness.run_width`.
All structured output is JSON with ``"schema": 1``, sorted keys,
two-space indent, and a trailing newline; identical arguments give
byte-identical documents; verify only echoes --seed, as no check
samples.  Timings are zeroed without --timings.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse error (an unreadable machine or unwritable --out among them), 3
all passed but some were skipped on budget (a MemoryError counts as the
budget named ``memory``).  The environment variable
VARIETAL_BUDGET_SECONDS imposes a global wall-clock cap; a value that is
not a number, or is NaN, is a usage error.

`run` is the process entry point (``python -m varietal.cli`` and the
installed ``varietal`` script); `main` returns its exit code and never
exits, for in-process callers.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import json
import math
import os
import sys
import time

from .algebra import Budget, BudgetExceeded
from .machine_algebra import build_bn, compile_machine
from .tm import TMError, load_tm, run_bounded

SCHEMA = 1
# the --lemma choices: witness.LEMMA_ORDER, spelled out so that parsing
# loads no lemma code
LEMMAS = ("structure", "nonzero-ops", "atomic", "chain", "f-char", "omission",
          "support-growth", "depth", "k-collapse")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from None
    if lo_i < 2 or hi_i < lo_i:
        raise argparse.ArgumentTypeError(
            f"range {text!r} must be rising and start at 2 or above")
    return lo_i, hi_i


def _count(text: str) -> int:
    """A non-negative int: a step or budget cap, where 0 is valid."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _budget_seconds() -> float | None:
    """VARIETAL_BUDGET_SECONDS in seconds, None when unset, NaN when it is
    not a number (a deadline of NaN would never fire)."""
    env = os.environ.get("VARIETAL_BUDGET_SECONDS")
    if not env:
        return None
    try:
        return float(env)
    except ValueError:
        return math.nan


def _budget(args, seconds: float | None) -> Budget:
    """The one budget of a run: the command's caps where it takes them, and
    a deadline `seconds` from now."""
    caps = {k: v for k, v in vars(args).items()
            if k in ("max_elements", "max_pairs")}
    deadline = None if seconds is None else time.monotonic() + seconds
    return Budget(deadline=deadline, **caps)


def _emit(doc: dict, out: str | None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(out: str) -> None:
    """Raise the OSError that writing `out` would, for a directory or a
    missing parent directory, before the run rather than after it.  The
    file itself is created only when its document is ready."""
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


def _exit_code(reports) -> int:
    statuses = [r.status for r in reports]
    if any(s == "FAILED" for s in statuses):
        return 1
    if any(s == "SKIPPED" for s in statuses):
        return 3
    return 0


def _add_caps(p):
    p.add_argument("--max-elements", type=_count, default=1_000_000)
    p.add_argument("--max-pairs", type=_count, default=5_000_000)


def _add_common(p):
    p.add_argument("--tm", required=True, help="machine description file")
    p.add_argument("--n", type=_parse_range, default=(2, 4),
                   help="width or inclusive range, e.g. 3 or 2..4")
    _add_caps(p)
    p.add_argument("--timings", action="store_true",
                   help="emit real wall-clock seconds in stats")
    p.add_argument("--out", help="write the JSON document here")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="varietal")
    sub = top.add_subparsers(dest="command", required=True)

    tm_p = sub.add_parser("tm", help="machine utilities")
    tm_sub = tm_p.add_subparsers(dest="tm_command", required=True)
    run_p = tm_sub.add_parser("run", help="run from the empty tape")
    run_p.add_argument("file", help="machine description file")
    run_p.add_argument("--max-steps", type=_count, default=10_000)
    run_p.add_argument("--out")
    run_p.set_defaults(run=_cmd_tm_run)

    alg_p = sub.add_parser("algebra", help="algebra compilation")
    alg_sub = alg_p.add_subparsers(dest="algebra_command", required=True)
    build_p = alg_sub.add_parser("build", help="compile and summarize")
    build_p.add_argument("--tm", required=True)
    build_p.add_argument("--with-k", action="store_true")
    build_p.add_argument("--out")
    build_p.set_defaults(run=_cmd_algebra_build)

    bn_p = sub.add_parser("bn", help="witness subpower commands")
    bn_sub = bn_p.add_subparsers(dest="bn_command", required=True)
    bn_build = bn_sub.add_parser("build", help="close the witness generators")
    _add_common(bn_build)
    bn_build.add_argument("--with-k", action="store_true")
    bn_build.set_defaults(run=_cmd_bn_build)

    verify_p = sub.add_parser("verify", help="run the lemma suite")
    _add_common(verify_p)
    verify_p.add_argument("--seed", type=int, default=0,
                          help="echoed in the document; changes no verdict")
    verify_p.add_argument("--lemma", choices=LEMMAS,
                          help="restrict to one lemma")
    verify_p.set_defaults(run=_cmd_verify)

    depth_p = sub.add_parser("depth", help="witness pair depth per width")
    _add_common(depth_p)
    depth_p.set_defaults(run=_cmd_depth)

    sd_p = sub.add_parser("sd-meet", help="congruence lattice SD-meet check")
    sd_p.add_argument("--tm")
    sd_p.add_argument("--n", type=_parse_range, default=(2, 2))
    sd_p.add_argument("--fixture", choices=["m3"],
                      help="check the built-in failing lattice instead")
    _add_caps(sd_p)
    sd_p.add_argument("--out")
    sd_p.set_defaults(run=_cmd_sd_meet)
    return top


# ---------------------------------------------------------------------------

def _cmd_tm_run(args, budget: Budget) -> int:
    tm = load_tm(args.file)
    outcome = run_bounded(tm, args.max_steps, budget)
    if outcome.halted:
        line = f"HALTED({outcome.steps})"
        if outcome.stalled:
            line += " stalled"
    else:
        line = "RUNNING"
    print(line)
    doc = {"schema": SCHEMA, "command": "tm run", "file": args.file,
           "max_steps": args.max_steps, "status": outcome.status,
           "steps": outcome.steps, "stalled": outcome.stalled}
    if args.out:
        _emit(doc, args.out)
    return 0


def _cmd_algebra_build(args, budget: Budget) -> int:
    tm = load_tm(args.tm)
    ma = compile_machine(tm, with_k=args.with_k)
    budget.check_time()
    doc = {"schema": SCHEMA, "command": "algebra build", "tm": args.tm,
           "with_k": args.with_k, "states": list(tm.states),
           "size": ma.size,
           "operations": [{"symbol": op.symbol, "arity": op.arity}
                          for op in ma.algebra.ops]}
    _emit(doc, args.out)
    return 0


def _cmd_bn_build(args, budget: Budget) -> int:
    tm = load_tm(args.tm)
    ma = compile_machine(tm, with_k=args.with_k)
    rows = []
    for n in range(args.n[0], args.n[1] + 1):
        ctx = build_bn(ma, n, budget)
        rows.append({"n": n, "universe": ctx.subpower.size,
                     "generators": len(ctx.b) + len(ctx.d),
                     "alphabet": [ma.names[v] for v in
                                  ctx.subpower.coordinate_alphabet()]})
    doc = {"schema": SCHEMA, "command": "bn build", "tm": args.tm,
           "with_k": args.with_k, "widths": rows}
    _emit(doc, args.out)
    return 0


def _cmd_verify(args, budget: Budget) -> int:
    from .witness import KCOLLAPSE_MIN_N, LEMMA_ORDER, run_width
    if args.lemma == "k-collapse" and args.n[1] < KCOLLAPSE_MIN_N:
        print(f"error: k-collapse needs a width of {KCOLLAPSE_MIN_N} or more, "
              f"but --n stops at {args.n[1]}", file=sys.stderr)
        return 2
    tm = load_tm(args.tm)
    ma = compile_machine(tm)
    lemmas = [args.lemma] if args.lemma else list(LEMMA_ORDER)
    reports = [r for n in range(args.n[0], args.n[1] + 1)
               for r in run_width(ma, n, lemmas, budget)]
    doc = {"schema": SCHEMA, "command": "verify", "tm": args.tm,
           "n_range": [args.n[0], args.n[1]], "seed": args.seed,
           "pass": all(r.status != "FAILED" for r in reports),
           "skipped": sum(1 for r in reports if r.status == "SKIPPED"),
           "reports": [r.to_json(timings=args.timings) for r in reports]}
    _emit(doc, args.out)
    return _exit_code(reports)


def _cmd_depth(args, budget: Budget) -> int:
    from .witness import run_width
    tm = load_tm(args.tm)
    ma = compile_machine(tm)
    reports = [r for n in range(args.n[0], args.n[1] + 1)
               for r in run_width(ma, n, ["depth"], budget)]
    depths = [r.witnesses[0]["depth"] if r.witnesses else None
              for r in reports]
    doc = {"schema": SCHEMA, "command": "depth", "tm": args.tm,
           "n_range": [args.n[0], args.n[1]], "depths": depths,
           "reports": [r.to_json(timings=args.timings) for r in reports]}
    _emit(doc, args.out)
    return _exit_code(reports)


def _cmd_sd_meet(args, budget: Budget) -> int:
    from .lattice import congruence_lattice, is_meet_semidistributive, \
        lattice_of_congruences, m3_lattice
    if args.fixture == "m3":
        lat = m3_lattice()
        sd, witness = is_meet_semidistributive(lat, budget=budget)
        doc = {"schema": SCHEMA, "command": "sd-meet", "fixture": "m3",
               "lattice_size": lat.size, "sd_meet": sd,
               "witness": list(witness) if witness else None,
               "pass": (not sd) and witness is not None}
        _emit(doc, args.out)
        return 0 if doc["pass"] else 1
    if not args.tm:
        print("sd-meet needs --tm or --fixture m3", file=sys.stderr)
        return 2
    tm = load_tm(args.tm)
    ma = compile_machine(tm)
    rows = []
    all_ok = True
    for n in range(args.n[0], args.n[1] + 1):
        ctx = build_bn(ma, n, budget)
        try:
            congs = congruence_lattice(ctx.system(), budget=budget)
        except ValueError as exc:
            # a meet outside the generated lattice: a failed check
            all_ok = False
            rows.append({"n": n, "universe": ctx.subpower.size,
                         "congruences": None, "sd_meet": False,
                         "witness": None, "error": str(exc)})
            continue
        lat = lattice_of_congruences(congs, budget=budget)
        sd, witness = is_meet_semidistributive(lat, budget=budget)
        all_ok = all_ok and sd
        rows.append({"n": n, "universe": ctx.subpower.size,
                     "congruences": len(congs), "sd_meet": sd,
                     "witness": list(witness) if witness else None})
    doc = {"schema": SCHEMA, "command": "sd-meet", "tm": args.tm,
           "n_range": [args.n[0], args.n[1]], "lattices": rows,
           "pass": all_ok}
    _emit(doc, args.out)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    seconds = _budget_seconds()
    if seconds is not None and math.isnan(seconds):
        print("error: VARIETAL_BUDGET_SECONDS must be a number of seconds, not "
              f"{os.environ['VARIETAL_BUDGET_SECONDS']!r}", file=sys.stderr)
        return 2
    budget = _budget(args, seconds)
    try:
        if args.out:
            _check_out(args.out)
        return args.run(args, budget)
    except (TMError, OSError) as exc:
        # a bad machine, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"budget exhausted: {BudgetExceeded.memory(exc)}", file=sys.stderr)
        return 3


def run() -> None:
    """Run `main` on the command line and end the process with its exit
    code once the output is out.  atexit handlers run, then both streams
    are flushed (the order of interpreter shutdown), and `os._exit` skips
    the rest of the shutdown: module teardown and the final garbage
    collection.  Under a tracer or profiler (``-m cProfile``, coverage,
    ``-m trace``), which reports at exit, and when a flush fails (a
    closed pipe), the process exits as usual."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # cProfile's hook from 3.12
    if sys.gettrace() is not None or sys.getprofile() is not None or \
            (monitoring and any(monitoring.get_tool(i) for i in range(6))):
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
