"""Command-line surface.

Subcommands: simulate, check, prove, frontier, tp. Exit codes: 0 for
success (for ``prove``, success means the expected violation WAS
found), 1 for violations or a failed bound, 2 for configuration and
usage errors, running out of memory and a stdout closed too early.

Every command runs in a fresh process, so each imports only the layers it
runs, when it runs: ``tp`` needs only ``config``, ``simulate`` the kernel,
``check`` the checker, ``prove`` and ``frontier`` the harness. ``main``
catches every error it words from ``errors``, which imports no layer.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import ScenarioConfig, check_range, describe, load_json_object, text_pieces
from .errors import ConfigError, HistoryIntegrityError, SimulationError, TraceParseError


def _emit(pieces, path) -> None:
    """Write text ``pieces`` to ``path``, or to stdout when there is none."""
    if not path:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_simulate(args) -> int:
    from .kernel import Simulation

    config = ScenarioConfig.read(args.config)
    _emit(Simulation(config).run(history=False).chunks(), args.output)
    return 0


def _cmd_check(args) -> int:
    from .checker import bound_holds, check, extract_history

    for flag in ("tc", "ta", "tp", "slack"):
        if (value := getattr(args, flag)) is not None:
            check_range(value, (0, None), f"--{flag}")
    history = extract_history(text_pieces(args.trace))
    report = check(history, args.tc, args.ta, time_ref=args.time_ref)
    print(report.to_json())
    code = 0 if report.clean else 1
    if args.tp is not None:
        tc, ta = report.empirical_tc_min, report.empirical_ta
        holds = bound_holds(tc, ta, args.tp, args.slack)
        print(f"bound tp={args.tp} slack={args.slack} holds={str(holds).lower()}")
        if not holds:
            code = 1
    return code


def _cmd_prove(args) -> int:
    from .harness import ProofReplaySpec, proof_replay

    spec = ProofReplaySpec.from_dict(load_json_object(args.spec))
    report = proof_replay(spec)
    print(report.to_json())
    if report.clean:
        print("theorem: no violation found (unexpected)")
        return 1
    print("theorem: violation found")
    return 0


def _cmd_frontier(args) -> int:
    from .harness import frontier_csv, frontier_sweep

    base = load_json_object(args.config)
    deadlines = []
    for part in filter(None, args.deadlines.split(",")):
        try:
            deadlines.append(int(part))
        except ValueError:
            raise ConfigError(f"--deadlines: cannot read {describe(part)} as an integer") from None
    rows = frontier_sweep(args.tp, deadlines, base)
    _emit([frontier_csv(rows)], args.output)
    return 0 if all(row.bound_ok for row in rows) else 1


def _cmd_tp(args) -> int:
    config = ScenarioConfig.read(args.config)
    print(config.partitions.max_partition_span(config.horizon))
    return 0


@functools.cache  # built on the first call, then shared: a parse leaves no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsim",
        description=(
            "Deterministic simulator and trace checker for bounded-staleness "
            "consistency, bounded-latency availability, and partition spans."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and emit its trace")
    p.add_argument("config", help="scenario config JSON")
    p.add_argument("-o", "--output", help="trace output path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="verify a trace against declared bounds")
    p.add_argument("trace", help="trace JSONL file")
    p.add_argument("--tc", type=int, required=True, help="declared staleness bound")
    p.add_argument("--ta", type=int, required=True, help="declared latency bound")
    p.add_argument("--tp", type=int, help="partition span for the tradeoff bound")
    p.add_argument("--slack", type=int, default=0, help="slack for the bound check")
    p.add_argument(
        "--time-ref",
        choices=("response", "invoke"),
        default="response",
        help="anchor reads at their response tick (default) or invoke tick",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("prove", help="replay the contradiction scenario")
    p.add_argument("spec", help="proof replay spec JSON")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("frontier", help="sweep response deadlines, emit CSV")
    p.add_argument("config", help="base config JSON (latency, seed, G)")
    p.add_argument("--tp", type=int, required=True, help="partition span to impose")
    p.add_argument(
        "--deadlines", required=True, help="comma-separated deadline ticks"
    )
    p.add_argument("-o", "--output", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("tp", help="print the schedule's partition span")
    p.add_argument("config", help="scenario config JSON")
    p.set_defaults(func=_cmd_tp)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # the reader left (``| head``): on devnull, the flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TraceParseError, HistoryIntegrityError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
