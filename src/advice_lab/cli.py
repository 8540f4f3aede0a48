"""Command-line front door.

Subcommands: grover | box | hellman | compress | verify.  Every command takes
--trials, --seed, --out and --format; identical configuration and seed produce
byte-identical output files.  Exit status 0 means every invariant checked by
the run held.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def _add_common(p: argparse.ArgumentParser, trials: int):
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advice-lab",
        description="Seeded experiments for query/advice tradeoffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grover", help="exact inversion success probabilities")
    p.add_argument("--n", type=int, default=64)
    _add_common(p, trials=8)

    p = sub.add_parser("box", help="advice-class collision experiment")
    p.add_argument("--n", type=int, default=8, help="number of boxes")
    p.add_argument("--m", type=int, default=2)
    _add_common(p, trials=20)

    p = sub.add_parser("hellman", help="iterate-table tradeoff sweep")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--s", type=str, default="8,16,32,64",
                   help="comma-separated strides")
    _add_common(p, trials=5)

    p = sub.add_parser("compress", help="permutation encode/decode roundtrips")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--c", type=float, default=0.001)
    _add_common(p, trials=100)

    p = sub.add_parser("verify", help="inequality verification suites")
    p.add_argument("suite", choices=("swapping", "tv", "collision", "eq2", "all"))
    _add_common(p, trials=100)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "grover":
            table = harness.cmd_grover(args.n, args.trials, args.seed)
        elif args.command == "box":
            table = harness.cmd_box(args.n, args.m, args.trials, args.seed)
        elif args.command == "hellman":
            s_values = [int(v) for v in args.s.split(",")]
            table = harness.cmd_hellman(args.n, s_values, args.trials, args.seed)
        elif args.command == "compress":
            table = harness.cmd_compress(args.n, args.delta, args.c, args.trials, args.seed)
        else:
            table = harness.cmd_verify(args.suite, args.trials, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    harness.emit(table, args.out, args.format)
    return 0 if table.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
