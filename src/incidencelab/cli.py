"""Command line front end: one subcommand per experiment.

Values come from three layers, later ones winning: built-in defaults, a
flat `key = value` config file passed with --config, and explicit flags.
Flags are derived from the experiment table in `harness`.  Exit status is
0 when every hard check passed, 1 when any failed, and 2 for invalid input
(an unknown flag, a mistyped or out-of-choice value), a refusal, or I/O
trouble.  The table goes to stdout unless --out is given; stderr gets a
`failed: q=<q> trial=<t> <check>` line for each failed check, then the
timing note.
"""

from __future__ import annotations

import argparse
import sys

from .errors import Error
from .harness import COMMON_PARAMS, EXPERIMENTS, load_config_file, make_config, run


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser with a subcommand for every experiment, or for `only`."""
    parser = argparse.ArgumentParser(
        prog="incidencelab",
        description="seeded experiment sweeps with CSV/JSON emission")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="experiment")
    for name, spec in EXPERIMENTS.items():
        if only is not None and name != only:
            continue
        sp = sub.add_parser(name, help=spec.description,
                            description=spec.description)
        sp.add_argument("--config", default=None,
                        help="flat `key = value` file; flags override it")
        # default None marks a flag as not given, so a config file value
        # survives; make_config fills in and checks the declared values
        for param in COMMON_PARAMS + spec.params:
            sp.add_argument(param.flag, dest=param.name, default=None,
                            help=param.help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named experiment needs only its own flags; anything else (help, no
    # arguments, an unknown name) gets the full parser and its messages
    only = argv[0] if argv and argv[0] in EXPERIMENTS else None
    args = _build_parser(only).parse_args(argv)
    try:
        mapping = {}
        if args.config:
            mapping.update(load_config_file(args.config))
        for key, value in vars(args).items():
            if key != "config" and value is not None:
                mapping[key] = value
        config = make_config(mapping)
        result = run(config)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = f"{exc.filename}: " if getattr(exc, "filename", None) else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    if config.out:
        schema_note = (f" and {config.out}.schema.json"
                       if config.fmt == "csv" else "")
        print(f"wrote {config.out}{schema_note}", file=sys.stderr)
    else:
        sys.stdout.write(result.text)
    for q, trial, check in result.failed:
        print(f"failed: q={q} trial={trial} {check}", file=sys.stderr)
    print(f"elapsed {result.elapsed:.3f} s", file=sys.stderr)
    return 0 if result.hard_ok else 1


if __name__ == "__main__":
    sys.exit(main())
