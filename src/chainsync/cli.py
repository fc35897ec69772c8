"""Command-line interface: run, sweep, presets, validate.

Exit codes: 0 success, 2 config error, 3 unstable Hamiltonian, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, InstabilityError, ZeroModeError
from .lattice import assemble_full_potential, check_stability
from .scenarios import (
    KEY_SPECS,
    PRESETS,
    format_config,
    parse_setting,
    read_config,
    resolve_spec,
    run_scenario,
    sweep_plug_site,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_IO = 4


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="scenario config file")
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="sets",
        help="override a config key (repeatable); preset=NAME selects a preset",
    )


def _build_spec(args):
    preset, overrides = None, {}
    if args.config:
        with open(args.config) as fh:
            preset, overrides = read_config(fh.read())
    for item in args.sets:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key] = parse_setting(key, value)
    return resolve_spec(overrides.pop("preset", preset), overrides)


def _cmd_run(args) -> int:
    spec = _build_spec(args)
    record = run_scenario(spec, out_dir=args.out)
    print(f"wrote {len(record.files)} files to {args.out or spec.run.out}")
    for key in ("revival_time", "c_means_plateau", "c_vars_plateau",
                "E_plateau", "MI_plateau", "rayleigh_predicts_sync"):
        if key in record.summary:
            print(f"{key} = {record.summary[key]}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _build_spec(args)
    record = sweep_plug_site(spec, out_dir=args.out)
    print(
        f"swept {record.summary['sites']} sites "
        f"({record.summary['failed_sites']} failed) -> {args.out or spec.run.out}"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec = _build_spec(args)
    qf = assemble_full_potential(spec.network, spec.probes)
    min_eig = check_stability(qf)
    print(format_config(spec), end="")
    print(f"# stable: min eigenvalue = {min_eig:.6e}")
    return EXIT_OK


def _cmd_presets(_args) -> int:
    print("presets:")
    for name, changed in PRESETS.items():
        desc = ", ".join(f"{k}={v}" for k, v in changed.items()) or "base defaults"
        print(f"  {name}: {desc}")
    print("\nkeys (section, key, default):")
    for key, (section, default) in KEY_SPECS.items():
        print(f"  [{section}] {key} = {default}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainsync",
        description="Simulate two detuned oscillators coupled to a finite harmonic chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its artifacts")
    _add_common(p_run)
    p_run.add_argument("--out", metavar="DIR", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep the second probe's plugging site")
    _add_common(p_sweep)
    p_sweep.add_argument("--out", metavar="DIR", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="parse config and check stability only")
    _add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list presets and config keys")
    p_pre.set_defaults(func=_cmd_presets)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # a chain mode of zero frequency puts the smallest eigenvalue of the
    # composite potential below the stability tolerance as well (interlacing)
    except (InstabilityError, ZeroModeError) as exc:
        print(f"unstable configuration: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
