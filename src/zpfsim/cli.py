"""Command-line interface.

Exit codes: 0 success, 2 configuration/validation error, 1 runtime error.
Worker count is controlled only by the ZPFSIM_WORKERS environment variable.
Each distinct warning is printed once on stderr as ``warning: <message>``.
"""

import argparse
import gc
import sys
import warnings

from .analysis import min_rate_bound
from .config import ConfigError, load_config
from .runner import emit, run as run_batch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed command line is a configuration error
        self.exit(2, f"{self.format_usage()}config error: {message}\n")


def _int_at_least(low: int):
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is less than {low}")
        return int(text)
    return integer


def run_cmd(args) -> None:
    """Validate every sweep point, then execute the experiment and emit results."""
    record = run_batch(load_config(args.config), trials=args.trials, seed=args.seed)
    out_path = args.out or f"zpfsim-run.{args.format}"
    emit(record, args.format, out_path)
    print(f"wrote {out_path} ({len(record['points'])} point(s), "
          f"digest {record['config_digest'][:12]})")


def validate_cmd(args) -> None:
    """Check a config file and build every sweep point; report applied defaults."""
    cfg = load_config(args.config)
    print(f"valid (digest {cfg.digest[:12]})")
    for key, value in sorted(cfg.defaults_applied.items()):
        print(f"  default {key} = {value}")


def rate_bound_cmd(args) -> None:
    """Minimum reliable single-count rate (counts/s, SI inputs)."""
    try:
        bound = min_rate_bound(args.eta, args.focal, args.crystal_radius, args.detector_length,
                               args.distance, args.wavelength, args.tau, args.window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(f"{bound:.6g}")


def main(argv: list[str] | None = None) -> None:
    """Zeropoint-field PDC simulator."""
    if argv is None:
        # a process of its own: freeze the import-time heap so that no later
        # collection walks it, interpreter exit's included (~17 ms a run)
        gc.freeze()
    parser = _Parser(prog="zpfsim", description=main.__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    handlers = {"run": run_cmd, "validate": validate_cmd, "rate-bound": rate_bound_cmd}
    run, validate, rate_bound = (
        commands.add_parser(name, help=f.__doc__, description=f.__doc__, allow_abbrev=False)
        for name, f in handlers.items())
    for sub in (run, validate):
        sub.add_argument("--config", required=True, metavar="PATH", help="YAML config file.")
    run.add_argument("--seed", type=_int_at_least(0), help="Override run.seed.")
    run.add_argument("--trials", type=_int_at_least(1), help="Override run.trials.")
    run.add_argument("--out", metavar="PATH",
                     help="Output file (default: zpfsim-run.<format> in the working directory).")
    run.add_argument("--format", choices=("csv", "json"), default="json",
                     help="Output format (default: %(default)s).")
    for flag, text in (
        ("eta", "Quantum efficiency."), ("focal", "Lens focal distance f (m)."),
        ("crystal-radius", "Crystal radius R_C (m)."),
        ("detector-length", "Detector length L (m)."),
        ("distance", "Crystal-detector distance d (m)."), ("wavelength", "Signal wavelength (m)."),
        ("tau", "Beam coherence time (s)."), ("window", "Detection time window T (s).")):
        rate_bound.add_argument(f"--{flag}", type=float, required=True, help=text)
    args = parser.parse_args(argv)
    shown = set()

    def show(message, *_):
        if str(message) not in shown:
            shown.add(str(message))
            sys.stderr.write(f"warning: {message}\n")

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            handlers[args.command](args)
        except ConfigError as exc:
            parser.exit(2, f"config error: {exc}\n")
        except Exception as exc:
            parser.exit(1, f"runtime error: {exc}\n")


if __name__ == "__main__":
    main()
