"""Command-line interface.

Exit codes: 0 success, 2 configuration/validation error, 1 runtime error.
Worker count is controlled only by the ZPFSIM_WORKERS environment variable.
"""

from __future__ import annotations

import sys

import click

from .analysis import min_rate_bound
from .config import ConfigError, load_config
from .runner import emit, run as run_batch, validate_points


@click.group()
def main() -> None:
    """Zeropoint-field PDC simulator."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(), help="YAML config file.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override run.seed.")
@click.option("--trials", type=click.IntRange(min=1), default=None, help="Override run.trials.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output file (default: zpfsim-run.<format> in the working directory).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True)
def run_cmd(config_path, seed, trials, out_path, fmt) -> None:
    """Validate every sweep point, then execute the experiment and emit results."""
    try:
        cfg = load_config(config_path)
        record = run_batch(cfg, trials=trials, seed=seed)
        if out_path is None:
            out_path = f"zpfsim-run.{fmt}"
        emit(record, fmt, out_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(1)
    click.echo(f"wrote {out_path} ({len(record.points)} point(s), digest {record.config_digest[:12]})")


@main.command("validate")
@click.option("--config", "config_path", required=True, type=click.Path())
def validate_cmd(config_path) -> None:
    """Check a config file and build every sweep point; report applied defaults."""
    try:
        cfg = load_config(config_path)
        validate_points(cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"valid (digest {cfg.digest[:12]})")
    for key, value in sorted(cfg.defaults_applied.items()):
        click.echo(f"  default {key} = {value}")


@main.command("rate-bound")
@click.option("--eta", type=float, required=True, help="Quantum efficiency.")
@click.option("--focal", type=float, required=True, help="Lens focal distance f (m).")
@click.option("--crystal-radius", type=float, required=True, help="Crystal radius R_C (m).")
@click.option("--detector-length", type=float, required=True, help="Detector length L (m).")
@click.option("--distance", type=float, required=True, help="Crystal-detector distance d (m).")
@click.option("--wavelength", type=float, required=True, help="Signal wavelength (m).")
@click.option("--tau", type=float, required=True, help="Beam coherence time (s).")
@click.option("--window", type=float, required=True, help="Detection time window T (s).")
def rate_bound_cmd(eta, focal, crystal_radius, detector_length, distance,
                   wavelength, tau, window) -> None:
    """Minimum reliable single-count rate (counts/s, SI inputs)."""
    try:
        bound = min_rate_bound(eta, focal, crystal_radius, detector_length,
                               distance, wavelength, tau, window)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"{bound:.6g}")


if __name__ == "__main__":
    main()
