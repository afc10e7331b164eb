"""Command-line front end: simulate, amplify, project, gen.

Exit codes: 0 success, 1 invalid configuration, 2 per-point failures
occurred (partial results are still written).  A malformed command line
(an unknown or missing option, a value of the wrong type) is an invalid
configuration: it exits 1 with click's usage message.  So is an ``--out``
path that cannot be opened for writing; it is opened once the rest of the
configuration is checked, before any work, so no sweep runs for nothing.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext

import click
import numpy as np

from . import harness
from .aggregate import TARGETS, project_to_simplex
from .domain import check_size


def _open_out(out: str | None):
    """A context holding the ``--out`` file opened for writing, or None for stdout; a path that cannot be opened exits 1."""
    if out is None:
        return nullcontext()
    try:
        return open(out, "w", newline="")
    except OSError as exc:
        _fail_invalid(f"cannot write --out {out}: {exc.strerror or exc}")


def _fail_invalid(message: str) -> None:
    click.echo(f"invalid config: {message}", err=True)
    sys.exit(1)


def _emit(rows: list[harness.ReportRow], errors: list[str], fh, fmt: str) -> None:
    """Write the rows, report each failed point, and exit 2 if any failed."""
    click.echo(harness.rows_to_csv(rows) if fmt == "csv" else harness.rows_to_jsonl(rows), file=fh, nl=False)
    for err in errors:
        click.echo(f"point failed: {err}", err=True)
    sys.exit(2 if errors else 0)


class _Group(click.Group):
    """Click exits 2 on a malformed command line, but 2 means failed grid points here.

    The group's own options are parsed in make_context, a subcommand's in invoke.
    """

    def make_context(self, *args, **kwargs):
        return _usage_exits_1(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exits_1(super().invoke, ctx)


def _usage_exits_1(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


@click.group(cls=_Group)
def main():
    """Locally private sparse-vector aggregation experiments."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--master-seed", type=int, default=None, help="Mandatory; overrides the config file.")
@click.option("--n", default=None, help="Comma-separated user counts.")
@click.option("--d", default=None, help="Comma-separated dimensions.")
@click.option("--s", default=None, help="Comma-separated sparsities.")
@click.option("--epsilon", default=None, help="Comma-separated budgets.")
@click.option("--mechanism", default=None, help="Comma-separated mechanism names.")
@click.option("--repetitions", default=None)
@click.option("--metrics", default=None, help="Subset of tve,mae.")
@click.option("--target", default=None, type=click.Choice(TARGETS))
@click.option("--projection", default=None, help="true or false.")
@click.option("--report", default=None, type=click.Choice(harness.REPORTS))
@click.option("--full-scale", "full_scale", is_flag=True, default=False,
              help="Fill unset grid fields with the full-scale defaults "
                   "(n=100000, d=512, s=4..32, the nine-point epsilon grid) "
                   "instead of the desk-scale ones.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
def simulate(config_path, full_scale, out, fmt, **grid):
    """Run an experiment grid and emit one row per (point, metric)."""
    raw: dict[str, str] = {}
    try:
        if config_path is not None:
            with open(config_path) as fh:
                raw = harness.parse_config_text(fh.read())
        # Each option is named after its config key; a flag overrides the file.
        raw.update((key, str(value)) for key, value in grid.items() if value is not None)
        config = harness.build_config(raw, full_scale)
    except (ValueError, OSError) as exc:
        _fail_invalid(str(exc))
    with _open_out(out) as fh:
        _emit(*harness.run_experiment(config), fh, fmt)


@main.command()
@click.option("--n", default="10000", help="Comma-separated batch sizes.")
@click.option("--s", default="4", help="Comma-separated sparsities.")
@click.option("--epsilon", default="0.5,1.0,2.0", help="Comma-separated local budgets.")
@click.option("--delta", type=float, default=1e-6)
@click.option("--bounds", default="collision,clone,efmrtt",
              help="Subset of collision,clone,efmrtt.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
def amplify(n, s, epsilon, delta, bounds, out, fmt):
    """Amplified budgets eps_c and log2 amplification ratios."""
    try:
        grid = (harness._parse_list(n, int), harness._parse_list(s, int), harness._parse_list(epsilon, float), delta,
                harness._parse_list(bounds, str))
        harness.check_amplification_grid(*grid)
    except ValueError as exc:
        _fail_invalid(str(exc))
    with _open_out(out) as fh:
        _emit(*harness.run_amplification_sweep(*grid), fh, fmt)


@main.command()
@click.option("--s", type=int, required=True, help="Scale: estimates sum to s after projection.")
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV, one comma-separated estimate vector per line.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def project(s, in_path, out):
    """Project each line of a CSV of frequency estimates onto the simplex."""
    try:
        check_size("s", s)
        lines = []
        with open(in_path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                projected = project_to_simplex(np.array([float(v) for v in line.split(",")]), s)
                lines.append(",".join(f"{v:.17g}" for v in projected))
    except ValueError as exc:
        _fail_invalid(str(exc))
    with _open_out(out) as fh:
        click.echo("".join(line + "\n" for line in lines), file=fh, nl=False)
    sys.exit(0)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gen(n, d, s, seed, out):
    """Dump a synthetic dataset, one user per line as signed dimensions."""
    try:
        check_size("seed", seed, low=0)
        rng = np.random.default_rng(seed)
        supports, signs = harness.gen_synthetic_arrays(n, d, s, rng)
    except (ValueError, MemoryError) as exc:
        _fail_invalid(str(exc))
    with _open_out(out) as fh:
        lines = []
        for i in range(n):
            lines.append(" ".join(f"{'+' if b > 0 else '-'}{j}" for j, b in zip(supports[i], signs[i])))
        click.echo("".join(line + "\n" for line in lines), file=fh, nl=False)
    sys.exit(0)


if __name__ == "__main__":
    main()
