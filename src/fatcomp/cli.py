"""Command-line experiments: blow-up tables, conjugate times, sub-Laplacian.

Four subcommands, each taking only the options it reads:

* ``blowup``: scalar model blow-up times and upper bounds, optionally
  swept over kappa_a and cross-checked against the 2x2 Jacobi system
  (``--ka --kb --kc --tmax``, and ``--sweep`` in place of ``--ka``);
* ``conjugate``: quaternionic Hopf conjugate times against both model
  bounds, single covector or a sweep over the vertical momentum norm
  (``--d``, one of ``--v --vnorm --sweep``, and ``--jobs``);
* ``laplacian``: the radial sub-Laplacian trace formula against the
  model right-hand side on a radius grid (``--d``, one of ``--v --vnorm``,
  and ``--rgrid``);
* ``verify-all``: the full deterministic verification suite (``--seed``
  and ``--jobs``).

All four take ``--out`` and ``--format``; ``blowup``, ``conjugate`` and
``laplacian`` also take ``--tol`` and ``--verify``.

Output goes to CSV (default) or JSON. CSV files start with ``#`` metadata
lines (tool version, command, configuration echo) followed by a single
header; rows are ordered by input index regardless of --jobs, all floats
are written with repr so identical runs produce identical bytes, and the
rows of a command with --tol carry the tolerance they were checked
against. Timing is printed to stdout only, never serialized. Exit status:
0 on success, 1 when a --verify comparison or a verification check fails,
2 on usage errors and on NaN, infinite or out-of-domain input (a kappa,
--d, --tol, --jobs, --tmax), 3 when no row failed but some could not be
decided: ``blowup --verify`` writes ``check_ok`` as ``unverifiable``
where the 2x2 phase route cannot reach the model blow-up time (the pass
needs more than 2^20 steps, a step overflows, or an eigenphase stays at 0
or moves back), and lists those rows on stderr. A verify-all check that
raises is a failed row whose detail names the exception.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .checks import map_tasks, run_all
from .hopf import conjugate_time, sublaplacian_along
from .models import DomainError, blowup_time_kab, blowup_time_kc, upper_bound_kab
from .riccati import UnverifiableError, first_blowup, integrate_jacobi, wedge_det_sign_changes, wedge_first_zero
from .structure import typeI_pair

OUT_DIR_ENV = "FATCOMP_OUT_DIR"
#: check_ok of a --verify row that the cross-check cannot decide
UNVERIFIABLE = "unverifiable"


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated values, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if n < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    return [float(x) for x in np.linspace(lo, hi, n)]


def _add_command(sub, name: str, func, summary: str, checked: bool) -> argparse.ArgumentParser:
    """A subcommand with --out and --format, and with --tol and --verify if checked."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("--out", help="output file path (default: out dir / <command>.<format>)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    if checked:
        sp.add_argument(
            "--tol",
            type=float,
            default=1e-9,
            help="numeric tolerance recorded and enforced per row: blowup --verify "
            "accepts |check_tbar - tbar| <= tol * tbar, laplacian --verify "
            "margin >= -tol * max(1, |model_rhs|), conjugate --verify every bound "
            "margin >= -tol",
        )
        sp.add_argument("--verify", action="store_true", help="enforce the per-row comparisons; exit 1 on failure")
    sp.set_defaults(func=func)
    return sp


def _add_momentum(sp: argparse.ArgumentParser):
    """--d, then --v and --vnorm in an exclusive group, returned so that conjugate can add --sweep."""
    sp.add_argument("--d", type=int, default=2, help="quaternionic dimension of the base")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--v", type=_triple, metavar="VI,VJ,VK", help="vertical momentum components")
    group.add_argument("--vnorm", type=float, help="vertical momentum norm, direction (1,0,0)")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatcomp",
        description="comparison experiments for fat sub-Riemannian structures",
    )
    parser.add_argument("--version", action="version", version=f"fatcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_blow = _add_command(sub, "blowup", cmd_blowup, "scalar model blow-up times and bounds", checked=True)
    kas = p_blow.add_mutually_exclusive_group()
    kas.add_argument("--ka", type=float, help="two-frequency constant kappa_a")
    kas.add_argument("--sweep", type=_grid, metavar="LO:HI:N", help="sweep kappa_a (requires --kb)")
    p_blow.add_argument("--kb", type=float, help="two-frequency constant kappa_b")
    p_blow.add_argument("--kc", type=float, help="single-frequency constant kappa_c")
    p_blow.add_argument("--tmax", type=float, default=1000.0, help="horizon for verifying the absence of a blow-up")

    p_conj = _add_command(sub, "conjugate", cmd_conjugate, "quaternionic Hopf conjugate times", checked=True)
    _add_momentum(p_conj).add_argument(
        "--sweep", type=_grid, metavar="LO:HI:N", help="sweep the vertical momentum norm"
    )
    p_conj.add_argument("--jobs", type=int, default=1, help="worker processes; the rows do not depend on it")

    p_lap = _add_command(sub, "laplacian", cmd_laplacian, "radial sub-Laplacian against the model sum", checked=True)
    _add_momentum(p_lap)
    p_lap.add_argument(
        "--rgrid",
        type=_grid,
        metavar="LO:HI:N",
        help="radius grid; must end below the conjugate time t* (default: 20 radii from t*/30 to 0.95 t*)",
    )

    p_ver = _add_command(sub, "verify-all", cmd_verify_all, "run the full verification suite", checked=False)
    p_ver.add_argument("--seed", type=int, default=42, help="seed of the checks' random draws")
    p_ver.add_argument("--jobs", type=int, default=1, help="worker processes; the rows do not depend on it")

    return parser


def _positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite positive, got {value}")


# ----------------------------------------------------------------------
# serialization and the shared tail
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_echo(args: argparse.Namespace) -> str:
    # jobs and out are execution mechanics: they change neither row content
    # nor ordering, and echoing them would break byte-identical reruns
    skip = {"func", "command", "jobs", "out"}
    items = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if isinstance(value, list):
            value = ",".join(_fmt(v) for v in value)
        items.append(f"{key}={_fmt(value)}")
    return " ".join(items)


def _write_rows(args: argparse.Namespace, header: list[str], rows: list[dict]) -> str:
    path = args.out or os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{args.command}.{args.format}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    meta = {"tool": f"fatcomp {__version__}", "command": args.command, "config": _config_echo(args)}
    if args.format == "csv":
        with open(path, "w", newline="") as f:
            for key, value in meta.items():
                f.write(f"# {key}: {value}\n")
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) for col in header])
    else:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)
            return v

        payload = {
            "meta": meta,
            "rows": [{col: clean(row.get(col)) for col in header} for row in rows],
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return path


def _finish(args: argparse.Namespace, header: list[str], rows: list[dict], ok=None, what: str = "verification") -> int:
    """Write the rows and say where; then the exit status. ok, when given,
    holds each row's outcome, True, False or ``UNVERIFIABLE``: the status is
    1 if a row failed, else 3 if a row is undecided, else 0; without ok, 0."""
    path = _write_rows(args, header, rows)
    print(f"wrote {len(rows)} rows to {path}")
    if ok is None:
        return 0
    failed = [r["index"] for r, k in zip(rows, ok) if not k]
    undecided = [r["index"] for r, k in zip(rows, ok) if k == UNVERIFIABLE]
    if failed:
        print(f"{what} FAILED on rows {failed}", file=sys.stderr)
        return 1
    if undecided:
        print(f"{what} undecided on rows {undecided}: beyond the reach of the cross-check", file=sys.stderr)
        return 3
    print(f"{what} passed on all rows")
    return 0


# ----------------------------------------------------------------------
# blowup
# ----------------------------------------------------------------------

def _blowup_row_kab(idx: int, ka: float, kb: float, args) -> dict:
    tbar = blowup_time_kab(ka, kb)
    row = {
        "index": idx,
        "model": "two-frequency",
        "kappa_a": ka,
        "kappa_b": kb,
        "kappa_c": None,
        "tbar": tbar.time,
        "upper_bound": upper_bound_kab(ka, kb),
        "finite": tbar.is_finite,
        "tol": args.tol,
    }
    if args.verify:
        a_I, b_I = typeI_pair()
        Q = np.diag([ka, kb])
        row["check_tbar"] = row["check_err"] = None
        try:
            if tbar.is_finite:
                hit = wedge_first_zero(a_I, b_I, Q, 1.05 * tbar.time + 0.1)
                row["check_tbar"] = hit.time
                row["check_err"] = abs(hit.time - tbar.time)
                row["check_ok"] = row["check_err"] <= args.tol * tbar.time
            else:
                zeros, _ = wedge_det_sign_changes(a_I, b_I, Q, args.tmax)
                row["check_ok"] = zeros == 0
        except UnverifiableError:
            row["check_ok"] = UNVERIFIABLE
    return row


def _blowup_row_kc(idx: int, kc: float, args) -> dict:
    tbar = blowup_time_kc(kc)
    row = {
        "index": idx,
        "model": "single-frequency",
        "kappa_a": None,
        "kappa_b": None,
        "kappa_c": kc,
        "tbar": tbar.time,
        "upper_bound": None,
        "finite": tbar.is_finite,
        "tol": args.tol,
    }
    if args.verify:
        # first_blowup steps horizon * sqrt|kc| / (pi/4) times; on an infinite row the cap keeps that below 400
        horizon = 1.1 * tbar.time if tbar.is_finite else min(args.tmax, 300.0 / max(1.0, math.sqrt(abs(kc))))
        hit = first_blowup(integrate_jacobi(np.zeros((1, 1)), np.eye(1), np.array([[kc]]), horizon))
        row["check_tbar"] = hit.time if tbar.is_finite else None
        row["check_err"] = abs(hit.time - tbar.time) if tbar.is_finite else None
        row["check_ok"] = row["check_err"] <= args.tol * tbar.time if tbar.is_finite else not hit.is_finite
    return row


def cmd_blowup(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _positive("--tol", args.tol)
    _positive("--tmax", args.tmax)
    if args.sweep is not None:
        if args.kb is None:
            parser.error("--sweep sweeps kappa_a and requires --kb")
    elif (args.ka is None) != (args.kb is None):
        parser.error("--ka and --kb must be given together")
    elif args.ka is None and args.kc is None:
        parser.error("nothing to compute: give --ka/--kb, --kc, or --sweep")
    # the kab rows, from --sweep or --ka, then the kc row
    kas = args.sweep if args.sweep is not None else [] if args.ka is None else [args.ka]
    rows = [_blowup_row_kab(idx, ka, args.kb, args) for idx, ka in enumerate(kas)]
    if args.kc is not None:
        rows.append(_blowup_row_kc(len(rows), args.kc, args))

    header = [
        "index", "model", "kappa_a", "kappa_b", "kappa_c",
        "tbar", "upper_bound", "finite", "tol",
    ]
    if args.verify:
        header += ["check_tbar", "check_err", "check_ok"]
    return _finish(args, header, rows, [r["check_ok"] for r in rows] if args.verify else None)


# ----------------------------------------------------------------------
# conjugate
# ----------------------------------------------------------------------

def _conjugate_worker(idx: int, d: int, v: tuple[float, float, float], tol: float) -> dict:
    res = conjugate_time(d, np.array(v))
    row = {
        "index": idx,
        "d": d,
        "v_I": v[0],
        "v_J": v[1],
        "v_K": v[2],
        "v_norm": math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2),
        "t_star": res.t_star,
        "bound_kab": res.bound_kab.time,
        "margin_kab": res.margin_kab,
        "tol": tol,
        "worst_margin": min(res.margins),  # read by --verify, not written
    }
    if res.bound_kc is not None:
        row["bound_kc"] = res.bound_kc
        row["margin_kc"] = res.margin_kc
    return row


def _given_momentum(args) -> tuple[float, float, float]:
    """The vertical momentum of --v or --vnorm, 0 when neither is given."""
    if args.v is not None:
        return args.v
    return (0.0 if args.vnorm is None else args.vnorm, 0.0, 0.0)


def cmd_conjugate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _positive("--tol", args.tol)
    momenta = [_given_momentum(args)] if args.sweep is None else [(x, 0.0, 0.0) for x in args.sweep]
    tasks = [(i, args.d, v, args.tol) for i, v in enumerate(momenta)]
    rows = map_tasks(_conjugate_worker, tasks, args.jobs)

    header = [
        "index", "d", "v_I", "v_J", "v_K", "v_norm",
        "t_star", "bound_kab", "margin_kab",
    ]
    if args.d >= 2:
        header += ["bound_kc", "margin_kc"]
    header += ["tol"]
    ok = [not r["worst_margin"] < -args.tol for r in rows] if args.verify else None
    return _finish(args, header, rows, ok, "bound verification")


# ----------------------------------------------------------------------
# laplacian
# ----------------------------------------------------------------------

def cmd_laplacian(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _positive("--tol", args.tol)
    v = np.array(_given_momentum(args))
    conj = conjugate_time(args.d, v)
    r = np.linspace(conj.t_star / 30.0, 0.95 * conj.t_star, 20) if args.rgrid is None else args.rgrid
    rep = sublaplacian_along(conj, r)
    rows = [
        {
            "index": i,
            "d": args.d,
            "v_norm": float(np.linalg.norm(v)),
            "t_star": rep.t_star,
            "r": float(rep.r[i]),
            "laplacian": float(rep.lhs[i]),
            "model_rhs": float(rep.rhs[i]),
            "margin": float(rep.margin[i]),
            "r_times_laplacian": float(rep.r_times_lhs[i]),
            "tol": args.tol,
        }
        for i in range(len(rep.r))
    ]
    header = [
        "index", "d", "v_norm", "t_star", "r",
        "laplacian", "model_rhs", "margin", "r_times_laplacian", "tol",
    ]
    ok = [not r["margin"] < -args.tol * max(1.0, abs(r["model_rhs"])) for r in rows] if args.verify else None
    return _finish(args, header, rows, ok, "margin verification")


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------

def cmd_verify_all(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    results = run_all(seed=args.seed, jobs=args.jobs)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  worst={r.worst!r}  tol={r.tol:g}  [{r.elapsed:.2f}s]")
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    rows = [
        {
            "index": i,
            "name": r.name,
            "passed": r.passed,
            "worst": r.worst,
            "tol": r.tol,
            "n_cases": r.n_cases,
            "detail": r.detail,
        }
        for i, r in enumerate(results)
    ]
    header = ["index", "name", "passed", "worst", "tol", "n_cases", "detail"]
    return _finish(args, header, rows, [r.passed for r in results], "checks")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
