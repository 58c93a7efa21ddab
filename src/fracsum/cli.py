"""Command-line interface: kernel compression, error scans, and solver runs as CSV.

Subcommands: compress, scan, solve-mlf, solve-vdp, sweep.  Every output file
starts with '#'-prefixed metadata lines (library version, subcommand, full
flag set, estimator values) so each artifact is self-describing, and contains
no timestamps: identical flags give byte-identical files.  Relative output
paths land under $FRACSUM_OUTDIR when that is set.

Exit codes: 0 success, 2 usage error, 3 infeasible kernel tolerance,
4 solver step failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .kernel import (
    InfeasibleToleranceError,
    compress,
    dump_terms,
    estimate_error,
    eval_sum,
    relative_error_scan,
    select_parameters,
)
from .oracle import kernel_direct, mlf_exact_solution
from .problems import mittag_leffler_problem, van_der_pol_problem
from .solver import SolverConfig, StepFailureError, solve

try:
    from importlib.metadata import version as _dist_version
    __version__ = _dist_version("fracsum")
except Exception:  # pragma: no cover - not installed
    __version__ = "0.1.0"

_USAGE_EXIT = 2
_INFEASIBLE_EXIT = 3
_SOLVER_EXIT = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _resolve_output(path: str) -> Path:
    p = Path(path)
    outdir = os.environ.get("FRACSUM_OUTDIR")
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _header(command: str, args: argparse.Namespace) -> list[str]:
    lines = [f"# fracsum {__version__}", f"# command {command}"]
    skip = {"func", "output", "command"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        lines.append(f"# {key.replace('_', '-')} {_fmt(value)}")
    return lines


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {path}")


def _pick_parameters(args) -> tuple[int, int]:
    has_kj = args.K is not None and args.J is not None
    if has_kj and args.eps is not None:
        raise SystemExit(_usage("give either --K/--J or --eps, not both"))
    if has_kj:
        return args.K, args.J
    if (args.K is None) != (args.J is None):
        raise SystemExit(_usage("--K and --J must be given together"))
    if args.eps is None:
        raise SystemExit(_usage("give --K/--J or --eps"))
    return select_parameters(args.alpha, args.delta, args.T, args.eps)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _USAGE_EXIT


def _estimator_lines(alpha, delta, T, K, J) -> list[str]:
    est = estimate_error(alpha, delta, T, K, J)
    return [
        f"# A_J {est.a_j:.17g}",
        f"# B_K {est.b_k:.17g}",
        f"# total {est.total:.17g}",
    ]


def _cmd_compress(args) -> int:
    K, J = _pick_parameters(args)
    S = compress(args.alpha, args.delta, args.T, K, J)
    lines = _header("compress", args)
    lines += _estimator_lines(args.alpha, args.delta, args.T, K, J)
    lines += dump_terms(S).rstrip("\n").split("\n")
    _write(_resolve_output(args.output), lines)
    return 0


def _cmd_scan(args) -> int:
    K, J = _pick_parameters(args)
    S = compress(args.alpha, args.delta, args.T, K, J)
    max_err, curve = relative_error_scan(S)
    lines = _header("scan", args)
    lines += _estimator_lines(args.alpha, args.delta, args.T, K, J)
    lines.append(f"# K {K}")
    lines.append(f"# J {J}")
    lines.append(f"# M {max_err:.17g}")
    lines.append("t,w,S,rel_err")
    for t, rel in curve:
        w = kernel_direct(args.alpha, t)
        s = eval_sum(S, t - args.delta)
        lines.append(f"{t:.17g},{w:.17g},{s:.17g},{rel:.17g}")
    _write(_resolve_output(args.output), lines)
    return 0


def _solver_config(args) -> SolverConfig:
    return SolverConfig(h=args.h, eps_kernel=args.eps,
                        newton_tol=args.newton_tol,
                        newton_max_iter=args.newton_max_iter)


def _cmd_solve_mlf(args) -> int:
    lam = complex(args.lambda_re, args.lambda_im)
    problem = mittag_leffler_problem(args.alpha, lam, args.T)
    traj = solve(problem, _solver_config(args))
    exact = np.atleast_1d(mlf_exact_solution(args.alpha, lam, traj.times))
    lines = _header("solve-mlf", args)
    if lam.imag == 0.0:
        lines.append("t,v,u,e")
        for n, t in enumerate(traj.times):
            v = traj.states[n, 0]
            u = exact[n].real
            lines.append(f"{t:.17g},{v:.17g},{u:.17g},{abs(u - v):.17g}")
    else:
        lines.append("t,v_re,v_im,u_re,u_im,e")
        for n, t in enumerate(traj.times):
            vr, vi = traj.states[n]
            u = exact[n]
            err = abs(u - complex(vr, vi))
            lines.append(f"{t:.17g},{vr:.17g},{vi:.17g},"
                         f"{u.real:.17g},{u.imag:.17g},{err:.17g}")
    _write(_resolve_output(args.output), lines)
    return 0


def _cmd_solve_vdp(args) -> int:
    problem = van_der_pol_problem(args.alpha, args.mu, args.x0, args.y0, args.T)
    config = _solver_config(args)
    traj = solve(problem, config)
    lines = _header("solve-vdp", args)
    lines.append("t,x,y")
    for n, t in enumerate(traj.times):
        x, y = traj.states[n]
        lines.append(f"{t:.17g},{x:.17g},{y:.17g}")
    out = _resolve_output(args.output)
    _write(out, lines)

    halved = dataclasses.replace(config, h=config.h / 2.0)
    fine = solve(problem, halved)
    shared = min(len(traj.times), (len(fine.times) + 1) // 2)
    diff = np.abs(traj.states[:shared] - fine.states[: 2 * shared : 2])
    report = _header("solve-vdp-convergence", args)
    report.append(f"# h {config.h:.17g}")
    report.append(f"# h-half {halved.h:.17g}")
    report.append(f"# shared-points {shared}")
    report.append(f"max_diff_x {diff[:, 0].max():.17g}")
    report.append(f"max_diff_y {diff[:, 1].max():.17g}")
    report.append(f"max_diff {diff.max():.17g}")
    _write(out.with_name(out.name + ".convergence"), report)
    return 0


def _parse_int_values(spec: str) -> list[int]:
    values = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ":" in chunk:
            lo, hi = chunk.split(":")
            values.extend(range(int(lo), int(hi) + 1))
        elif chunk:
            values.append(int(chunk))
    if not values:
        raise ValueError(f"empty integer list: {spec!r}")
    return values


def _parse_float_values(spec: str) -> list[float]:
    values = [float(chunk) for chunk in spec.split(",") if chunk.strip()]
    if not values:
        raise ValueError(f"empty float list: {spec!r}")
    return values


def _cmd_sweep(args) -> int:
    deltas = _parse_float_values(args.delta_values)
    Ks = _parse_int_values(args.K_values)
    Js = _parse_int_values(args.J_values)
    lines = _header("sweep", args)
    lines.append("alpha,delta,T,K,J,P,A_J,B_K,total,M")
    for delta in deltas:
        for K in Ks:
            for J in Js:
                est = estimate_error(args.alpha, delta, args.T, K, J)
                S = compress(args.alpha, delta, args.T, K, J)
                max_err, _ = relative_error_scan(S)
                lines.append(
                    f"{args.alpha:.17g},{delta:.17g},{args.T:.17g},{K},{J},"
                    f"{S.terms},{est.a_j:.17g},{est.b_k:.17g},"
                    f"{est.total:.17g},{max_err:.17g}"
                )
    _write(_resolve_output(args.output), lines)
    return 0


def _add_kernel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True, help="fractional order in (0,1)")
    sub.add_argument("--delta", type=float, required=True, help="kernel offset")
    sub.add_argument("--T", type=float, required=True, help="horizon")
    sub.add_argument("--K", type=int, default=None, help="last interval index")
    sub.add_argument("--J", type=int, default=None, help="nodes per interval")
    sub.add_argument("--eps", type=float, default=None,
                     help="target relative tolerance (alternative to --K/--J)")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True, help="fractional order in (0,1)")
    sub.add_argument("--T", type=float, required=True, help="horizon")
    sub.add_argument("--h", type=float, required=True, help="step size")
    sub.add_argument("--eps", type=float, default=1e-10, help="kernel tolerance")
    sub.add_argument("--newton-tol", type=float, default=1e-12)
    sub.add_argument("--newton-max-iter", type=int, default=25)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsum",
        description="Exponential-sum kernel compression and fractional-ODE runs",
    )
    parser.add_argument("--version", action="version", version=f"fracsum {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("compress", help="write the compressed-kernel term table")
    _add_kernel_flags(sub)
    sub.add_argument("--output", "-o", required=True)
    sub.set_defaults(func=_cmd_compress)

    sub = commands.add_parser("scan", help="relative-error scan of the compressed kernel")
    _add_kernel_flags(sub)
    sub.add_argument("--output", "-o", required=True)
    sub.set_defaults(func=_cmd_scan)

    sub = commands.add_parser("solve-mlf", help="linear Caputo problem with exact reference")
    _add_solver_flags(sub)
    sub.add_argument("--lambda-re", type=float, default=-1.0)
    sub.add_argument("--lambda-im", type=float, default=0.0)
    sub.add_argument("--output", "-o", required=True)
    sub.set_defaults(func=_cmd_solve_mlf)

    sub = commands.add_parser("solve-vdp", help="fractional Van der Pol run with "
                                                "h vs h/2 self-convergence report")
    _add_solver_flags(sub)
    sub.add_argument("--mu", type=float, default=4.0)
    sub.add_argument("--x0", type=float, default=2.0)
    sub.add_argument("--y0", type=float, default=0.0)
    sub.add_argument("--output", "-o", required=True)
    sub.set_defaults(func=_cmd_solve_vdp)

    sub = commands.add_parser("sweep", help="grid of scans over delta, K, J")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--T", type=float, required=True)
    sub.add_argument("--delta-values", required=True,
                     help="comma-separated offsets, e.g. 1e-2,1e-4")
    sub.add_argument("--K-values", required=True,
                     help="comma list and/or lo:hi ranges, e.g. 0:24")
    sub.add_argument("--J-values", required=True, help="same syntax as --K-values")
    sub.add_argument("--output", "-o", required=True)
    sub.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return code if isinstance(code, int) else _USAGE_EXIT
    try:
        return args.func(args)
    except SystemExit as exit_request:
        code = exit_request.code
        return code if isinstance(code, int) else _USAGE_EXIT
    except InfeasibleToleranceError as err:
        print(f"error: {err}", file=sys.stderr)
        return _INFEASIBLE_EXIT
    except StepFailureError as err:
        where = "" if err.step_index is None else f" (step {err.step_index})"
        print(f"error: solver failure{where}: {err}", file=sys.stderr)
        return _SOLVER_EXIT
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
