"""Command-line interface tying construction, generation, certification,
Walsh analysis and convergence experiments together.

Subcommands: gen, verify, dual, wce, walsh, converge.  Exit codes: 0 on
success, 2 on usage errors, 3 on resource-limit errors, 4 on numerical
consistency failures.  Every CSV starts with '#' comment lines echoing the
full configuration and the artifact version, and reruns with an identical
configuration produce byte-identical output; the one exception is the
``elapsed_ms`` field of the verify report.

``wce`` is a one-row ``converge``: it runs the same experiment at m_min =
m_max = m and prints the columns b,s,alpha,order_d,m,N,e,log_b_e.  For
s <= 2 both sum the kernel exactly over the points' integer numerators and
print e correctly rounded from the exact e**2; for s >= 3 they run the
binary64 block kernel, the only path that ``--threads`` applies to.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass

from . import __version__
from .errors import NumericalConsistencyError, ResourceLimitError, UsageError
from .gf import is_prime
from .kernel import KernelSpec, sqrt_rounded, wce, wce_squared_sorted
from .matrices import (
    GeneratingMatrixSet,
    build_matrices,
    load_matrix_set,
    t_value_bound,
)
from .points import (
    _digits_to_int,
    format_points_csv,
    format_points_digits,
    net_digits,
    net_values,
)
from .quality import (
    DEFAULT_WORK_LIMIT,
    certify_net,
    dick_weight,
    dual_indices,
    min_dual_weight,
    propagated_t,
)
from .walsh import iter_kernel_coeffs

_CONSTRUCTIONS = ("niederreiter", "interlaced-niederreiter")


@dataclass
class ExperimentConfig:
    """Reproducible configuration of a convergence experiment."""

    base: int = 2
    alpha: int = 1
    order: int | None = None  # None means the prescription 2*alpha + 1
    dims: int = 1
    m_min: int = 1
    m_max: int = 8
    construction: str = "interlaced-niederreiter"
    out: str | None = None
    work_limit: int = DEFAULT_WORK_LIMIT
    threads: int = 1

    def __post_init__(self) -> None:
        if self.m_min > self.m_max:
            raise UsageError("m_min must not exceed m_max")
        if self.m_min < 1:
            raise UsageError("m_min must be positive")
        if self.alpha < 1 or self.base < 2 or self.dims < 1:
            raise UsageError("base, alpha and dims must be positive")
        if self.order is not None and self.order < 1:
            raise UsageError("order must be positive")
        if self.construction not in _CONSTRUCTIONS:
            raise UsageError(f"unknown construction {self.construction!r}")
        if self.threads < 1:
            raise UsageError("threads must be positive")

    @property
    def effective_order(self) -> int:
        if self.construction == "niederreiter":
            return 1
        return self.order if self.order is not None else 2 * self.alpha + 1

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise UsageError("config must be a JSON object")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            if value is None and defaults[name] is None:
                continue
            kind = str if name in ("construction", "out") else int
            # type() rather than isinstance(): JSON true is not an int here.
            if type(value) is not kind:
                raise UsageError(
                    f"config field {name!r} must be {kind.__name__}, got {value!r}"
                )
        return cls(**data)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["order"] = self.effective_order
        # The destination is not part of the experiment; identical
        # configurations must yield byte-identical rows wherever written.
        d.pop("out")
        return d


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    n_points: int
    e: float
    log_b_e: float
    normalized: float


def _convergence_work(cfg: ExperimentConfig, n: int) -> int:
    """Price of one row of N = n points, by the path that computes it.

    The exact path (s <= 2) sorts and sums (2 alpha)**s columns over
    N * ceil(log2 N)**(s-1) point-level entries; the binary64 block kernel
    evaluates n * n * dims kernel factors.
    """
    if cfg.dims <= 2:
        return n * (n - 1).bit_length() ** (cfg.dims - 1) * (2 * cfg.alpha) ** cfg.dims
    return n * n * cfg.dims


def run_convergence(cfg: ExperimentConfig) -> list[ConvergenceRow]:
    """Worst-case errors of the configured sequence for each m in range.

    The matrix set is built once at m_max columns (and order * m_max rows),
    so each row's point set is an exact prefix of the next row's.  Up to two
    dimensions e is exact, correctly rounded; beyond, binary64.
    """
    d = cfg.effective_order
    ms = build_matrices(cfg.base, cfg.dims, cfg.m_max, order=d)
    spec = KernelSpec(cfg.alpha, cfg.dims)
    rows: list[ConvergenceRow] = []
    for m in range(cfg.m_min, cfg.m_max + 1):
        n = cfg.base**m
        work = _convergence_work(cfg, n)
        if work > cfg.work_limit:
            raise ResourceLimitError(
                f"worst-case error at m={m} needs {work} units of work, "
                f"limit is {cfg.work_limit}"
            )
        if cfg.dims <= 2:
            nums = _digits_to_int(net_digits(ms, m), ms.base)
            e = sqrt_rounded(wce_squared_sorted(spec, nums, ms.base**ms.rows))
        else:
            e = wce(spec, net_values(ms, m), threads=cfg.threads)
        log_e = math.log(e, cfg.base) if e > 0 else float("-inf")
        normalized = (
            e * float(cfg.base) ** (cfg.alpha * m) / m ** ((cfg.dims - 1) / 2)
        )
        rows.append(ConvergenceRow(m, n, e, log_e, normalized))
    return rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrices_from_args(args) -> GeneratingMatrixSet:
    if getattr(args, "matrices", None):
        ms = load_matrix_set(args.matrices)
        if ms.cols < args.m:
            raise UsageError(
                f"matrix file provides {ms.cols} columns, need {args.m}"
            )
        # The net of b**m points reads only the first m columns; the dual
        # analysis must not see the others.
        mats = [mat[:, : args.m] for mat in ms.matrices]
        return GeneratingMatrixSet(ms.base, mats, ms.provenance)
    return build_matrices(args.base, args.dims, args.m, order=args.order)


def _cmd_gen(args) -> int:
    ms = _matrices_from_args(args)
    if args.format == "csv":
        text = format_points_csv(ms, args.m)
    else:
        text = format_points_digits(ms, args.m)
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    ms = _matrices_from_args(args)
    alpha = args.alpha if args.alpha is not None else args.order
    t = args.t
    if t is None and args.matrices:
        raise UsageError(
            "a matrix file carries no construction bound to default t from; give --t"
        )
    if t is None:
        # An order-d net with parameter t_d is an order-alpha net with
        # ceil(t_d * alpha / d) for alpha <= d; beyond d no bound follows.
        if alpha > args.order:
            raise UsageError(
                f"alpha={alpha} exceeds the interlacing order d={args.order}; "
                "give --t"
            )
        t = propagated_t(t_value_bound(args.base, args.order, args.dims),
                         args.order, alpha)
    cert = certify_net(ms, alpha, t, work_limit=args.work_limit)
    report = cert.as_dict()
    rho_cap = args.rho_cap if args.rho_cap is not None else alpha * args.m + 2
    rho = min_dual_weight(ms, alpha, rho_cap, work_limit=args.work_limit)
    if rho is not None:
        report["rho_alpha"] = rho
        if rho > alpha * args.m:
            # The classical upper bound does not cover every degenerate net;
            # report the observation rather than failing.
            report["rho_alpha_note"] = (
                f"rho_alpha={rho} exceeds alpha*m={alpha * args.m}"
            )
    else:
        report["rho_alpha"] = None
        report["rho_alpha_note"] = f"exceeds search cap {rho_cap}"
    report["elapsed_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_dual(args) -> int:
    if args.alpha < 1:
        raise UsageError("alpha must be positive")
    ms = _matrices_from_args(args)
    duals = dual_indices(ms, args.mu1_max, work_limit=args.work_limit)
    # A matrix file fixes b, s and d; the flags describe only a built net.
    lines = [
        f"# hodnet dual v{__version__} b={ms.base} s={ms.dims} m={args.m} "
        f"d={ms.provenance.interlace_factor} mu1_max={args.mu1_max} "
        f"alpha={args.alpha}"
    ]
    header = ",".join(f"k{j + 1}" for j in range(ms.dims))
    lines.append(f"{header},mu1,mu_alpha")
    for dv in duals:
        comps = ",".join(str(c) for c in dv)
        mu1 = dick_weight(ms.base, 1, dv)
        mu_alpha = dick_weight(ms.base, args.alpha, dv)
        lines.append(f"{comps},{mu1},{mu_alpha}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_wce(args) -> int:
    cfg = ExperimentConfig(
        base=args.base,
        alpha=args.alpha,
        order=args.order,
        dims=args.dims,
        m_min=args.m,
        m_max=args.m,
        work_limit=args.work_limit,
        threads=args.threads,
    )
    (row,) = run_convergence(cfg)
    lines = [
        f"# hodnet wce v{__version__}",
        "b,s,alpha,order_d,m,N,e,log_b_e",
        f"{cfg.base},{cfg.dims},{cfg.alpha},{cfg.effective_order},{row.m},"
        f"{row.n_points},{row.e!r},{row.log_b_e!r}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_walsh(args) -> int:
    base, alpha = args.base, args.alpha
    if not is_prime(base):
        raise UsageError(f"base must be prime, got {base}")
    mu1 = [dick_weight(base, 1, k) for k in range(args.kmax)]
    mu_alpha = [dick_weight(base, alpha, k) for k in range(args.kmax)]
    lines = [
        f"# hodnet walsh v{__version__} b={base} alpha={alpha} kmax={args.kmax}",
        "k,l,p,q,mu1_k,mu1_l,mu_alpha_k,mu_alpha_l,re,im,is_exact_zero",
    ]
    for k, l, (p, q), value in iter_kernel_coeffs(base, alpha, args.kmax):
        z = value.to_complex()
        lines.append(
            f"{k},{l},{p},{q},{mu1[k]},{mu1[l]},{mu_alpha[k]},{mu_alpha[l]},"
            f"{z.real:.17g},{z.imag:.17g},{int(value.is_zero())}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_converge(args) -> int:
    # Every given flag reaches ExperimentConfig, which validates it; absent
    # flags keep the config file's value or the dataclass default.
    overrides = {
        name: getattr(args, name)
        for name in ("base", "alpha", "order", "dims", "threads", "work_limit", "out")
        if getattr(args, name) is not None
    }
    if args.m_range is not None:
        overrides["m_min"], overrides["m_max"] = _parse_m_range(args.m_range)
    if args.config:
        cfg = dataclasses.replace(ExperimentConfig.from_json(args.config), **overrides)
    else:
        cfg = ExperimentConfig(**overrides)
    rows = run_convergence(cfg)
    echo = json.dumps(cfg.as_dict(), sort_keys=True)
    lines = [
        f"# hodnet converge v{__version__}",
        f"# config: {echo}",
        "m,N,e,log_b_e,normalized",
    ]
    for r in rows:
        lines.append(f"{r.m},{r.n_points},{r.e!r},{r.log_b_e!r},{r.normalized!r}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _parse_m_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"--m-range expects lo:hi, got {text!r}") from exc


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub, *, order_default=1, with_m=True) -> None:
    sub.add_argument("--base", type=int, default=2, help="prime base b")
    sub.add_argument("--dims", type=int, default=1, help="dimensions s")
    if with_m:
        sub.add_argument("--m", type=int, required=True, help="digits: N = b**m")
    sub.add_argument(
        "--order", type=int, default=order_default, help="interlacing order d"
    )
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument(
        "--work-limit",
        type=int,
        dest="work_limit",
        default=DEFAULT_WORK_LIMIT,
        help="enumeration and evaluation work limit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodnet",
        description="Higher-order digital sequences: generate, certify, analyze.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="emit points of a digital net")
    _add_common(gen)
    gen.add_argument("--matrices", help="read explicit matrices from file")
    gen.add_argument("--format", choices=("csv", "digits"), default="csv")
    gen.set_defaults(func=_cmd_gen)

    verify = subs.add_parser("verify", help="certify the order-alpha net property")
    _add_common(verify)
    verify.add_argument("--matrices", help="read explicit matrices from file")
    verify.add_argument(
        "--alpha", type=int, default=None,
        help="certification order (default: the interlacing order)",
    )
    verify.add_argument(
        "--t", type=int, default=None,
        help="quality parameter (default: the order-d construction bound "
        "propagated to alpha; required when alpha exceeds d or with --matrices)",
    )
    verify.add_argument(
        "--rho-cap", type=int, dest="rho_cap", default=None,
        help="cap on the minimum dual weight: rho_alpha is reported when it "
        "is at most the cap and null otherwise (default alpha*m + 2)",
    )
    verify.set_defaults(func=_cmd_verify)

    dual = subs.add_parser("dual", help="enumerate the truncated dual net")
    _add_common(dual)
    dual.add_argument("--matrices", help="read explicit matrices from file")
    dual.add_argument("--mu1-max", type=int, dest="mu1_max", required=True)
    dual.add_argument("--alpha", type=int, default=1)
    dual.set_defaults(func=_cmd_dual)

    wce_p = subs.add_parser("wce", help="single worst-case error")
    _add_common(wce_p, order_default=None)
    wce_p.add_argument("--alpha", type=int, default=1)
    wce_p.add_argument(
        "--threads", type=int, default=1,
        help="threads of the binary64 kernel (dims >= 3 only)",
    )
    wce_p.set_defaults(func=_cmd_wce)

    walsh_p = subs.add_parser("walsh", help="exact kernel Walsh coefficients")
    walsh_p.add_argument("--base", type=int, default=2)
    walsh_p.add_argument("--alpha", type=int, default=1)
    walsh_p.add_argument("--kmax", type=int, required=True, help="scan k,l < kmax")
    walsh_p.add_argument("--out")
    walsh_p.set_defaults(func=_cmd_walsh)

    conv = subs.add_parser("converge", help="full convergence experiment")
    conv.add_argument("--config", help="JSON config path")
    conv.add_argument("--base", type=int)
    conv.add_argument("--alpha", type=int)
    conv.add_argument("--order", type=int)
    conv.add_argument("--dims", type=int)
    conv.add_argument("--m-range", dest="m_range", help="lo:hi")
    conv.add_argument("--out")
    conv.add_argument(
        "--threads", type=int, help="threads of the binary64 kernel (dims >= 3 only)"
    )
    conv.add_argument("--work-limit", type=int, dest="work_limit")
    conv.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NumericalConsistencyError as exc:
        print(f"numerical consistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
