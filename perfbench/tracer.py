"""Child-process entry points: set-up probe, traced CLI invocation, oracle timing.

    python3 perfbench/tracer.py setup BUILDS_JSON
        Time `import hodnet.cli` plus build_matrices for each (base, dims,
        m, order) in BUILDS_JSON; print the seconds.
    python3 perfbench/tracer.py trace OUT_JSON ARG...
        Run hodnet.cli.main(ARG...) with span and counter wrappers around
        the package's public functions; write the spans and counters to
        OUT_JSON when the invocation ends.
    python3 perfbench/tracer.py oracle OUT_JSON ALPHA DIMS M_MAX M
        Time wce_squared_exact on the first 2**M points of a converge net.

The wrappers are installed from here; nothing in the package is edited.
Modules bind names with `from .x import y`, so each wrapper replaces every
module-level binding of the original function, where the caller looks it
up (for example hodnet.cli.wce and hodnet.cyclotomic.is_prime).

Each wrapper is one of three kinds:
* span: a record (name, parent, start, end) per call, for coarse calls;
* timed: total time and calls only, for calls too frequent to record one
  by one; the time still counts as covered by the enclosing span;
* counted: calls only.
A span's self time is its duration minus the time its child spans and
timed calls cover.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, metric name, kind); WORK below adds work counters.
WRAPPED = (
    ("hodnet.cli", "_cmd_converge", "cli.converge", "span"),
    ("hodnet.cli", "_cmd_gen", "cli.gen", "span"),
    ("hodnet.cli", "_cmd_verify", "cli.verify", "span"),
    ("hodnet.cli", "_cmd_walsh", "cli.walsh", "span"),
    ("hodnet.matrices", "build_matrices", "matrices.build_matrices", "span"),
    ("hodnet.matrices", "load_matrix_set", "matrices.load_matrix_set", "span"),
    ("hodnet.matrices", "t_value_bound", "matrices.t_value_bound", "span"),
    ("hodnet.points", "net_digits", "points.net_digits", "span"),
    ("hodnet.points", "net_values", "points.net_values", "span"),
    ("hodnet.points", "format_points_csv", "points.format_points_csv", "span"),
    ("hodnet.points", "format_points_digits", "points.format_points_digits", "span"),
    ("hodnet.kernel", "wce", "kernel.wce", "span"),
    ("hodnet.quality", "certify_net", "quality.certify_net", "span"),
    ("hodnet.quality", "min_dual_weight", "quality.min_dual_weight", "span"),
    ("hodnet.quality", "dick_weight", "quality.dick_weight", "counted"),
    ("hodnet.walsh", "iter_kernel_coeffs", "walsh.iter_kernel_coeffs", "generator"),
    ("hodnet.walsh", "bernoulli_walsh_coeff", "walsh.bernoulli_walsh_coeff", "span"),
    ("hodnet.gf", "is_prime", "gf.is_prime", "counted"),
)


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, parent index, start, end, covered]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter() - self.t0, None, 0.0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter() - self.t0
        self.stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    def span(self, name: str, fn, work=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.add(name + ".calls")
            if work is not None:
                work(self, args, result)
            return result

        return wrapper

    def generator(self, name: str, fn):
        # The span runs from the first next() to exhaustion, so it includes
        # whatever the consumer does between items.
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                for item in fn(*args, **kwargs):
                    self.add(name + ".items")
                    yield item
            finally:
                self.close(idx)

        return wrapper

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self.add(name + ".s", dt)
                self.add(name + ".calls")
                if self.stack:
                    self.spans[self.stack[-1]][4] += dt

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.add(name + ".calls")
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, fh)


def _wce_work(tr: Tracer, args, result) -> None:
    n, dims = args[1].shape
    tr.add("kernel.wce.pair_evals", n * n * dims)


def _values_work(tr: Tracer, args, result) -> None:
    ms, m = args[0], args[1]
    tr.add("points.values", ms.base**m * ms.dims)


def _digits_work(tr: Tracer, args, result) -> None:
    tr.peak("points.net_digits.bytes", result.nbytes)


WORK = {
    "kernel.wce": _wce_work,
    "points.net_values": _values_work,
    "points.format_points_csv": _values_work,
    "points.format_points_digits": _values_work,
    "points.net_digits": _digits_work,
}


def install(tr: Tracer) -> None:
    """Replace every binding of each wrapped function across hodnet modules."""
    import importlib

    from hodnet.cyclotomic import Cyclotomic

    modules = [m for k, m in sys.modules.items() if k == "hodnet" or k.startswith("hodnet.")]
    for mod_name, attr, name, kind in WRAPPED:
        orig = getattr(importlib.import_module(mod_name), attr)
        if kind == "span":
            new = tr.span(name, orig, WORK.get(name))
        else:
            new = getattr(tr, kind)(name, orig)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, new)
    Cyclotomic.__init__ = tr.counted("cyclotomic.Cyclotomic.new", Cyclotomic.__init__)
    Cyclotomic.to_complex = tr.timed("cyclotomic.to_complex", Cyclotomic.to_complex)


def setup_main(builds_json: str) -> int:
    t0 = time.perf_counter()
    import hodnet.cli  # noqa: F401
    from hodnet.matrices import build_matrices

    for base, dims, m, order in json.loads(builds_json):
        build_matrices(base, dims, m, order=order)
    print(repr(time.perf_counter() - t0))
    return 0


def trace_main(out: str, argv: list[str]) -> int:
    tr = Tracer()
    idx = tr.open("import")
    import hodnet.cli

    tr.close(idx)
    install(tr)
    idx = tr.open("cli.main")
    rc = 1
    try:
        rc = hodnet.cli.main(argv)
    finally:
        tr.close(idx)
        sys.stdout.flush()
        tr.dump(out, rc=rc)
    return rc


def oracle_main(out: str, alpha: str, dims: str, m_max: str, m: str) -> int:
    from hodnet.kernel import KernelSpec, wce_squared_exact
    from hodnet.matrices import build_matrices
    from hodnet.points import net_points

    alpha, dims, m_max, m = int(alpha), int(dims), int(m_max), int(m)
    ms = build_matrices(2, dims, m_max, order=2 * alpha + 1)
    points = net_points(ms, m)
    t0 = time.perf_counter()
    e2 = wce_squared_exact(KernelSpec(alpha, dims), points)
    elapsed = time.perf_counter() - t0
    with open(out, "w") as fh:
        json.dump({"s": elapsed, "e2": f"{e2.numerator}/{e2.denominator}"}, fh)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup_main(*rest))
    if mode == "trace":
        sys.exit(trace_main(rest[0], rest[1:]))
    if mode == "oracle":
        sys.exit(oracle_main(*rest))
    sys.exit(f"unknown mode {mode!r}")
