"""The benchmark's four workloads: hodnet CLI invocations, their work items,
their set-up, and the checks applied to their outputs.

Each workload stresses one hot layer (see README.md).  Inputs are fixed;
the seed only orders the invocations inside a round and picks the digit
rows that gen's independent point check recomputes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Invocation:
    label: str
    args: tuple[str, ...]  # arguments of the hodnet CLI
    items: int  # work items fixed by the input (see README.md)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    # (base, dims, m, order) of every matrix set the workload builds; set-up
    # time is import plus these builds in a fresh interpreter.
    builds: tuple[tuple[int, int, int, int], ...]
    # Check metrics of one round, from label -> primary output text.
    check: Callable[[dict[str, str], random.Random], dict]


# -- converge ----------------------------------------------------------------


@dataclass(frozen=True)
class ConvergeRun:
    base: int
    alpha: int
    dims: int
    m_min: int
    m_max: int

    @property
    def key(self) -> str:
        return f"b{self.base}_a{self.alpha}_s{self.dims}"

    @property
    def items(self) -> int:
        """Kernel pair evaluations: sum over rows of N**2 * s."""
        return sum(self.base ** (2 * m) * self.dims for m in range(self.m_min, self.m_max + 1))

    def invocation(self) -> Invocation:
        return Invocation(self.key, (
            "converge", "--base", str(self.base), "--alpha", str(self.alpha),
            "--dims", str(self.dims), "--m-range", f"{self.m_min}:{self.m_max}",
            "--work-limit", "1000000000", "--threads", "1",
        ), self.items)


# s = 1 and s > 1 take different paths through the tensor-product kernel.
CONVERGE_RUNS = (ConvergeRun(2, 3, 1, 1, 13), ConvergeRun(2, 2, 2, 1, 12))


# The exact oracle (kernel.wce_squared_exact) is timed on this prefix.
ORACLE_RUN, ORACLE_M = CONVERGE_RUNS[0], 6


def converge_refs() -> dict[str, list[dict]]:
    """Committed exact rows per converge run: m, e2 as 'p/q', e."""
    return json.loads((DATA / "converge_refs.json").read_text())["runs"]


def _check_converge(outputs: dict[str, str], rng: random.Random) -> dict:
    refs = converge_refs()
    total = {"wce_zero_rows": 0, "wce_rows_off": 0, "wce_rel_err_max": 0.0}
    for run in CONVERGE_RUNS:
        exact = {row["m"]: Fraction(row["e2"]) for row in refs[run.key]}
        got = checks.check_converge(outputs[run.key], run.m_min, run.m_max, exact)
        for name, value in got.items():
            total[name] = max(total[name], value) if name.endswith("_max") else total[name] + value
    return total


# -- gen -----------------------------------------------------------------------

GEN_NET = dict(base=2, dims=4, m=16, order=3)
# Digit rows recomputed independently from the generating matrices per check.
GEN_SAMPLE_ROWS = 32


def _gen_invocation(fmt: str) -> Invocation:
    net = GEN_NET
    return Invocation(fmt, (
        "gen", "--base", str(net["base"]), "--dims", str(net["dims"]),
        "--m", str(net["m"]), "--order", str(net["order"]), "--format", fmt,
    ), net["base"] ** net["m"] * net["dims"])


def _check_gen(outputs: dict[str, str], rng: random.Random) -> dict:
    from hodnet.matrices import build_matrices

    net = GEN_NET
    ms = build_matrices(net["base"], net["dims"], net["m"], order=net["order"])
    rows = rng.sample(range(net["base"] ** net["m"]), GEN_SAMPLE_ROWS)
    got = checks.check_gen(outputs["csv"], outputs["digits"], net["base"])
    got["digits_rows_wrong"] = checks.check_digit_rows(outputs["digits"], ms.matrices, rows)
    return got


# -- verify --------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyCase:
    label: str
    args: tuple[str, ...]
    expected: str
    why: str

    @property
    def build(self) -> tuple[int, int, int, int] | None:
        """The matrix set the case builds; None when it loads a file."""
        opts = dict(zip(self.args[::2], self.args[1::2]))
        if "--matrices" in opts:
            return None
        return tuple(int(opts[k]) for k in ("--base", "--dims", "--m", "--order"))


VERIFY_CASES = (
    VerifyCase("s4_m14", ("--base", "2", "--dims", "4", "--order", "1", "--m", "14"),
               "certified", "order-1 Niederreiter net; its t-value bound is a theorem"),
    VerifyCase("s4_m18", ("--base", "2", "--dims", "4", "--order", "1", "--m", "18",
                          "--rho-cap", "0"),
               "certified", "same sequence, larger m; no dual-weight search"),
    VerifyCase("order3_alpha1", ("--base", "2", "--dims", "2", "--order", "3", "--alpha", "1",
                                 "--m", "8", "--rho-cap", "0"),
               "certified", "an order-3 net with t=30 is an order-1 net with t=ceil(30/3)"),
    VerifyCase("order2", ("--base", "2", "--dims", "2", "--order", "2", "--m", "10",
                          "--rho-cap", "0"),
               "certified", "order-2 interlaced net at its construction bound"),
    VerifyCase("dup_rows", ("--matrices", str(DATA / "dup_rows.mat"), "--base", "2",
                            "--dims", "2", "--order", "1", "--m", "6", "--t", "0",
                            "--rho-cap", "0"),
               "refuted", "two equal rows in one generating matrix are dependent"),
)


def known_wrong_verdicts() -> set[str]:
    """Labels of the verify cases that the code already got wrong when the
    benchmark was written (data/known_defects.json)."""
    return set(json.loads((DATA / "known_defects.json").read_text())["known_wrong_verdicts"])


def _check_verify(outputs: dict[str, str], rng: random.Random) -> dict:
    wrong = {c.label for c in VERIFY_CASES if checks.check_verdict(outputs[c.label], c.expected)}
    return {"verdict_wrong": len(wrong), "verdict_wrong_unlisted": len(wrong - known_wrong_verdicts())}


# -- walsh ---------------------------------------------------------------------

WALSH = dict(base=3, alpha=1, kmax=243)


def _check_walsh(outputs: dict[str, str], rng: random.Random) -> dict:
    return checks.check_walsh(outputs["walsh"], WALSH["base"], WALSH["alpha"], WALSH["kmax"])


WORKLOADS = {
    "converge": Workload(
        "converge",
        tuple(run.invocation() for run in CONVERGE_RUNS),
        tuple((r.base, r.dims, r.m_max, 2 * r.alpha + 1) for r in CONVERGE_RUNS),
        _check_converge,
    ),
    "gen": Workload(
        "gen",
        (_gen_invocation("csv"), _gen_invocation("digits")),
        ((GEN_NET["base"], GEN_NET["dims"], GEN_NET["m"], GEN_NET["order"]),),
        _check_gen,
    ),
    "verify": Workload(
        "verify",
        tuple(Invocation(c.label, ("verify",) + c.args, 1) for c in VERIFY_CASES),
        tuple(c.build for c in VERIFY_CASES if c.build),
        _check_verify,
    ),
    "walsh": Workload(
        "walsh",
        (Invocation("walsh", (
            "walsh", "--base", str(WALSH["base"]), "--alpha", str(WALSH["alpha"]),
            "--kmax", str(WALSH["kmax"]),
        ), WALSH["kmax"] ** 2),),
        (),
        _check_walsh,
    ),
}

# Check metrics, their units and the workload each applies to.
CHECKS = {
    "failed_frac": ("ratio", None),
    "rerun_diff_frac": ("ratio", None),
    "rerun_diff_frac_no_elapsed": ("ratio", None),
    "csv_mismatch_frac": ("ratio", "gen"),
    "csv_misrounded": ("count", "gen"),
    "digits_rows_wrong": ("count", "gen"),
    "wce_rel_err_max": ("ratio", "converge"),
    "wce_zero_rows": ("count", "converge"),
    "wce_rows_off": ("count", "converge"),
    "verdict_wrong": ("count", "verify"),
    "verdict_wrong_unlisted": ("count", "verify"),
    "walsh_check_fail": ("count", "walsh"),
    "walsh_value_wrong": ("count", "walsh"),
}
