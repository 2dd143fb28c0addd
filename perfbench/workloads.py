"""The four workloads: which CLI commands each runs, and why.

A pass is the ordered list of commands a workload repeats; a run repeats
whole passes while another one fits in the run's seconds (at least one).
Each workload names the layer it loads and the one it bypasses:

* ``cold-tables``: fresh ``cvphase`` processes, so interpreter start and
  ``import cvphase`` dominate (in-process compute is ~15 ms of ~0.8 s).  A
  lazy scipy import would move three of the four commands; ``gap`` still
  integrates, so it shows a cost that is moved, not removed.
* ``mc-trials``: warm ``dj`` (3 x 10^6 Bernoulli trials) and ``estimate``
  (2000 replicas of 100 shots); the Monte-Carlo layer does nearly all the
  work and the grid and quadrature engines never run in the measured
  process.  ``dj`` shows a cost paid per trial, ``estimate`` one paid per
  replica.
* ``engine-sweep``: warm ``crosscheck`` and ``fisher-phi --fig4 --engine
  all`` at N = 4096: many phases per (params, N), so work shared across
  phases would show here.  The grid engine dominates, quadrature second.
* ``grid-fine``: warm ``crosscheck`` at N = 2^18 and 2^20 with few phases
  per grid; each array is 4-16 MiB, past L2, so bytes moved and allocation
  set the time, and a per-(N, T) cache would show its cost here.

Within a pass one command is repeated so that the median invocation lies
inside one cluster of invocation times rather than on the gap between two;
in ``engine-sweep`` that is the longer command, whose median moves less
with bursts of machine noise than that of a 65 ms call.  A traced pass
holds each command once, and runs it untraced and then traced, so the
per-call means of the traced layers sit next to a median over the same mix
of commands.

The workload seed reaches the program only as ``--seed`` of ``dj`` and
``estimate``; the other commands take no random input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from checks import BIG_P

_HALF_PI = repr(math.pi / 2.0)


@dataclass(frozen=True)
class Command:
    label: str
    kind: str  # which output check applies
    argv: tuple[str, ...]
    rows: int  # table rows the command must print
    work: float  # units of work credited when the call passes its checks


@dataclass(frozen=True)
class Workload:
    name: str
    cold: bool  # fresh process per command (True) or warm cli.main calls
    work_unit: str
    pass_: tuple[Command, ...]
    trace_pass: tuple[Command, ...]
    # default crosscheck run once per run in its own process, for worst_dev on
    # workloads whose own commands print no crosscheck rows
    reference: bool


def _crosscheck(label: str, argv: tuple[str, ...], rows: int, work: float) -> Command:
    return Command(label, "crosscheck", ("crosscheck",) + argv, rows, work)


REFERENCE = _crosscheck("crosscheck-ref", (), 85, 85.0)


def build(name: str, seed: int) -> Workload:
    if name == "cold-tables":
        tables = (
            Command("audit", "audit", ("audit",), 15, 1.0),
            Command("gap", "gap", ("gap",), 17, 1.0),
            Command("fig4", "fig4", ("fisher-phi", "--fig4"), 165, 1.0),
            Command("fig5", "fig5", ("fisher-r", "--fig5"), 315, 1.0),
        )
        return Workload(name, True, "tables", tables, tables, True)
    if name == "mc-trials":
        dj = Command(
            "dj", "dj", ("dj", "--trials", "1000000", "--seed", str(seed)), 3, 3e6
        )
        est = Command(
            "estimate", "estimate", ("estimate", "--seed", str(seed)), 2001, 100 * 2000.0
        )
        # the dj call sits mid-pass so the estimate samples span the whole run
        return Workload(
            name, False, "trials", (est,) * 10 + (dj,) + (est,) * 10, (dj, est), True
        )
    if name == "engine-sweep":
        cc = _crosscheck("crosscheck", (), 85, 85.0)
        fig4 = Command(
            "fig4-all", "fig4", ("fisher-phi", "--fig4", "--engine", "all"), 165, 165.0
        )
        return Workload(name, False, "rows", (fig4, cc, fig4), (cc, fig4), False)
    if name == "grid-fine":
        n18, n20 = 2**18, 2**20
        cc18 = _crosscheck(
            "crosscheck-2^18",
            ("--grid-n", str(n18), "--r", f"0,{BIG_P / 4.0!r}", "--phi", f"0:{_HALF_PI}:5"),
            10, 10.0 * n18,
        )
        cc20 = _crosscheck(
            "crosscheck-2^20",
            ("--grid-n", str(n20), "--r", "0", "--phi", f"0:{_HALF_PI}:3"),
            3, 3.0 * n20,
        )
        return Workload(name, False, "grid points", (cc18, cc20, cc18), (cc18, cc20), False)
    raise KeyError(name)


NAMES = ("cold-tables", "mc-trials", "engine-sweep", "grid-fine")
