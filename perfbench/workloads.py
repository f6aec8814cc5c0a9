"""The benchmark's four workloads.

Each workload turns a seeded random generator into rounds of tasks.  A
round is a fixed mix of task sizes; the seed sets the order of the tasks
and the details that do not change their cost much (table formats, the n
of a power sum, the query stream of a session).  Every seed therefore
exercises the same layers in the same proportions, and the figures from
different seeds are comparable.  The runner repeats whole rounds until its
time is up.

- tables-cold: `table` over all nine families, each task in a fresh
  process.  The sigma/h prefix DPs behind the r-Stirling, central
  factorial and Legendre-Stirling families do most of the work; zeta is
  never called.
- verify-cold: one `verify --suite all` per fresh process, the sweep users
  run as their gate.  It spreads work over every layer.
- zeta-deep: `zeta --k`, `bernoulli_number(k)` and the Bernoulli-polynomial
  power sums at large k, each in a fresh process.  Fraction-heavy Bernoulli
  and zeta recursions plus Poly arithmetic do the work; symfuncs does none.
- session-warm: one process per session answers a skewed stream of point
  queries with its caches kept, the library user's case.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

# Rows per table task of a round: the cheap families at two sizes and the
# sigma/h families at two sizes chosen so that the six cost about the same
# at each (about 65 ms and 300 ms per cold task on a 2-core Xeon).  Six
# tasks sit below the middle size and six above it, so the median task
# falls in the middle of the sigma/h tasks, and the tail among the largest.
TABLE_ROWS = {
    "stirling1": (32, 64), "stirling2": (32, 64), "bernoulli": (32, 64),
    "ls1": (17, 26), "central_u": (16, 27), "central_v": (16, 25),
    "ls2": (22, 33), "central_U": (22, 33), "central_V": (21, 32),
}
FORMATS = ("plain", "csv", "json")
METHODS = ("brute", "lang-original", "lang-refined", "newton-recurrence",
           "binomial-recurrence", "range-r-stirling", "even-central", "odd-central",
           "odd-bernoulli-poly", "triangular-ls", "triangular-binomial")
# Triangle family -> (public function, parity argument or None).
CELL_FUNCTIONS = {
    "stirling1": ("stirling_first_unsigned", None),
    "stirling2": ("stirling_second", None),
    "ls1": ("legendre_stirling_first", None),
    "ls2": ("legendre_stirling_second", None),
    "central_u": ("central_factorial_first", "EVEN"),
    "central_U": ("central_factorial_second", "EVEN"),
    "central_v": ("central_factorial_first", "ODD"),
    "central_V": ("central_factorial_second", "ODD"),
}

SESSION_QUERIES = 5000
_SESSION_K_MAX, _SESSION_N_MAX = 16, 40
_SESSION_ZETA_K_MAX, _SESSION_BERNOULLI_MAX = 32, 64


@dataclass(frozen=True)
class Task:
    """One task: a CLI invocation, a library query, or a warm session."""

    kind: str  # table | verify | zeta | powersum | bernoulli | session
    args: tuple

    def argv(self) -> list[str] | None:
        """The CLI arguments, or None when the task is not a CLI call."""
        if self.kind == "table":
            family, rows, fmt = self.args
            return ["table", "--family", family, "--rows", str(rows), "--format", fmt]
        if self.kind == "verify":
            return ["verify", "--suite", "all"]
        if self.kind == "zeta":
            return ["zeta", "--k", str(self.args[0])]
        if self.kind == "powersum":
            method, k, n = self.args
            return ["powersum", "--k", str(k), "--n", str(n), "--method", method]
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple[str, ...]  # layers whose spans a traced run must show
    make_round: Callable[[random.Random], list[Task]]
    ref_rows: int  # triangle rows and Bernoulli indices the oracle needs
    ref_bernoulli: int
    session: bool = False


def _tables_round(rng: random.Random) -> list[Task]:
    tasks = [Task("table", (family, rows, rng.choice(FORMATS)))
             for family, sizes in TABLE_ROWS.items() for rows in sizes]
    rng.shuffle(tasks)
    return tasks


def _verify_round(rng: random.Random) -> list[Task]:
    return [Task("verify", ())]


def _zeta_round(rng: random.Random) -> list[Task]:
    # Three cheap, three middle and three dear tasks (about 50, 95 and 280 ms
    # cold on a 2-core Xeon), so the median falls among the middle three.
    tasks = [Task("zeta", (k,)) for k in (75, 115)]
    tasks += [Task("bernoulli", (k,)) for k in (150, 190, 290)]
    tasks += [Task("powersum", (method, k, rng.randint(45, 55)))
              for method in ("odd-bernoulli-poly", "triangular-binomial") for k in (32, 52)]
    rng.shuffle(tasks)
    return tasks


def _session_round(rng: random.Random) -> list[Task]:
    return [Task("session", (rng.getrandbits(63), SESSION_QUERIES))]


WORKLOADS = {wl.name: wl for wl in (
    Workload("tables-cold", ("cli", "combinatorics", "symfuncs", "sequences"),
             _tables_round, ref_rows=64, ref_bernoulli=64),
    Workload("verify-cold", ("cli", "verify", "powersums", "combinatorics", "zeta",
                             "symfuncs", "sequences", "exact"),
             _verify_round, ref_rows=0, ref_bernoulli=0),
    Workload("zeta-deep", ("cli", "zeta", "combinatorics", "powersums", "exact"),
             _zeta_round, ref_rows=0, ref_bernoulli=294),
    Workload("session-warm", ("powersums", "combinatorics", "zeta", "symfuncs",
                              "sequences", "exact"),
             _session_round, ref_rows=_SESSION_N_MAX,
             ref_bernoulli=2 * _SESSION_ZETA_K_MAX, session=True),
)}


def rounds(workload: Workload, seed: int):
    """The endless, seed-determined sequence of rounds of a workload."""
    rng = random.Random(seed)
    while True:
        yield workload.make_round(rng)


# -- warm-session query stream -------------------------------------------------

@lru_cache(maxsize=None)
def _cum_weights(size: int) -> list[float]:
    return list(itertools.accumulate(1 / (i + 1) for i in range(size)))


def _skewed(rng: random.Random, lo: int, hi: int) -> int:
    """lo..hi with P(v) proportional to 1 / (v - lo + 1): small sizes are
    asked for most, as users ask for them most."""
    return lo + rng.choices(range(hi - lo + 1), cum_weights=_cum_weights(hi - lo + 1))[0]


_QUERY_KINDS = ([("compute", m) for m in METHODS] + [("zeta", None), ("bernoulli", None)]
                + [("cell", family) for family in CELL_FUNCTIONS])


def draw_query(rng: random.Random, pk) -> tuple[str, str, tuple]:
    """(oracle kind, powersumkit function name, arguments) of one query."""
    kind, which = rng.choice(_QUERY_KINDS)
    if kind == "compute":
        k = _skewed(rng, 1, _SESSION_K_MAX)
        n = _skewed(rng, 1, _SESSION_N_MAX)
        r = _skewed(rng, 1, n) if which in ("brute", "range-r-stirling") else 1
        return "compute", "compute", (pk.Method(which), k, n, r)
    if kind == "zeta":
        return "zeta", "zeta_even_exact", (_skewed(rng, 1, _SESSION_ZETA_K_MAX),)
    if kind == "bernoulli":
        return "bernoulli", "bernoulli_number", (_skewed(rng, 0, _SESSION_BERNOULLI_MAX),)
    n = _skewed(rng, 0, _SESSION_N_MAX)
    name, parity = CELL_FUNCTIONS[which]
    args = (n, rng.randint(0, n)) + ((pk.Parity[parity],) if parity else ())
    return f"cell:{which}", name, args


def repeat_share(sessions: list[tuple[int, int]], pk) -> float:
    """Share of the queries of the given (seed, count) sessions that repeat
    an earlier query of the same session."""
    repeats = total = 0
    for seed, count in sessions:
        rng, seen = random.Random(seed), set()
        for _ in range(count):
            key = draw_query(rng, pk)[1:]
            repeats += key in seen
            seen.add(key)
        total += count
    return repeats / total if total else 0.0
