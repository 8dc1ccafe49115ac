"""Sectioned-CSV grid case format and bundled test systems.

A case file holds SYSTEM / BUS / BRANCH / GEN / LEL sections::

    [SYSTEM]
    s_base,100.0
    f_base,60.0
    [BUS]
    # id,type,v_set,p_load_mw,q_load_mvar
    1,slack,1.04,0,0
    [BRANCH]
    # from,to,r,x,b_shunt[,tap]
    1,2,0.01,0.1,0.02
    [GEN]
    # bus,h,d,xd_p,p_set_mw,v_set
    1,5.0,50.0,0.2,0,1.04
    [LEL]
    # bus,archetype[,work_share,cool_share,aux_share]
    2,datacenter,0.6,0.3,0.1

All impedances are pu on s_base; loads and generator schedules are in
MW/MVAr.  Shares default to the 60/30/10 workload/cooling/auxiliary
split of the bus demand.  Other sections and SYSTEM keys are rejected.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.csgraph import connected_components, csgraph_from_dense, dijkstra

from lelsim.errors import InvalidArgument
from lelsim.lel import Archetype, LelParams, archetype_defaults

DEFAULT_SHARES = (0.6, 0.3, 0.1)
_DATA = importlib.resources.files("lelsim.data")
# the bundled test systems: one per lelsim/data/*.case file
BUNDLED_CASES = tuple(sorted(f.name[:-5] for f in _DATA.iterdir() if f.name.endswith(".case")))


@dataclass(frozen=True)
class Bus:
    id: int
    type: str            # slack | pv | pq
    v_set: float
    p_load: float        # MW
    q_load: float        # MVAr


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float
    tap: float = 1.0     # off-nominal ratio on the from side; 0 means 1


@dataclass(frozen=True)
class Generator:
    bus: int
    H: float             # s on s_base
    D: float             # pu damping on s_base
    xd_p: float          # pu transient reactance
    p_set: float         # MW (ignored for the slack machine)
    v_set: float


@dataclass(frozen=True)
class LelPlacement:
    bus: int
    params: LelParams
    shares: tuple[float, float, float] = DEFAULT_SHARES


@dataclass(frozen=True)
class GridCase:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    lels: tuple[LelPlacement, ...] = ()
    s_base: float = 100.0
    f_base: float = 60.0

    def __post_init__(self):
        validate_case(self)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def with_lels(self, lels) -> "GridCase":
        return replace(self, lels=tuple(lels))


def validate_case(case: GridCase) -> None:
    if not (case.s_base > 0 and case.f_base > 0):
        raise InvalidArgument(f"need s_base > 0 and f_base > 0, got {case.s_base} "
                              f"and {case.f_base}")
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        raise InvalidArgument("duplicate bus ids")
    idset = set(ids)
    slacks = [b for b in case.buses if b.type == "slack"]
    if len(slacks) != 1:
        raise InvalidArgument(f"case must have exactly one slack bus, found {len(slacks)}")
    for b in case.buses:
        if b.type not in ("slack", "pv", "pq"):
            raise InvalidArgument(f"bus {b.id}: unknown type {b.type!r}")
        if b.type != "pq" and not b.v_set > 0:
            raise InvalidArgument(f"bus {b.id}: v_set must be > 0")
    for br in case.branches:
        if br.from_bus not in idset or br.to_bus not in idset:
            raise InvalidArgument(f"branch {br.from_bus}-{br.to_bus}: unknown bus")
        if br.from_bus == br.to_bus:
            raise InvalidArgument(f"branch {br.from_bus}-{br.to_bus}: both ends at one bus")
        if br.r == 0 and br.x == 0:
            raise InvalidArgument(f"branch {br.from_bus}-{br.to_bus}: zero impedance")
        if not br.tap >= 0:
            raise InvalidArgument(f"branch {br.from_bus}-{br.to_bus}: tap must be >= 0 "
                                  f"(0 means 1), got {br.tap}")
    by_id = {b.id: b for b in case.buses}
    gen_buses = [g.bus for g in case.generators]
    if len(set(gen_buses)) != len(gen_buses):
        raise InvalidArgument("at most one generator per bus")
    for g in case.generators:
        if g.bus not in idset:
            raise InvalidArgument(f"generator at unknown bus {g.bus}")
        if by_id[g.bus].type not in ("pv", "slack"):
            raise InvalidArgument(f"generator bus {g.bus} must be PV or slack")
        for need, ok in (("H > 0", g.H > 0), ("xd_p > 0", g.xd_p > 0),
                         ("D >= 0", g.D >= 0), ("v_set > 0", g.v_set > 0)):
            if not ok:
                raise InvalidArgument(f"generator at bus {g.bus}: need {need}")
        if g.v_set != by_id[g.bus].v_set:
            raise InvalidArgument(f"generator at bus {g.bus}: v_set {g.v_set} differs "
                                  f"from the bus v_set {by_id[g.bus].v_set}")
    pv_or_slack = {b.id for b in case.buses if b.type in ("pv", "slack")}
    if pv_or_slack - set(gen_buses):
        raise InvalidArgument("every PV/slack bus needs a generator")
    lel_buses = [p.bus for p in case.lels]
    if len(set(lel_buses)) != len(lel_buses):
        raise InvalidArgument("at most one LEL per bus")
    for p in case.lels:
        if p.bus not in idset:
            raise InvalidArgument(f"LEL at unknown bus {p.bus}")
        if by_id[p.bus].type != "pq":
            raise InvalidArgument(f"LEL bus {p.bus} must be PQ")
        if abs(sum(p.shares) - 1.0) > 1e-9 or min(p.shares) < 0:
            raise InvalidArgument(f"LEL bus {p.bus}: shares must be >= 0 and sum to 1")
    labels = bus_islands(case, case.branches)
    if labels.max() > 0:
        missing = [ids[k] for k in np.flatnonzero(labels != labels[0])]
        raise InvalidArgument(f"disconnected bus(es): {missing}")


def _bus_graph(case: GridCase, branches):
    """The buses joined by the given branches, as a symmetric sparse
    graph whose edge between two buses weighs the smallest series
    |r + jx| of the parallel branches between them."""
    idx = case.bus_index()
    W = np.full((case.n_bus, case.n_bus), np.inf)
    for br in branches:
        f, t = idx[br.from_bus], idx[br.to_bus]
        W[f, t] = W[t, f] = min(W[f, t], abs(complex(br.r, br.x)))
    return csgraph_from_dense(W, null_value=np.inf)


def bus_islands(case: GridCase, branches) -> np.ndarray:
    """Island label (0, 1, ...) of every bus, in case order, over the
    given branches."""
    return connected_components(_bus_graph(case, branches), directed=False)[1]


def nearest_generator(case: GridCase) -> np.ndarray:
    """Per-bus index (into case.generators) of the electrically nearest
    machine by minimum series-|Z| path; an exact tie goes to the lower
    index."""
    idx = case.bus_index()
    dist = dijkstra(_bus_graph(case, case.branches), directed=False,
                    indices=[idx[g.bus] for g in case.generators])
    return np.argmin(dist, axis=0)


def _non_finite(tok: str) -> bool:
    try:
        return not math.isfinite(float(tok))
    except ValueError:
        return False


def _system(row) -> tuple[str, float]:
    if row[0] not in ("s_base", "f_base"):
        raise InvalidArgument(f"unknown key {row[0]!r}")
    return row[0], float(row[1])


def _bus(row) -> Bus:
    return Bus(id=int(row[0]), type=row[1].lower(), v_set=float(row[2]),
               p_load=float(row[3]), q_load=float(row[4]))


def _branch(row) -> Branch:
    tap = float(row[5]) if len(row) == 6 and row[5] else 1.0
    return Branch(from_bus=int(row[0]), to_bus=int(row[1]), r=float(row[2]),
                  x=float(row[3]), b_shunt=float(row[4]), tap=tap)


def _generator(row) -> Generator:
    return Generator(bus=int(row[0]), H=float(row[1]), D=float(row[2]), xd_p=float(row[3]),
                     p_set=float(row[4]), v_set=float(row[5]))


def _lel(row) -> LelPlacement:
    shares = DEFAULT_SHARES if len(row) == 2 else tuple(float(v) for v in row[2:5])
    return LelPlacement(bus=int(row[0]), params=archetype_defaults(Archetype(row[1].lower())),
                        shares=shares)


def _rows(sections, section: str, sizes: tuple, build) -> list:
    """build(row) for every row of a section.  A row whose field count is
    not in sizes, or one that build rejects (a field that is not a number,
    an unknown archetype), raises InvalidArgument naming its line,
    section and row."""
    out = []
    for lineno, row in sections.get(section, []):
        where = f"line {lineno}: [{section}] row {row}"
        if len(row) not in sizes:
            raise InvalidArgument(f"{where} needs {' or '.join(map(str, sizes))} fields")
        try:
            out.append(build(row))
        except ValueError as exc:
            raise InvalidArgument(f"{where}: {exc}") from exc
    return out


def load_case(text: str) -> GridCase:
    """Parse the text of a sectioned-CSV case document."""
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].upper()
            if current not in ("SYSTEM", "BUS", "BRANCH", "GEN", "LEL"):
                raise InvalidArgument(f"line {lineno}: unknown section {line}")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise InvalidArgument(f"line {lineno}: data before any section header")
        row = [tok.strip() for tok in line.split(",")]
        bad = [tok for tok in row if _non_finite(tok)]
        if bad:
            raise InvalidArgument(
                f"line {lineno}: [{current}] row {row} has non-finite {bad[0]!r}")
        sections[current].append((lineno, row))

    for required in ("BUS", "GEN"):
        if required not in sections or not sections[required]:
            raise InvalidArgument(f"case is missing a [{required}] section")

    system = {}
    for (lineno, _), (key, value) in zip(sections.get("SYSTEM", []),
                                         _rows(sections, "SYSTEM", (2,), _system)):
        if key in system:
            raise InvalidArgument(f"line {lineno}: [SYSTEM] key {key!r} given more than once")
        system[key] = value
    s_base = system.get("s_base", 100.0)
    f_base = system.get("f_base", 60.0)
    buses = _rows(sections, "BUS", (5,), _bus)
    branches = _rows(sections, "BRANCH", (5, 6), _branch)
    gens = _rows(sections, "GEN", (6,), _generator)
    lels = _rows(sections, "LEL", (2, 5), _lel)
    return GridCase(buses=tuple(buses), branches=tuple(branches), generators=tuple(gens),
                    lels=tuple(lels), s_base=s_base, f_base=f_base)


def bundled_case(name: str) -> GridCase:
    """Load one of the BUNDLED_CASES by name."""
    if name not in BUNDLED_CASES:
        raise InvalidArgument(f"no bundled case named {name!r}")
    return load_case(_DATA.joinpath(f"{name}.case").read_text())
