"""Inputs of the two workloads, built from a seed with ``crowdtrace.gen``.

One round of a workload ingests its main feed into a fresh store, then runs
its steps. A step ingests an update feed into that store, if it has one,
then reads: ``irq`` calls on the open store, ``query --traj-id`` lookups and
maybe a ``join``. Each step records the trajectories stored after its update,
so every read can be checked against the reference over the same data.

Rounds are short, about five seconds, so that a run repeats each of them
nine times or more. On a shared virtual machine the speed can swing by tens
of percent in stretches of seconds; an operation timed once or twice per run
reads whichever stretch it lands on, one timed in every round reads them all.

Both workloads keep the population of ``gen --seed 42`` (the pipeline shape
pinned in ROADMAP.md), and their query ids are pinned too. Their ``irq``
latency is set by the quadtree cells a query's windows reach, which differs a
lot between queries on the 2 km region: medians over 100 queries drawn at
random moved 13% (p50) and 21% (p90) between draws. ``--seed`` drives what
changes: the update feeds, the extension walks and the ids the checks sample.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

from crowdtrace.gen import GenConfig, generate, write_labels
from crowdtrace.model import EARTH_RADIUS_M, Location, Trajectory, write_points_csv

PINNED_GEN_SEED = 42
M_PER_DEG_LAT = math.pi * EARTH_RADIUS_M / 180.0


@dataclass
class Feed:
    """One points CSV handed to ``crowdtrace ingest`` or ``crowdtrace join``."""

    path: str
    trajectories: list[Trajectory]

    @property
    def points(self) -> int:
        return sum(len(t) for t in self.trajectories)


@dataclass
class Step:
    update: Feed | None
    irq_ids: list[str]
    lookup_ids: list[str]
    current: dict[str, Trajectory]  # every trajectory stored after ``update``
    join: Feed | None = None  # a query set made of this step's irq queries
    cycles: int = 1  # rounds take turns over this many equal shares of ``irq_ids``

    def queries(self, round_index: int) -> list[str]:
        """The ``irq`` queries this step runs in the given round."""
        return self.irq_ids[round_index % self.cycles :: self.cycles]


@dataclass
class Plan:
    name: str
    main: Feed
    steps: list[Step]
    labels: list[str]  # planted contacts of t00000
    check_rng: random.Random
    probe_ids: set[str] = field(default_factory=set)  # lookups expected to hit the re-ingest fault

    @property
    def updates(self) -> list[Feed]:
        return [s.update for s in self.steps if s.update is not None]

    @property
    def cycles(self) -> int:
        """Rounds after which every step has run each of its queries once."""
        return math.lcm(*(s.cycles for s in self.steps))


def sub_seed(seed: int, tag: str) -> int:
    """A seed for one input of a workload, fixed by (seed, tag)."""
    return random.Random(f"{tag}:{seed}").getrandbits(32)


def _feed(workdir: str, name: str, trajectories: list[Trajectory]) -> Feed:
    path = os.path.join(workdir, f"{name}.csv")
    write_points_csv(trajectories, path)
    return Feed(path, trajectories)


def _new_people(seed: int, n: int) -> list[Trajectory]:
    """``n`` walkers with no planted contacts, renamed so ids do not collide."""
    people, _ = generate(GenConfig(seed=seed, n_traj=n, contact_fraction=0.0))
    return [Trajectory("u" + t.id[1:], t.locations) for t in people]


CYCLES = 3  # rounds take turns over three shares of the unjoined queries


def _new_people_plan(
    name: str,
    workdir: str,
    population: list[Trajectory],
    labels: list[str],
    new_people: list[Trajectory],
    join_ids: list[str],
    irq_ids: list[str],
    update_steps: int,
    check_seed: int,
) -> Plan:
    """The join, the ``irq`` of its queries and a lookup of the second of
    them on the main feed; then ``update_steps`` steps that each ingest a
    share of the new people and run a share of the other queries; the last
    step looks the same trajectory up again."""
    write_labels(labels, os.path.join(workdir, "labels.csv"))
    main = _feed(workdir, "main", population)
    current = {t.id: t for t in population}
    join = _feed(workdir, "join", [current[i] for i in join_ids])
    steps = [Step(None, join_ids, join_ids[1:2], dict(current), join)]
    for k in range(update_steps):
        people = new_people[k::update_steps]
        current.update((t.id, t) for t in people)
        update = _feed(workdir, f"update{k}", people)
        lookups = join_ids[1:2] if k == update_steps - 1 else []
        steps.append(Step(update, irq_ids[k::update_steps], lookups, dict(current), cycles=CYCLES))
    return Plan(name, main, steps, labels, random.Random(check_seed))


def city_day(seed: int, workdir: str) -> Plan:
    """5,000 people in the 2 km region over 6 h; 200 new people; a 4-trajectory join."""
    population, labels = generate(
        GenConfig(seed=PINNED_GEN_SEED, n_traj=5000, contact_fraction=0.1)
    )
    new_people = _new_people(sub_seed(seed, "city-day/update"), 200)
    ids = [t.id for t in population]
    # the join of the first 4, then a spread of 24 more, 8 of them a round
    return _new_people_plan(
        "city-day", workdir, population, labels, new_people,
        ids[:4], ids[100::200][:24], 2, sub_seed(seed, "city-day/check"),
    )


# --- feed-update --------------------------------------------------------------

FEED_BATCHES = 3
FEED_PEOPLE_PER_BATCH = 100
FEED_IRQ_PER_BATCH = 12  # a round
FEED_JOIN_AFTER = 1  # the batch whose irq queries are also joined, the patient's among them
EXT_POINTS = 5
EXT_STEP_M = 30.0
EXT_DT = 60
T_SEG = 1800  # SegmentationConfig().t_seg: a longer gap always starts a new segment

# Probe tracks sit about 6 km east of the population, 25 m east of a cell
# boundary of the default layout (resolution 15 over the world). Their batch
# extends the last segment 106 m south-west, which moves its box's min corner
# into the next cell, so the re-ingest writes that segment under a new key
# and leaves the old frame behind. They do not depend on the seed.
PROBE_LON = -180.0 + 26_984 * 360.0 / 2**15 + 0.0003
PROBE_T0 = 1_600_010_000


def _step_towards(loc: Location, east_m: float, north_m: float, t: int) -> Location:
    m_per_deg_lon = M_PER_DEG_LAT * math.cos(math.radians(loc.lat))
    return Location(loc.lon + east_m / m_per_deg_lon, loc.lat + north_m / M_PER_DEG_LAT, t)


def _probe(b: int) -> tuple[Trajectory, Trajectory]:
    """Day-1 track and extended track of probe ``b``."""
    start = Location(PROBE_LON, 39.95 + 0.01 * b, PROBE_T0)
    day1 = [Location(start.lon, start.lat, PROBE_T0 + EXT_DT * k) for k in range(4)]
    step = EXT_STEP_M / math.sqrt(2.0)
    ext = [
        _step_towards(start, -step * (k + 1), -step * (k + 1), PROBE_T0 + EXT_DT * (4 + k))
        for k in range(EXT_POINTS)
    ]
    pid = f"p{b:05d}"
    return Trajectory(pid, day1), Trajectory(pid, day1 + ext)


def _extend(traj: Trajectory, rng: random.Random) -> Trajectory:
    """Later points that keep moving, after a gap that closes the last segment.

    The gap exceeds the segmentation time bound, so the stored segments of
    the old points are rewritten unchanged under their old keys.
    """
    last = traj.locations[-1]
    t = last.t + T_SEG + 1 + rng.randrange(600)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    east, north = math.cos(heading) * EXT_STEP_M, math.sin(heading) * EXT_STEP_M
    ext = []
    loc = last
    for k in range(EXT_POINTS):
        loc = _step_towards(loc, east, north, t + EXT_DT * k)
        ext.append(loc)
    return Trajectory(traj.id, traj.locations + tuple(ext))


def feed_update(seed: int, workdir: str) -> Plan:
    """2,000 people on day 1, then small ingests that extend 100 tracks each.

    Each batch also extends one pinned person, looked up right after beside
    the batch's probe, so lookup costs do not hinge on whom the seed picks.
    The ``irq`` and join queries are pinned people whom no batch extends.
    """
    population, labels = generate(
        GenConfig(seed=PINNED_GEN_SEED, n_traj=2000, contact_fraction=0.1)
    )
    probes = [_probe(b) for b in range(FEED_BATCHES)]
    rng = random.Random(sub_seed(seed, "feed-update/updates"))
    current = {t.id: t for t in population}
    for day1, _ in probes:
        current[day1.id] = day1
    main = _feed(workdir, "main", list(current.values()))
    write_labels(labels, os.path.join(workdir, "labels.csv"))

    ids = [t.id for t in population]
    pool = ids[1::23]
    watched = ids[2::23][:FEED_BATCHES]
    # t00000 stays as generated, so its planted contacts hold
    extendable = sorted(set(ids[1:]) - set(pool) - set(watched))
    steps = []
    for b in range(FEED_BATCHES):
        chosen = rng.sample(extendable, FEED_PEOPLE_PER_BATCH - 1) + [watched[b]]
        for tid in chosen:
            current[tid] = _extend(current[tid], rng)
        probe = probes[b][1]
        current[probe.id] = probe
        update = _feed(workdir, f"update{b}", [current[tid] for tid in chosen] + [probe])
        lookups = [probe.id, watched[b]]
        if b == FEED_JOIN_AFTER:
            n = FEED_IRQ_PER_BATCH - 1
            irq_ids, pool = ["t00000"] + pool[:n], pool[n:]
            join = _feed(workdir, "join", [current[i] for i in irq_ids])
            steps.append(Step(update, irq_ids, lookups, dict(current), join))
        else:
            n = FEED_IRQ_PER_BATCH * CYCLES
            irq_ids, pool = pool[:n], pool[n:]
            steps.append(Step(update, irq_ids, lookups, dict(current), cycles=CYCLES))
    return Plan(
        "feed-update", main, steps, labels,
        random.Random(sub_seed(seed, "feed-update/check")),
        probe_ids={p.id for _, p in probes},
    )


WORKLOADS = {"city-day": city_day, "feed-update": feed_update}
