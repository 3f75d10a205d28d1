"""The benchmark POMDP suite behind a reset/step interface.

Environments: HotBeverage (a stochastic vending machine), OfficeWorld and
ConfusingOfficeWorld (room-observation gridworlds), GravityDomain (a column
world whose stochastic pull is disabled by a toggle cell), ThinMaze (a
serpentine corridor observed only through wall bumps), plus a generic wrapper
for any tabular POMDP and a declarative text format for custom grids.

An Environment instance owns mutable episode state and a private generator,
so one instance serves one sequential run; independent instances may run
concurrently.
"""

from __future__ import annotations

import _random
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Hashable, Mapping

from .models import Mdp, Pomdp, Prob, check_integer, check_symbol

#: Reward for entering a goal state; all other states yield 0.
GOAL_REWARD = 100.0

#: Episode cap shared by the whole suite.
DEFAULT_MAX_STEPS = 100

GRID_ACTIONS = ("up", "down", "left", "right")
_MOVES = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}
_PERP = {"up": ("left", "right"), "down": ("left", "right"),
         "left": ("up", "down"), "right": ("up", "down")}

Cell = tuple[int, int]


@dataclass(frozen=True)
class GridSpec:
    """Declarative description of a gridworld layout.

    `room_of` gives every traversable cell its observation; cells absent
    from it are solid. Walls are thin: `blocked` holds unordered pairs of
    adjacent cells whose shared edge cannot be crossed.
    `slip` is the probability, in every cell, of slipping to a perpendicular
    direction; `sticky` gives per-edge probabilities that a crossing fails
    and leaves the position unchanged. An edge may name its cells in either
    order; both fields store it smaller cell first.
    """

    blocked: frozenset[tuple[Cell, Cell]]
    room_of: Mapping[Cell, str]
    start: Cell
    goal: Cell
    slip: Fraction = Fraction(0)
    sticky: Mapping[tuple[Cell, Cell], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.start not in self.room_of or self.goal not in self.room_of:
            raise ValueError("start and goal must be traversable cells")
        if not 0 <= self.slip <= 1:
            raise ValueError(f"slip probability {self.slip} outside [0, 1]")
        for edge, p in self.sticky.items():
            if not 0 <= p <= 1:
                raise ValueError(f"sticky probability {p} at {edge} outside [0, 1]")
        sticky = {self._edge(edge): p for edge, p in self.sticky.items()}
        if len(sticky) < len(self.sticky):
            raise ValueError("sticky gives an edge twice, once in each order")
        object.__setattr__(self, "blocked", frozenset(map(self._edge, self.blocked)))
        object.__setattr__(self, "sticky", sticky)

    def _edge(self, pair: tuple[Cell, Cell]) -> tuple[Cell, Cell]:
        """`pair` smaller cell first, if it joins two adjacent traversable cells."""
        a, b = sorted(pair)
        if (a not in self.room_of or b not in self.room_of
                or abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1):
            raise ValueError(f"edge {pair} does not join two adjacent traversable cells")
        return a, b

    def move(self, cell: Cell, action: str) -> Cell | None:
        """Target of a move, or None when blocked by a wall or the boundary."""
        dx, dy = _MOVES[action]
        target = (cell[0] + dx, cell[1] + dy)
        if target not in self.room_of:
            return None
        if tuple(sorted((cell, target))) in self.blocked:
            return None
        return target

    @classmethod
    def from_text(cls, text: str, slip: Fraction = Fraction(0)) -> "GridSpec":
        """Parse a glyph grid: '#' wall, '.' floor, S start, G goal, T a cell
        observed as `toggle` (a label only: it changes no transition), and
        digits 1-9 for room observations. Whitespace between glyphs is
        ignored; rows must be equally wide."""
        if not isinstance(text, str):
            raise ValueError(f"grid layout must be a string, got {text!r}")
        rows = [[ch for ch in line if not ch.isspace()] for line in text.splitlines()]
        rows = [r for r in rows if r]
        if not rows:
            raise ValueError("empty grid")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("grid rows must all have the same width")
        room_of: dict[Cell, str] = {}
        starts: list[Cell] = []
        goals: list[Cell] = []
        for y, row in enumerate(rows):
            for x, glyph in enumerate(row):
                cell = (x, y)
                if glyph == "#":
                    continue
                if glyph == ".":
                    room_of[cell] = "floor"
                elif glyph == "S":
                    room_of[cell] = "floor"
                    starts.append(cell)
                elif glyph == "G":
                    room_of[cell] = "goal"
                    goals.append(cell)
                elif glyph == "T":
                    room_of[cell] = "toggle"
                elif glyph in "123456789":
                    room_of[cell] = f"Room{glyph}"
                else:
                    raise ValueError(f"unknown glyph {glyph!r} at {cell}")
        if len(starts) != 1 or len(goals) != 1:
            raise ValueError("grid needs exactly one S and one G")
        return cls(
            blocked=frozenset(),
            room_of=room_of,
            start=starts[0],
            goal=goals[0],
            slip=slip,
        )


@dataclass(frozen=True)
class World:
    """A built POMDP plus the bookkeeping oracles and tests need."""

    pomdp: Pomdp
    state_of: Mapping[Hashable, int]


def grid_pomdp(spec: GridSpec, *, bump_obs: str | None = None) -> World:
    """Ground-truth POMDP for a grid layout.

    Hidden states are (cell, bumped) pairs. Moving into a wall leaves the
    position unchanged. When bump_obs is given, a blocked move sets the
    bumped flag and is observed as bump_obs, so a maze can signal walls
    without revealing position; without it the flag is always False.
    A slip replaces the chosen action by a uniformly chosen perpendicular one.
    """
    bump = bump_obs is not None  # the flag a blocked move sets
    flags = (False, True) if bump else (False,)
    order = sorted(spec.room_of, key=lambda c: (c[1], c[0]))
    state_of = {(c, f): i for i, (f, c) in enumerate(product(flags, order))}
    obs_fn = {sid: check_symbol(bump_obs if bumped else spec.room_of[cell])
              for (cell, bumped), sid in state_of.items()}

    def landings(cell: Cell, direction: str) -> list[tuple[tuple[Cell, bool], Fraction]]:
        target = spec.move(cell, direction)
        if target is None:
            return [((cell, bump), Fraction(1))]
        fail = spec.sticky.get(tuple(sorted((cell, target))), Fraction(0))
        return [((target, False), 1 - fail), ((cell, False), fail)]

    delta: dict[tuple[int, str], dict[int, Prob]] = {}
    for (cell, _), sid in state_of.items():
        for action in GRID_ACTIONS:
            directions = [(action, 1 - spec.slip)]
            if spec.slip > 0:
                p1, p2 = _PERP[action]
                directions += [(p1, spec.slip / 2), (p2, spec.slip / 2)]
            dist: dict[int, Prob] = {}
            for direction, p in directions:
                for landed, q in landings(cell, direction):
                    if p * q == 0:
                        continue
                    succ = state_of[landed]
                    dist[succ] = dist.get(succ, Fraction(0)) + p * q
            delta[(sid, action)] = dist

    goal_id = state_of[(spec.goal, False)]
    pomdp = Pomdp(
        mdp=Mdp(tuple(range(len(state_of))), state_of[(spec.start, False)],
                GRID_ACTIONS, delta),
        obs_fn=obs_fn,
        reward_fn={goal_id: GOAL_REWARD},
        goal_states=frozenset({goal_id}),
    )
    return World(pomdp, state_of)


def hot_beverage_world(
    p_t: Prob = Fraction(1, 10),
    p_cc: Prob = Fraction(1, 2),
    p_tt: Prob = Fraction(1, 2),
) -> World:
    """Vending machine with aliased beep states.

    Inserting a coin from the initial state yields a beep but hides whether
    the machine will brew coffee or tea; further coins shift the odds. The
    drink states lead back to the initial state on any action. Reward is on
    tea, the goal observation.
    """
    p_t, p_cc, p_tt = (_as_prob(p) for p in (p_t, p_cc, p_tt))
    actions = ("coin", "button")
    delta: dict[tuple[int, str], dict[int, Prob]] = {
        (0, "button"): {0: 1},
        (0, "coin"): _dist({1: 1 - p_t, 2: p_t}),
        (1, "coin"): _dist({1: p_cc, 2: 1 - p_cc}),
        (1, "button"): {3: 1},
        (2, "coin"): _dist({2: p_tt, 1: 1 - p_tt}),
        (2, "button"): {4: 1},
        (3, "coin"): {0: 1},
        (3, "button"): {0: 1},
        (4, "coin"): {0: 1},
        (4, "button"): {0: 1},
    }
    obs_fn = {0: "init", 1: "beep", 2: "beep", 3: "coffee", 4: "tea"}
    pomdp = Pomdp(
        mdp=Mdp((0, 1, 2, 3, 4), 0, actions, delta),
        obs_fn=obs_fn,
        reward_fn={4: GOAL_REWARD},
        goal_states=frozenset({4}),
    )
    return World(pomdp, {i: i for i in range(5)})


def _as_prob(p) -> Prob:
    if isinstance(p, Fraction):
        return p
    return Fraction(str(p))


def _dist(d: dict[int, Prob]) -> dict[int, Prob]:
    return {s: p for s, p in d.items() if p != 0}


_OFFICE_ROOMS_PLAIN = {(0, 0): "Room1", (1, 0): "Room2", (0, 1): "Room3", (1, 1): "Room4"}
_OFFICE_ROOMS_ALIASED = {(0, 0): "Room1", (1, 1): "Room1", (1, 0): "Room2", (0, 1): "Room2"}


def _office_spec(aliased: bool) -> GridSpec:
    """Four 3x3 rooms in a 2x2 arrangement, joined by single-cell doorways.

    Movement inside rooms is deterministic; door crossings are sticky and
    fail (stay in place) with probability 1/10, so transition probabilities
    are location-specific and every stochastic outcome is distinguishable
    from the room observations alone.

    The plain variant labels rooms distinctly, starts top-left and places the
    goal in the far corner of Room4. The aliased variant shares labels across
    diagonal room pairs, moves the goal next to the lower-left room, and
    closes the doorway between the bottom rooms, so the optimal actions in
    the two rooms of each aliased pair point in opposite directions.
    """
    doors = {((2, 1), (3, 1)), ((1, 2), (1, 3)), ((4, 2), (4, 3))}
    if not aliased:
        doors.add(((2, 4), (3, 4)))
    blocked = set()
    for y in range(6):
        pair = ((2, y), (3, y))
        if pair not in doors:
            blocked.add(pair)
    for x in range(6):
        pair = ((x, 2), (x, 3))
        if pair not in doors:
            blocked.add(pair)
    rooms = _OFFICE_ROOMS_ALIASED if aliased else _OFFICE_ROOMS_PLAIN
    room_of = {
        (x, y): rooms[(0 if x < 3 else 1, 0 if y < 3 else 1)]
        for x in range(6) for y in range(6)
    }
    return GridSpec(
        blocked=frozenset(blocked),
        room_of=room_of,
        start=(0, 0),
        goal=(3, 3) if aliased else (5, 5),
        sticky={door: Fraction(1, 10) for door in doors},
    )


def officeworld_world() -> World:
    return grid_pomdp(_office_spec(aliased=False))


def confusing_officeworld_world() -> World:
    return grid_pomdp(_office_spec(aliased=True))


def gravity_world() -> World:
    """Column world with a stochastic downward pull and a toggle that stops it.

    The traversable cells form a climbing column on the left and a floor row
    along the bottom. While gravity is on, every action is replaced by a
    one-cell downward pull with probability 1/2 (a pull at the floor leaves
    the position unchanged). Stepping onto the toggle in the lower-right
    corner turns gravity off for the rest of the episode. The goal sits at
    the top of the start column, so the direct climb is a coin-flip random
    walk, while the toggle route is deterministic after the floor traversal.
    Hidden states are (cell, gravity off) pairs.
    """
    # The height lets blindly repeating `up` from the start reach the goal
    # within the step cap in about half of all episodes.
    width, height = 6, 12
    toggle = (width - 1, height - 1)
    room_of = {(0, y): "air" for y in range(height - 1)}
    room_of |= {(x, height - 1): "floor" for x in range(width)}
    room_of |= {(0, 0): "cookie", toggle: "toggle"}
    spec = GridSpec(frozenset(), room_of, start=(0, height - 1), goal=(0, 0))
    state_of = {(c, off): i for i, (off, c) in enumerate(product((False, True), spec.room_of))}

    half = Fraction(1, 2)
    delta: dict[tuple[int, str], dict[int, Prob]] = {}
    for (cell, off), sid in state_of.items():
        pull = spec.move(cell, "down") or cell
        for action in GRID_ACTIONS:
            intended = spec.move(cell, action) or cell
            landings = [(intended, Fraction(1))] if off else [(intended, half), (pull, half)]
            dist: dict[int, Prob] = {}
            for land, p in landings:
                succ = state_of[(land, off or land == toggle)]
                dist[succ] = dist.get(succ, Fraction(0)) + p
            delta[(sid, action)] = dist

    goal_ids = frozenset({state_of[(spec.goal, False)], state_of[(spec.goal, True)]})
    pomdp = Pomdp(
        mdp=Mdp(tuple(range(len(state_of))), state_of[(spec.start, False)],
                GRID_ACTIONS, delta),
        obs_fn={sid: spec.room_of[cell] for (cell, _), sid in state_of.items()},
        reward_fn={sid: GOAL_REWARD for sid in goal_ids},
        goal_states=goal_ids,
    )
    return World(pomdp, state_of)


def _thinmaze_spec() -> GridSpec:
    """Serpentine corridor: three full rows joined at alternating ends, with
    the cookie three cells into the final row. Shortest path: 20 steps."""
    openings = {0: 5, 1: 0, 2: 5}  # row boundary y/y+1 -> open column
    blocked = set()
    for y, open_x in openings.items():
        for x in range(6):
            if x != open_x:
                blocked.add(((x, y), (x, y + 1)))
    return GridSpec(
        blocked=frozenset(blocked),
        room_of={(x, y): ("cookie" if (x, y) == (3, 3) else "corridor")
                 for x in range(6) for y in range(4)},
        start=(0, 0),
        goal=(3, 3),
    )


def thinmaze_world() -> World:
    return grid_pomdp(_thinmaze_spec(), bump_obs="wall")


def seeded_generator(seed: int | str) -> _random.Random:
    """A generator of the exact C type `_random.Random` whose Mersenne Twister
    state is that of `random.Random(seed)`.

    Its `random()` and `getrandbits(k)` give the same draws as that
    generator's, string seeds included, and its calls skip the Python
    subclass that `random.Random` adds, which CPython's call specialisation
    does not cover.
    """
    rng = _random.Random(0)
    rng.setstate(random.Random(seed).getstate()[1])
    return rng


def _state_rows(pomdp: Pomdp) -> dict[int, tuple]:
    """One row per state: what entering it yields, its successor samplers and
    its id, as (observation, reward, goal, samplers, state).

    A sampler, per action of the model and no other, holds cumulative
    successor probabilities, the last pinned to 1.0, and the successors' rows
    in sorted state order. The successor for a uniform draw r is the first
    whose cumulative probability exceeds r. With a single successor, which
    every draw picks, the sampler is (None, its row) instead.
    """
    mdp = pomdp.mdp
    rows = {state: (pomdp.obs(state), pomdp.reward(state),
                    state in pomdp.goal_states, {}, state)
            for state in mdp.states}
    for state, row in rows.items():
        for action in mdp.actions:
            cum: list[float] = []
            succs: list[tuple] = []
            acc = 0.0
            for succ, p in sorted(mdp.delta[(state, action)].items()):
                acc += float(p)
                cum.append(acc)
                succs.append(rows[succ])
            cum[-1] = 1.0
            if len(succs) > 1:
                row[3][action] = (tuple(cum), tuple(succs))
            else:
                row[3][action] = (None, succs[0])
    return rows


class EpisodeProtocolError(RuntimeError):
    """step() was called on a finished episode."""


class Environment:
    """Sequential reset/step view of a POMDP with hidden state.

    Agents interact only through reset(), step(), and the action tuple. The
    underlying POMDP stays reachable via .pomdp for oracles and tests, never
    for learning agents. Sampling is driven by one explicitly seeded
    generator per instance; a fixed seed reproduces episodes bit for bit.
    """

    def __init__(
        self,
        pomdp: Pomdp,
        seed: int | str = 0,
        max_steps: int = DEFAULT_MAX_STEPS,
        name: str = "pomdp",
    ):
        self.pomdp = pomdp
        self.name = name
        self.max_steps = check_integer(max_steps, "max_steps", 1)
        self.actions = pomdp.mdp.actions
        self._initial = _state_rows(pomdp)[pomdp.mdp.initial]
        self._rng = seeded_generator(seed)
        self._row: tuple | None = None  # the hidden state's row
        self._steps = 0
        self._done = True

    def reseed(self, seed: int | str) -> None:
        self._rng = seeded_generator(seed)

    def reset(self) -> tuple[str, float]:
        """Start a new episode; returns the initial observation and reward."""
        row = self._row = self._initial
        self._steps = 0
        self._done = False
        return row[0], row[1]

    def step(self, action: str) -> tuple[str, float, bool]:
        """Perform an action; returns (observation, reward, done)."""
        if self._done:
            raise EpisodeProtocolError("episode is over; call reset() first")
        sampler = self._row[3].get(action)  # None: unknown action
        if sampler is None:
            raise ValueError(f"unknown action {action!r}")
        # One uniform draw per step, bisected only among several successors.
        cum, row = sampler
        r = self._rng.random()
        if cum is not None:
            row = row[bisect_right(cum, r)]
        self._row = row
        self._steps += 1
        self._done = done = row[2] or self._steps >= self.max_steps
        return row[0], row[1], done

    @property
    def goal_reached(self) -> bool:
        return self._row is not None and self._row[2]

    @property
    def step_count(self) -> int:
        return self._steps


def _grid_world(params: dict) -> World:
    if "layout" not in params:
        raise ValueError("grid needs a 'layout' parameter")
    slip = {"slip": _as_prob(params.pop("slip"))} if "slip" in params else {}
    return grid_pomdp(GridSpec.from_text(params.pop("layout"), **slip))


_BUILDERS = {
    "hot_beverage": lambda params: hot_beverage_world(
        **{name: params.pop(name) for name in ("p_t", "p_cc", "p_tt") if name in params}),
    "officeworld": lambda params: officeworld_world(),
    "confusing_officeworld": lambda params: confusing_officeworld_world(),
    "gravity": lambda params: gravity_world(),
    "thinmaze": lambda params: thinmaze_world(),
    "grid": _grid_world,
}

ENVIRONMENT_NAMES = tuple(sorted(_BUILDERS))


def make_environment(name: str, seed: int | str = 0, **params) -> Environment:
    """Build a named environment; construction is deterministic, all episode
    randomness comes from `seed`."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; expected one of {ENVIRONMENT_NAMES}"
        ) from None
    params = dict(params)
    max_steps = params.pop("max_steps", DEFAULT_MAX_STEPS)
    world = builder(params)
    if params:
        raise ValueError(f"unused environment parameters: {sorted(params)}")
    return Environment(world.pomdp, seed=seed, max_steps=max_steps, name=name)
