"""Core model types: MDPs, POMDPs, learned labeled models, traces, and the
tracker, whose position `ExtendedState` is also the poql Q-table key.

State ids are opaque integers assigned in creation order; observation and
action symbols are interned strings. Models are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import copysign
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

#: Tolerance used when asserting that a probability distribution sums to 1.
PROB_SUM_TOL = 1e-9

#: Number type accepted wherever a probability is expected. Learned models
#: and the hand-built benchmark POMDPs use exact Fractions.
Prob = Fraction | float

_SYMBOL = re.compile(r"[^\s;:,|]+\Z")


def check_symbol(token: str) -> str:
    """Validate and intern a symbol used for observations and actions.

    Symbols must be non-whitespace and must not contain the separator
    characters of the trace file format (';', ':', ',', '|').
    """
    if not isinstance(token, str) or not _SYMBOL.match(token):
        raise ValueError(
            f"invalid symbol {token!r}: need a non-whitespace token without ';:,|'"
        )
    return sys.intern(token)


def _check_distribution(dist: Mapping[int, Prob], what: str) -> None:
    total = sum(dist.values())
    if abs(float(total) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{what}: distribution sums to {float(total)!r}, not 1")
    if any(p < 0 for p in dist.values()):
        raise ValueError(f"{what}: negative probability")


@dataclass(frozen=True)
class Mdp:
    """Finite Markov decision process with a total transition function.

    delta maps every (state, action) pair to a distribution over successor
    states. Distributions must sum to 1 within PROB_SUM_TOL.
    """

    states: tuple[int, ...]
    initial: int
    actions: tuple[str, ...]
    delta: Mapping[tuple[int, str], Mapping[int, Prob]]

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if self.initial not in state_set:
            raise ValueError(f"initial state {self.initial} not among states")
        for s in self.states:
            for a in self.actions:
                dist = self.delta.get((s, a))
                if dist is None:
                    raise ValueError(f"delta not total: missing ({s}, {a!r})")
                _check_distribution(dist, f"delta({s}, {a!r})")
                if not set(dist) <= state_set:
                    raise ValueError(f"delta({s}, {a!r}) targets unknown states")

    def distribution(self, state: int, action: str) -> Mapping[int, Prob]:
        return self.delta[(state, action)]


@dataclass(frozen=True)
class Pomdp:
    """A POMDP: an MDP whose states are hidden behind an observation function.

    Rewards are attached to states; a step that enters state s' yields
    reward_fn[s']. goal_states terminate an episode when entered.
    """

    mdp: Mdp
    observations: tuple[str, ...]
    obs_fn: Mapping[int, str]
    reward_fn: Mapping[int, float]
    goal_states: frozenset[int]

    def __post_init__(self) -> None:
        state_set = set(self.mdp.states)
        if set(self.obs_fn) != state_set:
            raise ValueError("obs_fn must be total over states")
        if not set(self.obs_fn.values()) <= set(self.observations):
            raise ValueError("obs_fn emits unknown observations")
        if not self.goal_states <= state_set:
            raise ValueError("goal_states outside state space")

    def obs(self, state: int) -> str:
        return self.obs_fn[state]

    def reward(self, state: int) -> float:
        return self.reward_fn.get(state, 0.0)


def label_determinism_violations(
    label: Mapping[int, str],
    trans: Mapping[tuple[int, str], Mapping[int, Prob]],
) -> list[tuple[int, str, int, int]]:
    """Return (state, action, succ1, succ2) tuples violating label determinism.

    A labeled model is deterministic when, for every state and action, no two
    successors with positive probability carry the same label.
    """
    bad = []
    for (s, a), dist in trans.items():
        seen: dict[str, int] = {}
        for succ, p in dist.items():
            if p <= 0:
                continue
            lbl = label[succ]
            if lbl in seen and seen[lbl] != succ:
                bad.append((s, a, seen[lbl], succ))
            else:
                seen[lbl] = succ
    return bad


@dataclass(frozen=True)
class DeterministicLabeledMdp:
    """Labeled MDP where successor labels identify successors uniquely.

    The transition map may be partial: (state, action) pairs never observed
    in training data are simply absent. Learned models additionally carry
    integer edge counts so transition probabilities are exact rationals.
    """

    states: tuple[int, ...]
    initial: int
    actions: tuple[str, ...]
    label: Mapping[int, str]
    trans: Mapping[tuple[int, str], Mapping[int, Prob]]
    counts: Mapping[tuple[int, str], Mapping[int, int]] | None = None
    _successors: dict[tuple[int, str, str], ExtendedState] = field(
        default_factory=dict, repr=False, compare=False
    )
    _initial_key: ExtendedState | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if self.initial not in state_set:
            raise ValueError(f"initial state {self.initial} not among states")
        if set(self.label) != state_set:
            raise ValueError("label must be total over states")
        for (s, a), dist in self.trans.items():
            if s not in state_set or a not in self.actions:
                raise ValueError(f"transition from unknown ({s}, {a!r})")
            _check_distribution(dist, f"trans({s}, {a!r})")
        bad = label_determinism_violations(self.label, self.trans)
        if bad:
            s, a, s1, s2 = bad[0]
            raise ValueError(
                f"label determinism violated at ({s}, {a!r}): "
                f"successors {s1} and {s2} share label {self.label[s1]!r}"
            )
        # The shared key of the initial state and, per (state, action,
        # successor label), of a defined step: ExtendedState(label, state,
        # True); sound because of the determinism invariant checked above.
        object.__setattr__(self, "_initial_key", ExtendedState(
            self.label[self.initial], self.initial, True))
        for (s, a), dist in self.trans.items():
            for succ, p in dist.items():
                if p > 0:
                    label = self.label[succ]
                    self._successors[(s, a, label)] = ExtendedState(label, succ, True)

    def successors(self, state: int, action: str) -> Mapping[int, Prob]:
        return self.trans.get((state, action), {})


class ExtendedState(NamedTuple):
    """Where a trace simulation on a learned model stands, and the Q-table key.

    `obs` is the last observation, `state` the model state reached and
    `defined` whether every step so far had a successor in the model. Once
    `defined` is False it stays False, and `state` keeps the last state
    visited while the simulation was still defined.
    """

    obs: str
    state: int
    defined: bool


def reset_to_initial(model: DeterministicLabeledMdp) -> ExtendedState:
    """Start tracking at the model's initial state with the defined flag set:
    the model's shared key ExtendedState(initial label, initial, True).

    A learned model's initial label is the initial observation of every
    trace it was learned from.
    """
    return model._initial_key


def step_to(
    key: ExtendedState, action: str, obs: str, model: DeterministicLabeledMdp
) -> ExtendedState:
    """Advance the tracker by one (action, observation) step.

    If the model has a successor for (state, action) labeled `obs`, move
    there and return the model's shared, immutable key for that step;
    otherwise return ExtendedState(obs, state, False), the only result that
    allocates. Never raises: undefined behavior is encoded in the flag.
    """
    _, state, defined = key
    if defined:
        nxt = model._successors.get((state, action, obs))
        if nxt is not None:
            return nxt
    return ExtendedState(obs, state, False)


@dataclass(frozen=True)
class RewardObservationTrace:
    """One episode: initial observation and reward, then (action, reward, obs) steps."""

    initial_obs: str
    initial_reward: float
    steps: tuple[tuple[str, float, str], ...]

    def __post_init__(self) -> None:
        if not self.initial_obs:
            raise ValueError("initial observation must be nonempty")

    def observation_part(self) -> ObsTrace:
        """Drop the rewards, keeping the (action, observation) skeleton."""
        return (self.initial_obs, tuple((a, o) for a, _, o in self.steps))

    def rewards(self) -> list[float]:
        return [self.initial_reward] + [r for _, r, _ in self.steps]


#: An observation trace: initial observation plus (action, observation) steps.
ObsTrace = tuple[str, tuple[tuple[str, str], ...]]


def _format_step(action: str, reward: float, obs: str) -> str:
    return f"{check_symbol(action)}:{float(reward)!r}:{check_symbol(obs)}"


def format_trace(
    trace: RewardObservationTrace, memo: dict[tuple, str] | None = None
) -> str:
    """Format one episode as a line of the trace file, without the newline.

    `memo` maps step tuples to their formatted chunks, so a caller formatting
    many episodes (`write_trace_file`) checks and formats each distinct step
    once. A step whose reward is -0.0 bypasses it: -0.0 equals 0.0 and hashes
    alike, but the two print differently. Rewards equal to the same float
    otherwise print alike, so an int, Fraction or bool reward may share an
    entry with that float.
    """
    if memo is None:
        memo = {}
    parts = [f"{check_symbol(trace.initial_obs)}:{float(trace.initial_reward)!r}"]
    for step in trace.steps:
        a, r, o = step
        if r == 0 and copysign(1.0, r) < 0:
            parts.append(_format_step(a, r, o))
            continue
        chunk = memo.get(step)
        if chunk is None:
            chunk = memo[step] = _format_step(a, r, o)
        parts.append(chunk)
    return ";".join(parts)


def _parse_step(chunk: str) -> tuple[str, float, str]:
    fields = chunk.split(":")
    if len(fields) != 3:
        raise ValueError(f"malformed trace step {chunk!r}")
    return (check_symbol(fields[0]), float(fields[1]), check_symbol(fields[2]))


class _StepMemo(dict):
    """`action:reward:obs` chunk -> parsed step; a missing chunk is parsed,
    checked and stored on lookup, so it enters only after the full check."""

    __slots__ = ()

    def __missing__(self, chunk: str) -> tuple[str, float, str]:
        step = self[chunk] = _parse_step(chunk)
        return step


def parse_trace(line: str, memo: _StepMemo | None = None) -> RewardObservationTrace:
    """Parse one line of the trace file into an episode.

    `memo` maps step chunks to their parsed steps, so a caller parsing many
    lines (`read_trace_file`) checks and converts each distinct chunk once,
    and equal steps share one tuple. The steps are looked up in one `map`
    over the chunks; a chunk seen for the first time is parsed by the memo
    itself. Distinct strings are distinct keys, so `-0.0` and `0.0` never
    share an entry.
    """
    chunks = line.strip().split(";")
    head = chunks[0].split(":")
    if len(head) != 2:
        raise ValueError(f"malformed trace head {chunks[0]!r}")
    if memo is None:
        memo = _StepMemo()
    steps = tuple(map(memo.__getitem__, chunks[1:]))
    return RewardObservationTrace(check_symbol(head[0]), float(head[1]), steps)


@contextmanager
def atomic_open(path, **kwargs) -> Iterator[TextIO]:
    """Open a text file for writing whose contents replace `path` only when
    the block ends cleanly. `kwargs` go to `open`.

    The data goes to `.<name>.tmp` in the same directory, then `os.replace`
    moves it over `path`, so a reader sees the previous file or the new one,
    never a truncated one. A failed write removes its temp file; a killed
    process may leave one. There is no fsync: this guards against
    interruption, not power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace_file(traces: Iterable[RewardObservationTrace], path) -> None:
    """Write one episode per line in the `obs:reward(;action:reward:obs)*` format.

    Each distinct step is checked and formatted once per file (see
    `format_trace`). The file is replaced atomically (see `atomic_open`).
    """
    memo: dict[tuple, str] = {}
    with atomic_open(path, encoding="ascii") as fh:
        for trace in traces:
            fh.write(format_trace(trace, memo))
            fh.write("\n")


def read_trace_file(path) -> list[RewardObservationTrace]:
    """Read a trace file written by `write_trace_file`, skipping blank lines.

    Each line goes through one `parse_trace` call with a memo shared by the
    whole file, so each distinct step chunk is checked and converted once
    and equal steps share one tuple. A malformed line raises `ValueError`
    prefixed with `<path>:<line>:`; bytes that are not ASCII raise
    `ValueError` prefixed with `<path>:`.
    """
    memo = _StepMemo()
    traces = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        traces.append(parse_trace(line, memo))
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:  # raised while reading, ahead of any line
        raise ValueError(f"{path}: {exc}") from exc
    return traces


def dlmdp_to_dot(
    model: DeterministicLabeledMdp,
    beliefs: Mapping[int, Mapping[int, Prob]] | None = None,
    comment: str | None = None,
) -> str:
    """Render a labeled model as a DOT digraph with a stable node/edge order.

    Node labels are `id|obs`; edge labels are `action:prob` with four decimal
    digits. Belief annotations, when given, are attached as node tooltips.
    """
    if not model.states:
        raise ValueError("cannot export an empty model")
    lines = ["digraph model {"]
    if comment:
        lines.append(f"  // {comment}")
    lines.append('  __start [shape=none, label=""];')
    lines.append(f"  __start -> s{model.initial};")
    for s in sorted(model.states):
        attrs = [f'label="{s}|{model.label[s]}"']
        if beliefs is not None and s in beliefs:
            dist = ",".join(
                f"{q}:{float(p):g}" for q, p in sorted(beliefs[s].items())
            )
            attrs.append(f'tooltip="{dist}"')
        lines.append(f"  s{s} [{', '.join(attrs)}];")
    edges = []
    for (s, a), dist in model.trans.items():
        for succ, p in dist.items():
            if p > 0:
                edges.append((s, a, succ, float(p)))
    for s, a, succ, p in sorted(edges):
        lines.append(f'  s{s} -> s{succ} [label="{a}:{p:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
