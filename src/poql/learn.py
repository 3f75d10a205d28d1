"""Passive learning of deterministic labeled MDPs from observation traces.

The learner builds a frequency prefix tree over the traces and then merges
statistically compatible nodes in the red-blue framework. Compatibility uses
a per-observation Hoeffding test whose significance is controlled by eps_al:
smaller eps_al widens the acceptance bound, so smaller values merge more
aggressively and yield smaller models.

Most of a prefix tree is unique trace tails: the part of a trace after it
leaves every other trace of the sample. Each such tail is stored as one
compressed node, a reference (steps, pos) into that trace's step tuple, and
is expanded one level at a time only when a second trace passes through it,
when a merge adds counts into it, or when it is promoted to a state. A
tail's edges all have frequency 1, so on a tail every Hoeffding bound is at
least sqrt(ln(2 / eps_al) / 2) * (1 + 1/sqrt(n)) for the other side's n.
When that scale is at least 1, i.e. eps_al <= 2/e^2 ~= 0.27, no test can
fire and a tail is compatible with anything. Above 2/e^2 the exact test runs
at each step of the tail against the other side, so the learned model is
the same as with a fully expanded tree at every eps_al.

The same bound prunes the compatibility test's descent. Outside the red
states the automaton is a forest, so no count below an edge exceeds the
edge's count, and a child pair under edge counts m_r and m_b is visited only
if sqrt(ln(2 / eps_al) / 2) * (1/sqrt(m_r) + 1/sqrt(m_b)) is at most 1,
with 0 in place of 1/sqrt(m_r) when r's child is red: the red region is
cyclic, so its counts have no such bound. Likewise a tail walk stops where
it leaves the red states by an edge whose count m already gives a tail
bound sqrt(ln(2 / eps_al) / 2) * (1/sqrt(m) + 1) above 1.

Each node keeps one edge table, (action, observation) -> a mutable
[count, child] record. Adding a trace, folding a merged subtree, testing
compatibility and choosing the next blue node each make one lookup per edge
and update counts in place; a merge redirects the blue node's incoming edge
by replacing its record's child. The per-action count totals are derived
from the records: the two writers, `_add_path` and `_fold`, only mark a
node's cached totals stale, and the Hoeffding tests recount them where
they read a stale node, so no totals are kept for the many nodes that no
test reads. Edges are keyed by the traces' own (action, observation) pairs.
The loaders (`observation_traces`) give equal pairs one shared tuple, which
only makes the key lookups faster: results depend on key equality alone.

A learning run mutates its own tree, so each invocation is single-threaded;
the returned models are immutable.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import log, sqrt
from types import MappingProxyType
from typing import Iterable, Sequence

from .models import (
    DeterministicLabeledMdp,
    ObsTrace,
    RewardObservationTrace,
    check_symbol,
    read_trace_file,
)


class InconsistentSample(ValueError):
    """Raised when the traces of one sample do not share an initial observation."""


_EMPTY = MappingProxyType({})

# _INV_SQRT[n] is 1/sqrt(n) for the counts n >= 1 that most Hoeffding bounds
# meet: the compatibility test reads it here, which costs less than the call
# and gives the same float.
_INV_SQRT_LEN = 4096
_INV_SQRT = (0.0,) + tuple(1.0 / sqrt(n) for n in range(1, _INV_SQRT_LEN))


class IofptaNode:
    """Prefix tree node: an observation label plus frequency-annotated edges.

    edges maps each (action, observation) to a mutable [count, child]
    record; an edge exists iff its count is positive, and its child's label
    is always the key's observation. totals is a read-only view of the
    per-action count sums, derived from the records and cached in _totals;
    a writer of the records sets _totals to None (stale), and `_totals_of`
    recounts it. children and freq are read-only copies of the records' two
    fields.

    A node that only one trace reaches is a compressed tail: steps is that
    trace's step tuple and pos the index of the node's outgoing step, so the
    node stands for the chain of frequency-1 edges steps[pos:]. Until it is
    expanded, its edges and totals are one shared empty read-only mapping.
    Expanded nodes have steps None.
    """

    __slots__ = ("label", "edges", "_totals", "red_index", "steps", "pos")

    def __init__(
        self, label: str, steps: Sequence[tuple[str, str]] | None = None, pos: int = 0
    ):
        self.label = label
        self.red_index: int | None = None
        self.steps = steps
        self.pos = pos
        if steps is None:
            self.edges: dict[tuple[str, str], list] = {}
            self._totals: dict[str, int] | None = None
        else:
            self.edges = self._totals = _EMPTY

    @property
    def totals(self) -> Mapping[str, int]:
        return MappingProxyType(_totals_of(self))

    @property
    def children(self) -> Mapping[tuple[str, str], IofptaNode]:
        return MappingProxyType({key: edge[1] for key, edge in self.edges.items()})

    @property
    def freq(self) -> Mapping[tuple[str, str], int]:
        return MappingProxyType({key: edge[0] for key, edge in self.edges.items()})

    def expand(self) -> None:
        """Turn a tail into an ordinary node whose one child is the rest of
        the tail; a no-op on an expanded node."""
        steps = self.steps
        if steps is None:
            return
        self.steps = None
        self.edges, self._totals = {}, None
        if self.pos < len(steps):
            key = steps[self.pos]
            self.edges[key] = [1, IofptaNode(key[1], steps, self.pos + 1)]


def _totals_of(node: IofptaNode) -> dict[str, int]:
    """node's per-action count sums, recounted from its edges if stale."""
    totals = node._totals
    if totals is None:
        totals = node._totals = {}
        for (action, _), edge in node.edges.items():
            totals[action] = totals.get(action, 0) + edge[0]
    return totals


def _add_path(node: IofptaNode, steps: Sequence[tuple[str, str]], pos: int) -> None:
    """Add one count along steps[pos:] from node, expanding tails on the way
    and ending in a new tail where the tree has no matching edge."""
    for pos in range(pos, len(steps)):
        key = steps[pos]
        edge = node.edges.get(key)
        if edge is None:
            if node.steps is not None:  # a tail has no edges until expanded
                node.expand()
                edge = node.edges.get(key)
            if edge is None:
                node.edges[key] = [1, IofptaNode(key[1], steps, pos + 1)]
                node._totals = None
                return
        edge[0] += 1
        node._totals = None
        node = edge[1]


@dataclass(frozen=True)
class Iofpta:
    """Frequency prefix tree acceptor over a multiset of observation traces."""

    root: IofptaNode


@dataclass(frozen=True)
class LearnerConfig:
    eps_al: float = 0.05

    def __post_init__(self) -> None:
        _bound_scale(self.eps_al)  # raises ValueError outside (0, 1]


def build_iofpta(traces: Iterable[ObsTrace]) -> Iofpta:
    """Merge the common prefixes of the traces into a frequency tree."""
    traces = list(traces)
    if not traces:
        raise InconsistentSample("empty sample")
    initial = traces[0][0]
    root = IofptaNode(check_symbol(initial))
    for init_obs, steps in traces:
        if init_obs != initial:
            raise InconsistentSample(
                f"initial observations differ: {initial!r} vs {init_obs!r}"
            )
        _add_path(root, steps, 0)
    return Iofpta(root)


def _bound_scale(eps_al: float) -> float:
    """sqrt(ln(2 / eps_al) / 2), the factor of every Hoeffding bound."""
    if not 0.0 < eps_al <= 1.0:
        raise ValueError(f"eps_al must be in (0, 1], got {eps_al}")
    return sqrt(0.5 * log(2.0 / eps_al))


def compatible(r: IofptaNode, b: IofptaNode, eps_al: float) -> bool:
    """Statistical compatibility of two nodes and of their common successors.

    Labels must match; for every action taken n1 times at one node and n2
    times at the other, each successor observation's empirical frequencies
    must differ by less than sqrt(ln(2 / eps_al) / 2) * (1/sqrt(n1) +
    1/sqrt(n2)); and the check descends into successors present on both
    sides. An action seen on one side only passes, and a tail counts n = 1
    at each of its steps. A test runs only where its bound is at most 1,
    because frequencies never differ by more. The second node always lies in
    an unmerged part of the tree, which bounds the descent. So does the
    first node wherever it is not red: a child pair whose two edge counts
    already give a bound above 1 is not visited, because no count below it
    is larger. The node pairs that one path reaches from (r, b) wait on a
    stack; no test changes either tree, so their order cannot change the
    result.
    """
    bound_scale = _bound_scale(eps_al)
    if r.label != b.label:
        return False
    pairs = [(r, b)]
    while pairs:
        r, b = pairs.pop()
        if r.steps is not None or b.steps is not None:
            # Every tail bound exceeds bound_scale, so from 1 up none can fire.
            if bound_scale < 1.0 and not _tail_compatible(r, b, bound_scale):
                return False
            continue
        if not _node_compatible(r, b, bound_scale):
            return False
        r_edges = r.edges
        for key, b_edge in b.edges.items():
            r_edge = r_edges.get(key)
            # Both children carry the key's observation as their label.
            if r_edge is None or r_edge[1] is b_edge[1]:
                continue
            # No count below a non-red child exceeds its edge's count; a red
            # child heads a cycle, so its counts have no bound.
            m_r, m_b = r_edge[0], b_edge[0]
            r_term = (0.0 if r_edge[1].red_index is not None else
                      _INV_SQRT[m_r] if m_r < _INV_SQRT_LEN else 1.0 / sqrt(m_r))
            b_term = _INV_SQRT[m_b] if m_b < _INV_SQRT_LEN else 1.0 / sqrt(m_b)
            if bound_scale * (r_term + b_term) > 1.0:
                continue  # every test below has a bound above 1
            pairs.append((r_edge[1], b_edge[1]))
    return True


def _node_compatible(r: IofptaNode, b: IofptaNode, bound_scale: float) -> bool:
    """The Hoeffding test of every action of two expanded nodes.

    One pass over each side's edges tests every action whose bound is at most
    1; a key only b has differs by its frequency on b's side.
    """
    tested = {}
    r_totals = _totals_of(r)
    for action, n2 in _totals_of(b).items():
        n1 = r_totals.get(action, 0)
        if n1:
            bound = bound_scale * (
                (_INV_SQRT[n1] if n1 < _INV_SQRT_LEN else 1.0 / sqrt(n1))
                + (_INV_SQRT[n2] if n2 < _INV_SQRT_LEN else 1.0 / sqrt(n2)))
            if bound <= 1.0:  # frequency differences never exceed 1
                tested[action] = (n1, n2, bound)
    if not tested:
        return True
    r_edges, b_edges = r.edges, b.edges
    for key, r_edge in r_edges.items():
        test = tested.get(key[0])
        if test is not None:
            n1, n2, bound = test
            b_edge = b_edges.get(key)
            f2 = 0 if b_edge is None else b_edge[0]
            if abs(r_edge[0] / n1 - f2 / n2) >= bound:
                return False
    for key, b_edge in b_edges.items():
        test = tested.get(key[0])
        if test is not None and key not in r_edges and b_edge[0] / test[1] >= test[2]:
            return False
    return True


def _tail_compatible(r: IofptaNode, b: IofptaNode, bound_scale: float) -> bool:
    """Compatibility of a pair in which at least one node is a tail.

    Walks the tail along the other side. At each step the tail side has n=1,
    and the test is symmetric, so which side is the tail does not matter.
    The step's bound against the other side's n is
    bound_scale * (1/sqrt(n) + 1), and a frequency difference can reach it
    only if it is at most 1. There the tail's own key differs by 1 - f0/n, and
    every other key of the action by f/n <= (n - f0)/n, so those are scanned
    only if (n - f0)/n can fail. Past a tree edge whose count m gives
    bound_scale * (1/sqrt(m) + 1) above 1, every step's bound is above 1.
    """
    if b.steps is not None:
        tail, other = b, r
    else:
        tail, other = r, b
    steps = tail.steps
    for pos in range(tail.pos, len(steps)):
        if other.steps is not None:
            return True  # two tails: every bound exceeds 1
        key = steps[pos]
        edge = other.edges.get(key)
        totals = other._totals
        if totals is None:  # _totals_of, inlined on this per-step path
            totals = _totals_of(other)
        if edge is None:
            # The tail's key is unseen: rejected iff its action is tested.
            n = totals.get(key[0], 0)
            return not n or bound_scale * (1.0 / sqrt(n) + 1.0) > 1.0
        n = totals[key[0]]
        f0 = edge[0]
        if f0 != n:  # else the tail's key is the action's only one: no difference
            bound = bound_scale * (1.0 / sqrt(n) + 1.0)
            if bound <= 1.0:
                if 1.0 - f0 / n >= bound:
                    return False
                if (n - f0) / n >= bound:
                    action = key[0]
                    for k, e in other.edges.items():
                        if k[0] == action and k != key and e[0] / n >= bound:
                            return False
        other = edge[1]
        if other.red_index is None and bound_scale * (1.0 / sqrt(edge[0]) + 1.0) > 1.0:
            return True  # no count below a tree edge exceeds the edge's
    return True


def _fold(target: IofptaNode, source: IofptaNode) -> None:
    """Add source's subtree frequencies into target's region of the automaton.

    A stack holds the (target, source) pairs still to fold. A tail source adds
    its path; otherwise each source edge adds its count to target's matching
    edge, whose pair of children is pushed, or its record moves over whole,
    with its subtree. The walk descends the unmerged source tree, so it
    terminates even though the target region may contain cycles; the source
    tree is dropped afterwards, so its records may be shared.
    """
    pairs = [(target, source)]
    while pairs:
        target, source = pairs.pop()
        if source.steps is not None:
            _add_path(target, source.steps, source.pos)
        elif source.edges:
            target.expand()
            target._totals = None
            edges = target.edges
            for key, s_edge in source.edges.items():
                t_edge = edges.get(key)
                if t_edge is None:
                    edges[key] = s_edge
                else:
                    t_edge[0] += s_edge[0]
                    pairs.append((t_edge[1], s_edge[1]))


def run_ioalergia(
    traces: Iterable[ObsTrace], config: LearnerConfig = LearnerConfig()
) -> DeterministicLabeledMdp:
    """Learn a deterministic labeled MDP from a multiset of observation traces.

    The tree root becomes the initial state. Blue nodes (non-promoted children
    of promoted states) are processed in rounds over the promoted states in
    promotion order: each state's blue children go in (action, observation)
    order, including those that a fold grafts onto it meanwhile, and the scan
    wraps around until a full round of states has no blue child. Each blue
    node is merged into the first compatible promoted state, or promoted
    itself. The same sample in the same order yields the identical model.
    """
    root = build_iofpta(traces).root
    root.red_index = 0
    red: list[IofptaNode] = [root]

    # Folding can graft new blue nodes onto earlier promoted states, so the
    # scan comes back to every state until a round finds nothing to do.
    i = idle = 0
    while idle < len(red):
        edge = _first_blue_edge(red[i])
        if edge is None:
            idle += 1
            i = (i + 1) % len(red)
            continue
        idle = 0
        blue = edge[1]
        for candidate in red:
            if candidate.label == blue.label and compatible(
                candidate, blue, config.eps_al
            ):
                edge[1] = candidate
                _fold(candidate, blue)
                break
        else:
            blue.expand()
            blue.red_index = len(red)
            red.append(blue)

    counts: dict[tuple[int, str], dict[int, int]] = {}
    for node in red:
        for (action, _), (count, child) in node.edges.items():
            succ = child.red_index
            entry = counts.setdefault((node.red_index, action), {})
            entry[succ] = entry.get(succ, 0) + count
    return DeterministicLabeledMdp.from_counts(
        0, sorted({action for (_, action) in counts}),
        {node.red_index: node.label for node in red}, counts)


def _first_blue_edge(node: IofptaNode) -> list | None:
    """The edge record of node's least-keyed blue child, or None."""
    best_key = best = None
    for key, edge in node.edges.items():
        if edge[1].red_index is None and (best is None or key < best_key):
            best_key, best = key, edge
    return best


class _PairMemo(dict):
    """Maps (action, reward, obs) steps to (action, obs) pairs, one tuple per
    distinct pair; it lives for one call."""

    __slots__ = ("_shared",)

    def __init__(self) -> None:
        self._shared: dict[tuple[str, str], tuple[str, str]] = {}

    def __missing__(self, step: tuple[str, float, str]) -> tuple[str, str]:
        pair = (step[0], step[2])
        pair = self[step] = self._shared.setdefault(pair, pair)
        return pair


def observation_traces(episodes: Iterable[RewardObservationTrace]) -> list[ObsTrace]:
    """Each episode without its rewards, as (initial observation, (action,
    observation) steps), with one shared tuple for all equal pairs, which
    speeds up the learner's key lookups. Each step costs one dict lookup;
    only a step unequal to all before it builds a pair."""
    pairs = _PairMemo().__getitem__
    return [(t.initial_obs, tuple(map(pairs, t.steps))) for t in episodes]


def observation_traces_from_file(path) -> list[ObsTrace]:
    """Load a trace file, discarding the rewards (see `observation_traces`)."""
    return observation_traces(read_trace_file(path))
