"""Deterministic discrete-event simulation of the two bundled protocols.

Participants execute every action on their bundled typestate with
:func:`tsmon.semantics.fire`, each compiling the (state, action) pairs it
meets once into a :class:`tsmon.semantics.Transitions` table, so the emitted
traces conform by construction and a replay reproduces the exact
configuration trajectory.  A transition with no effect and a plain target
moves to that target without the call, which is what ``fire`` returns for
it (see :mod:`tsmon.semantics`); all the abp and peer transitions are such.
Each trace event's direction is the session side of the transition that was
executed.  A participant records one shared head per transition it runs, and
``SimRun.traces`` builds each :class:`TraceEvent` from its head when it is read.
Messages that a participant ignores as outdated or duplicated are not action
executions and do not appear in traces.

Randomness comes from SplitMix64 so runs are reproducible bit for bit from
the seed, also across reimplementations.  A generator mixes its outputs a
block at a time, 16 at first and twice as many per block up to 256, and
hands them out one per draw: the same bits as one mix per draw.

Stream layout: a master generator is seeded with the configured seed; the
network stream is split off first (``master.next_u64()`` seeds it), then one
behaviour stream per consumer in a fixed order (the ABP receiver's laziness
stream; each bit-vote peer's vote stream in peer order).  Per message send
the network stream draws, in order: the drop decision, the duplication
decision, then, when jitter is non-zero, one delay draw per delivered copy.
Broadcasts send to peers in id order.

Scheduling contract: the event loop holds pending handler calls and makes
them ordered by (time, scheduling order); each delivered message copy and
each fired timer is one call.  abp: msg → ``receiver_msg(bit)``, ack →
``sender_ack(bit)``, resend timer → ``resend(epoch)``.  bitvote: vreq →
``peer_vreq(name, round)``, vack → ``leader_vack(sender, round, bit)``,
vwb → ``peer_vwb(name, round, bit)``, retry timer → ``retry(round)``.
"""

from __future__ import annotations

import itertools
import json
import sys
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from . import semantics, specs
from .model import ProtocolSpec, Record, _setattr
from .monitor import DIRECTION_IN, DIRECTION_OUT, TraceEvent, _tuple_new, _write_heads, write_trace

__all__ = [
    "AbpConfig",
    "BitVoteConfig",
    "NetConfig",
    "SimRun",
    "SplitMix64",
    "TICK_BUDGET",
    "majority_bit",
    "run_abp",
    "run_bitvote",
    "write_run",
]

TICK_BUDGET = 100_000

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FIRST_LANES, _MAX_LANES = 16, 256  # the outputs of a stream's first and largest blocks
# The low 64-bit word of each 128-bit lane of a block, last lane first.
_LAST_LANE_FIRST = slice(-2, None, -2) if sys.byteorder == "little" else slice(1, None, 2)


def _doubled(n: int, ones: int, steps: int, masks: int) -> tuple[int, int, int, int]:
    """The lane constants of a block of ``2 * n`` lanes from those of ``n``."""
    width = 128 * n
    steps |= (steps + n * _GAMMA * ones) << width
    return 2 * n, ones | ones << width, steps, masks | masks << width


_FIRST_BLOCK = (1, 1, _GAMMA, _MASK64)  # lanes, ones, steps, masks
while _FIRST_BLOCK[0] < _FIRST_LANES:
    _FIRST_BLOCK = _doubled(*_FIRST_BLOCK)


class SplitMix64:
    """SplitMix64 generator: output ``k`` (from 1) of a stream seeded with
    ``s`` is ``mix((s + k * 0x9E3779B97F4A7C15) mod 2**64)``, where ``mix`` is
    the MurmurHash3-style finalizer.  Small and easy to port.

    The outputs are made a block at a time and handed out in order, so every
    stream gives exactly the sequence of one draw per call.  A block packs
    one 128-bit lane per output into one int, and each step of ``mix`` runs
    once on the whole int, masked to 64 bits per lane: a 64 x 64-bit product
    fits its lane, so nothing carries into the next.  A stream's first block
    has 16 lanes and each next one twice as many, up to 256: a stream that
    draws a few times makes at most 16 outputs, and a long one holds at most
    256 outputs and three 4 KB lane constants, which go with it.  ``state``
    is the state after the last output of the last block made, not after
    the last draw handed out."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        # Per lane k (from 0) of the next block: 1, (k + 1) * gamma and the
        # 64-bit mask.
        self._lanes, self._ones, self._steps, self._masks = _FIRST_BLOCK
        self._outputs = [None]  # the outputs in hand, last first, after None

    def __copy__(self) -> SplitMix64:
        """A generator that makes the draws this one would, on its own."""
        twin = SplitMix64.__new__(SplitMix64)
        twin.__dict__.update(self.__dict__, _outputs=self._outputs.copy())
        return twin

    def _block(self) -> int:
        """Make the next block of outputs: return its first and keep the rest."""
        n, ones, masks = self._lanes, self._ones, self._masks
        z = (self.state * ones + self._steps) & masks
        self.state = (self.state + n * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) & masks) * 0xBF58476D1CE4E5B9 & masks
        z = ((z ^ (z >> 27)) & masks) * 0x94D049BB133111EB & masks
        z ^= z >> 31  # the next lane's bits land in the unread high word of each
        outputs = memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")[_LAST_LANE_FIRST].tolist()
        if n < _MAX_LANES:
            self._lanes, self._ones, self._steps, self._masks = _doubled(n, ones, self._steps, masks)
        outputs.insert(0, None)  # popped when the block is used up
        self._outputs = outputs
        return outputs.pop()

    def next_u64(self) -> int:
        z = self._outputs.pop()
        return self._block() if z is None else z

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())

    def uniform(self) -> float:
        """A float in [0, 1) with 53 random bits: ``(next_u64() >> 11) / 2**53``,
        with the draw written out to save a call per draw."""
        z = self._outputs.pop()
        if z is None:
            z = self._block()
        return (z >> 11) / 2.0**53

    def randrange(self, n: int) -> int:
        return self.next_u64() % n

    def bit(self) -> int:
        return self.next_u64() & 1


class NetConfig(Record):
    """Unreliable-channel model: per-send loss/duplication and delays."""

    __slots__ = ("seed", "drop_prob", "dup_prob", "base_delay", "jitter")

    def __init__(
        self, seed: int = 0, drop_prob: float = 0.0, dup_prob: float = 0.0, base_delay: int = 1, jitter: int = 0
    ) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= dup_prob < 1.0:
            raise ValueError("dup_prob must be in [0, 1)")
        if base_delay < 0 or jitter < 0:
            raise ValueError("delays must be non-negative")
        _setattr(self, "seed", seed)
        _setattr(self, "drop_prob", drop_prob)
        _setattr(self, "dup_prob", dup_prob)
        _setattr(self, "base_delay", base_delay)
        _setattr(self, "jitter", jitter)


class AbpConfig(Record):
    """Alternating-bit run: ``rounds`` bit emissions; the sender resends the
    pending bit every ``resend_interval`` ticks.  ``ack_prob`` below 1 models
    a lazy receiver that ignores some messages instead of acknowledging.
    ``net`` defaults to a new ``NetConfig()``."""

    __slots__ = ("net", "rounds", "resend_interval", "ack_prob")

    def __init__(
        self, net: Optional[NetConfig] = None, rounds: int = 1, resend_interval: int = 10, ack_prob: float = 1.0
    ) -> None:
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if resend_interval < 1:
            raise ValueError("resend_interval must be >= 1")
        if not 0.0 < ack_prob <= 1.0:
            raise ValueError("ack_prob must be in (0, 1]")
        _setattr(self, "net", NetConfig() if net is None else net)
        _setattr(self, "rounds", rounds)
        _setattr(self, "resend_interval", resend_interval)
        _setattr(self, "ack_prob", ack_prob)


class BitVoteConfig(Record):
    """Bit-vote run: ``n`` peers, at most ``k`` vote requests per round, a
    new request every ``retry_interval`` ticks while acknowledgements are
    missing.  ``peer_to_leader_drop``, when set, overrides the drop
    probability on the peer-to-leader direction only (and may be 1.0 to cut
    those links entirely).  ``net`` defaults to a new ``NetConfig()``."""

    __slots__ = ("net", "n", "k", "voting_rounds", "retry_interval", "peer_to_leader_drop")

    def __init__(
        self, net: Optional[NetConfig] = None, n: int = 2, k: int = 5, voting_rounds: int = 1,
        retry_interval: int = 10, peer_to_leader_drop: Optional[float] = None,
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        if voting_rounds < 1:
            raise ValueError("voting_rounds must be >= 1")
        if retry_interval < 1:
            raise ValueError("retry_interval must be >= 1")
        if peer_to_leader_drop is not None and not 0.0 <= peer_to_leader_drop <= 1.0:
            raise ValueError("peer_to_leader_drop must be in [0, 1]")
        _setattr(self, "net", NetConfig() if net is None else net)
        _setattr(self, "n", n)
        _setattr(self, "k", k)
        _setattr(self, "voting_rounds", voting_rounds)
        _setattr(self, "retry_interval", retry_interval)
        _setattr(self, "peer_to_leader_drop", peer_to_leader_drop)


class SimRun(Record):
    """Result of one simulation: per-participant traces plus run metadata.
    Its traces are a dict, so it has no hash."""

    __slots__ = ("protocol", "traces", "ticks", "truncated", "config")

    def __init__(
        self, protocol: str, traces: Mapping[str, Sequence[TraceEvent]], ticks: int, truncated: bool,
        config: object,
    ) -> None:
        _setattr(self, "protocol", protocol)
        _setattr(self, "traces", traces)
        _setattr(self, "ticks", ticks)
        _setattr(self, "truncated", truncated)
        _setattr(self, "config", config)

    def manifest(self) -> dict:
        config = self.config
        cfg = {name: getattr(config, name) for name in config.__slots__}
        cfg["net"] = {name: getattr(config.net, name) for name in config.net.__slots__}
        return {
            "protocol": self.protocol,
            "seed": cfg["net"]["seed"],
            "config": cfg,
            "participants": sorted(self.traces),
            "ticks": self.ticks,
            "truncated": self.truncated,
        }


class _Trace(Sequence):
    """A participant's trace, read-only: event ``i`` is built when it is read,
    from head ``i`` and ``seq=i``.  It equals and prints as a tuple of events."""

    def __init__(self, heads: list[tuple]) -> None:
        self._heads = heads

    def __len__(self) -> int:
        return len(self._heads)

    def __getitem__(self, index):
        seqs = range(len(self._heads))[index]
        if isinstance(seqs, range):
            return tuple(map(self.__getitem__, seqs))
        return _tuple_new(TraceEvent, (*self._heads[seqs], seqs))

    def __iter__(self) -> Iterator[TraceEvent]:
        for seq, head in enumerate(self._heads):
            yield _tuple_new(TraceEvent, (*head, seq))

    def __eq__(self, other: object) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _Trace)) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


class _EventLoop:
    """The pending handler calls of a run, and the unreliable channel whose
    surviving message copies become calls."""

    def __init__(self, net: NetConfig, rng: SplitMix64) -> None:
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._order = itertools.count()  # the scheduling order of the calls
        self.now = 0
        self.net, self.rng = net, rng

    def at(self, delay: int, fn: Callable[..., None], args: tuple) -> None:
        """Schedule the call ``fn(*args)`` ``delay`` ticks from now."""
        heappush(self._heap, (self.now + delay, next(self._order), fn, args))

    def send(self, deliver: Callable[..., None], *args, drop: Optional[float] = None) -> None:
        """Schedule ``deliver(*args)`` once per surviving copy; ``drop``, when
        set, replaces the configured drop probability."""
        net, rng = self.net, self.rng
        kept = rng.uniform() >= (net.drop_prob if drop is None else drop)
        duplicated = rng.uniform() < net.dup_prob
        if kept or duplicated:  # then a delay draw per copy when there is jitter
            heap, order, time, jitter = self._heap, self._order, self.now + net.base_delay, net.jitter
            if kept:
                heappush(heap, (time + rng.randrange(jitter + 1) if jitter else time, next(order), deliver, args))
            if duplicated:
                heappush(heap, (time + rng.randrange(jitter + 1) if jitter else time, next(order), deliver, args))

    def run(self, budget: int) -> bool:
        """Make the calls in (time, scheduling) order; True if truncated."""
        heap = self._heap
        while heap:
            time, _, fn, args = heappop(heap)
            if time > budget:
                return True
            self.now = time
            fn(*args)
        return False


class _Participant:
    """Drives one typestate and records its executed actions."""

    def __init__(self, name: str, spec: ProtocolSpec):
        self.name = name
        cfg = semantics.initial_config(spec)
        self.state, self.scope = cfg.state, semantics.scope_of(cfg.store)
        self.transitions = semantics.Transitions(spec, cfg.store.vars)
        # By (state, action) met before: the target of a transition with no
        # effect and a plain target, else None, and the head of its events.
        self.steps: dict[tuple[str, str], tuple[Optional[str], tuple]] = {}
        self.events: list[tuple] = []  # the head of each event

    def execute(self, action: str) -> str:
        """Execute ``action`` and return the next state."""
        step = self.steps.get((self.state, action))
        if step is None:
            step = self._learn(action)
        target, head = step
        if target is None:
            target, self.scope, _ = semantics.fire(
                self.transitions[self.state, action], self.state, action, None, self.scope
            )
        self.state = target
        self.events.append(head)
        return target

    def _learn(self, action: str) -> tuple[Optional[str], tuple]:
        """The step of (state, action), on its first execution."""
        t = self.transitions[self.state, action]
        if t is None:
            semantics.fire(t, self.state, action, None, self.scope)  # raises
        head = (self.name, action, DIRECTION_IN if t.is_input else DIRECTION_OUT, None)
        plain = t.effect is None and t.target is not None  # fire returns the target
        step = self.steps[self.state, action] = (t.target if plain else None, head)
        return step


def _finish(
    protocol: str, cfg: object, loop: _EventLoop, tick_budget: int,
    participants: tuple[_Participant, ...], start: Callable[[], None],
) -> SimRun:
    """Call ``start``, then run ``loop`` within the tick budget; each trace is
    a view of the heads its participant recorded, not a copy.

    The pending calls, the compiled transitions and the cached steps are
    released as soon as the run ends; a trace holds none of them.  The
    handlers of a run call each other through closure cells, and each
    simulator rebinds them to ``None`` when it returns or raises, so no
    reference cycle outlives a run: dropping the :class:`SimRun` frees its
    traces at once, without the cycle collector."""
    try:
        start()
        truncated = loop.run(tick_budget)
    finally:
        loop._heap.clear()  # the pending calls hold handlers
        for p in participants:
            p.transitions.clear()
            p.steps.clear()
    return SimRun(
        protocol=protocol,
        traces={p.name: _Trace(p.events) for p in participants},
        ticks=loop.now,
        truncated=truncated,
        config=cfg,
    )


def majority_bit(votes: Iterable[int]) -> int:
    """Most frequent bit among the votes; ties and the empty case give 0."""
    votes = list(votes)
    return 1 if votes.count(1) > votes.count(0) else 0


# --------------------------------------------------------------------------
# Alternating bit protocol
# --------------------------------------------------------------------------


def run_abp(cfg: AbpConfig, tick_budget: int = TICK_BUDGET) -> SimRun:
    """Simulate one alternating-bit exchange of ``cfg.rounds`` bit emissions.

    The sender emits msg with the pending bit, resending every
    ``resend_interval`` ticks, and flips the bit on a matching ack; stale
    acks are ignored.  The receiver acknowledges every delivered msg
    (duplicates included), except those the laziness draw discards.  A run
    exceeding the tick budget stops gracefully with the truncation flag set.
    """
    master = SplitMix64(cfg.net.seed)
    loop = _EventLoop(cfg.net, master.split())
    lazy_rng = master.split()

    sender = _Participant("sender", specs.load("sender"))
    receiver = _Participant("receiver", specs.load("receiver"))

    bit = 0
    acked = 0

    def emit_msg() -> None:
        sender.execute("msg")
        loop.send(receiver_msg, bit)
        loop.at(cfg.resend_interval, resend, (acked,))

    def resend(epoch: int) -> None:
        # Resend epochs are counted in acks: a timer armed before the ack
        # for its bit arrived is stale and does nothing.
        if epoch == acked and acked < cfg.rounds:
            emit_msg()

    def receiver_msg(msg_bit: int) -> None:
        receiver.execute("msg")
        if lazy_rng.uniform() < cfg.ack_prob:
            receiver.execute("ack")
            loop.send(sender_ack, msg_bit)

    def sender_ack(ack_bit: int) -> None:
        nonlocal bit, acked
        if acked >= cfg.rounds or ack_bit != bit:
            return  # outdated ack, ignored
        sender.execute("ack")
        acked += 1
        if acked < cfg.rounds:
            bit ^= 1
            emit_msg()

    try:
        return _finish("abp", cfg, loop, tick_budget, (sender, receiver), emit_msg)
    finally:  # break the cycles through the handlers' closure cells
        emit_msg = resend = receiver_msg = sender_ack = None


# --------------------------------------------------------------------------
# Bit vote protocol
# --------------------------------------------------------------------------


def run_bitvote(cfg: BitVoteConfig, tick_budget: int = TICK_BUDGET) -> SimRun:
    """Simulate ``cfg.voting_rounds`` rounds of quorum voting.

    Per round the leader broadcasts vreq (at most ``k`` times, one every
    ``retry_interval`` ticks) and counts distinct peer acknowledgements; its
    typestate moves to the write-back state when all ``n`` arrived (P1) or
    the budget is spent (P2), at which point it broadcasts vwb with the
    majority bit and starts the next round.  Peers answer each request of a
    round they have not seen closed with a per-round pseudo-random vote, and
    ignore duplicates and messages of closed rounds.
    """
    master = SplitMix64(cfg.net.seed)
    loop = _EventLoop(cfg.net, master.split())

    leader = _Participant("leader", specs.load("leader"))
    peer_names = [f"peer{i}" for i in range(cfg.n)]
    peer_spec = specs.load("peer")
    peers = {name: _Participant(name, peer_spec) for name in peer_names}
    vote_rngs = {name: master.split() for name in peer_names}

    current = 1  # the leader's round
    votes: dict[str, int] = {}
    finished = False
    pstate = {name: {"max_round": 0, "closed": 0, "vote": 0} for name in peer_names}

    def leader_vreq() -> None:
        state = leader.execute("vreq")
        for name in peer_names:
            loop.send(peer_vreq, name, current)
        if state == "L2":
            finish_round()
        else:
            loop.at(cfg.retry_interval, retry, (current,))

    def finish_round() -> None:
        nonlocal current, votes, finished
        bit = majority_bit(votes.values())
        leader.execute("vwb")
        for name in peer_names:
            loop.send(peer_vwb, name, current, bit)
        if current == cfg.voting_rounds:
            finished = True
            return
        current += 1
        votes = {}
        loop.at(cfg.retry_interval, retry, (current,))

    def retry(rnd: int) -> None:
        if not finished and rnd == current:
            leader_vreq()

    def leader_vack(sender: str, rnd: int, bit: int) -> None:
        if finished or rnd != current or sender in votes:
            return  # outdated or duplicate acknowledgement
        state = leader.execute("vack")
        votes[sender] = bit
        if state == "L2":
            finish_round()

    def peer_vreq(name: str, rnd: int) -> None:
        st = pstate[name]
        if rnd <= st["closed"] or rnd < st["max_round"]:
            return  # a closed or superseded round
        peers[name].execute("vreq")
        if rnd > st["max_round"]:  # one vote per round, repeated on a retry
            st["max_round"] = rnd
            st["vote"] = vote_rngs[name].bit()
        peers[name].execute("vack")
        loop.send(leader_vack, name, rnd, st["vote"], drop=cfg.peer_to_leader_drop)

    def peer_vwb(name: str, rnd: int, bit: int) -> None:
        st = pstate[name]
        if rnd <= st["closed"]:
            return  # duplicate write-back
        peers[name].execute("vwb")
        st["closed"] = rnd

    try:
        return _finish("bitvote", cfg, loop, tick_budget, (leader, *peers.values()), leader_vreq)
    finally:  # break the cycles through the handlers' closure cells
        leader_vreq = finish_round = retry = leader_vack = peer_vreq = peer_vwb = None


# --------------------------------------------------------------------------
# File output
# --------------------------------------------------------------------------


def write_run(run: SimRun, out_dir: str | Path) -> dict:
    """Write one ``<participant>.jsonl`` trace per participant plus
    ``manifest.json`` into ``out_dir``; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(run.traces):
        trace, path = run.traces[name], out / f"{name}.jsonl"
        if type(trace) is _Trace:
            _write_heads(path, trace._heads)  # builds no TraceEvent
        else:
            write_trace(path, trace)
    manifest = run.manifest()
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest
