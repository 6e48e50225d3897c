"""Simulation behaviour, determinism, conformance, and quorum safety."""

import copy
import gc
import hashlib
import json
import pickle
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmon import simnet, specs
from tsmon.monitor import MonitorConfig, TraceEvent, VERDICT_ILLEGAL, run_trace, write_trace
from tsmon.semantics import IllegalActionError, Transition, initial_config, scope_of, step
from tsmon.simnet import (
    AbpConfig,
    BitVoteConfig,
    NetConfig,
    SimRun,
    SplitMix64,
    majority_bit,
    run_abp,
    run_bitvote,
    write_run,
)

from growth import assert_grows_linearly


class _ScalarSplitMix64:
    """SplitMix64 with one mix per draw, written out: the oracle for the
    draws that ``SplitMix64`` makes a block at a time."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) / 2**53

    def randrange(self, n):
        return self.next_u64() % n

    def bit(self):
        return self.next_u64() & 1

    def split(self):
        return _ScalarSplitMix64(self.next_u64())


_DRAWS = ("next_u64", "uniform", "bit", "randrange")


def _draw(rng, name, n):
    """One draw by ``name``, as a value to compare; floats by their hex form."""
    if name == "randrange":
        return rng.randrange(n)
    value = getattr(rng, name)()
    return value.hex() if name == "uniform" else value


class TestSplitMix64:
    def test_known_sequence(self):
        # Reference values for seed 1234567: the widely published SplitMix64
        # test vector.
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_uniform_range(self):
        rng = SplitMix64(99)
        for _ in range(1000):
            assert 0.0 <= rng.uniform() < 1.0

    def test_split_streams_differ(self):
        master = SplitMix64(5)
        a, b = master.split(), master.split()
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 - 1])
    def test_uniform_is_the_documented_draw(self, seed):
        # uniform()'s floats are bit-equal to the 53 high bits of the oracle's
        # next_u64() over 2**53, on a master stream and on one split off it.
        for rng, twin in [
            (SplitMix64(seed), _ScalarSplitMix64(seed)),
            (SplitMix64(seed).split(), _ScalarSplitMix64(seed).split()),
        ]:
            drawn = [rng.uniform().hex() for _ in range(10_000)]
            expected = [((twin.next_u64() >> 11) / 2**53).hex() for _ in range(10_000)]
            assert drawn == expected

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**64 - 1),
        program=st.lists(
            st.tuples(st.sampled_from(_DRAWS + ("split",)), st.integers(0, 7), st.integers(1, 100),
                      st.integers(1, 2**70)),
            max_size=12,
        ),
    )
    def test_every_draw_is_the_oracles(self, seed, program):
        # Blocks end after 16, 48, 112, 240, 496 and 752 draws, the last two
        # at the cap of 256 outputs.  The program interleaves draws of every
        # kind on the master and on streams split off it, then each stream
        # draws 520 more, so each has crossed at least the first five.
        streams = [(SplitMix64(seed), _ScalarSplitMix64(seed))]
        for name, stream, count, n in program:
            rng, twin = streams[stream % len(streams)]
            if name == "split":
                streams.append((rng.split(), twin.split()))
                continue
            for _ in range(count):
                assert _draw(rng, name, n) == _draw(twin, name, n)
        for rng, twin in streams:
            for i in range(520):
                assert _draw(rng, _DRAWS[i % 4], 3 + i) == _draw(twin, _DRAWS[i % 4], 3 + i)

    @pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy, lambda rng: pickle.loads(pickle.dumps(rng))])
    def test_a_copy_makes_the_same_draws_on_its_own(self, twin):
        rng = SplitMix64(8)
        rng.next_u64()
        other = twin(rng)
        drawn = [rng.next_u64() for _ in range(40)]
        assert [other.next_u64() for _ in range(40)] == drawn

    def test_state_is_after_the_last_block_made(self):
        # The first draw makes a block of 16 outputs, the 17th one of 32.
        rng = SplitMix64(41)
        rng.next_u64()
        assert rng.state == (41 + 16 * 0x9E3779B97F4A7C15) % 2**64
        for _ in range(16):
            rng.next_u64()
        assert rng.state == (41 + 48 * 0x9E3779B97F4A7C15) % 2**64

    def test_splitmix_grows_linearly_in_draws(self):
        def prepare(draws):
            def call():
                uniform = SplitMix64(draws).uniform
                for _ in range(draws):
                    uniform()

            return call

        assert_grows_linearly(prepare, 20_000)

    def test_the_cap_bounds_what_a_generator_holds(self, monkeypatch):
        # At the cap a generator holds at most 256 outputs and three lane
        # constants of 4 KB, about 22 KB; with no cap its blocks would have
        # grown to 65,536 outputs by the 100,000th draw.
        def held_after_draws():
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                rng = SplitMix64(3)
                for _ in range(100_000):
                    rng.next_u64()
                return tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()

        assert held_after_draws() < 40_000
        monkeypatch.setattr(simnet, "_MAX_LANES", 2**20)
        assert held_after_draws() > 1_000_000


class TestMajority:
    def test_majority_of_three(self):
        assert majority_bit([0, 1, 1]) == 1

    def test_tie_and_empty_give_zero(self):
        assert majority_bit([0, 1]) == 0
        assert majority_bit([]) == 0


class TestAbp:
    def test_lossless_three_rounds(self):
        run = run_abp(AbpConfig(net=NetConfig(seed=7), rounds=3))
        assert [(e.action, e.direction) for e in run.traces["sender"]] == [
            ("msg", "out"),
            ("ack", "in"),
        ] * 3
        assert [(e.action, e.direction) for e in run.traces["receiver"]] == [
            ("msg", "in"),
            ("ack", "out"),
        ] * 3
        assert not run.truncated

    def test_lossy_run_completes_all_rounds(self):
        run = run_abp(AbpConfig(net=NetConfig(seed=3, drop_prob=0.5), rounds=20))
        sender = run.traces["sender"]
        msgs = sum(e.action == "msg" for e in sender)
        acks = sum(e.action == "ack" for e in sender)
        assert acks == 20  # one ack per bit emission, by construction
        assert msgs >= 20  # losses force resends

    def test_single_round_receiver_ratio(self):
        run = run_abp(AbpConfig(net=NetConfig(seed=1), rounds=1))
        receiver = specs.load("receiver")
        result = run_trace(receiver, MonitorConfig(warmup=0), run.traces["receiver"])
        assert [e.observed for e in result.log] == [1.0]  # only the ack is at R1

    def test_seq_numbers_strictly_increase(self):
        run = run_abp(AbpConfig(net=NetConfig(seed=5, drop_prob=0.3), rounds=10))
        for trace in run.traces.values():
            assert [e.seq for e in trace] == list(range(len(trace)))
            assert {type(e) for e in trace} == {TraceEvent}

    def test_run_abp_grows_linearly(self):
        # Each event costs the same however many came before it: eight times
        # the rounds take about eight times as long.
        def prepare(rounds):
            net = NetConfig(seed=5, drop_prob=0.2, dup_prob=0.1)
            return partial(run_abp, AbpConfig(net=net, rounds=rounds, ack_prob=0.7))

        assert_grows_linearly(prepare, 500)

    def test_write_run_grows_linearly_in_events(self, tmp_path):
        def prepare(rounds):
            run = run_abp(AbpConfig(net=NetConfig(seed=5, drop_prob=0.2, dup_prob=0.1), rounds=rounds))
            return partial(write_run, run, tmp_path / str(rounds))

        assert_grows_linearly(prepare, 500)

    def test_lazy_receiver_acks_fewer_msgs(self):
        run = run_abp(AbpConfig(net=NetConfig(seed=9), rounds=50, ack_prob=0.6))
        receiver = run.traces["receiver"]
        msgs = sum(e.action == "msg" for e in receiver)
        acks = sum(e.action == "ack" for e in receiver)
        assert acks < msgs

    def test_ratio_ground_truth_lossless(self):
        # The first msg is consumed at R0 and not counted, so the R1 counters
        # balance exactly at every even-indexed monitored event, keeping the
        # observed ratio within 1/(n+1) of 0.5 throughout.
        from tsmon.monitor import Monitor

        run = run_abp(AbpConfig(net=NetConfig(seed=2), rounds=40))
        m = Monitor(specs.load("receiver"), MonitorConfig(warmup=0))
        log = []
        for ev in run.traces["receiver"]:
            log += m.feed((ev,))
            monitored = m.n.get("R1", 0)
            if monitored and monitored % 2 == 0:
                assert m.p[("R1", "msg")] == m.p[("R1", "ack")]
        for i, entry in enumerate(log):
            assert abs(entry.observed - 0.5) <= 1 / (i + 1) + 1e-12


class TestBitVote:
    def test_lossless_single_round(self):
        run = run_bitvote(BitVoteConfig(net=NetConfig(seed=7)))
        leader_actions = [e.action for e in run.traces["leader"]]
        assert leader_actions == ["vreq", "vack", "vack", "vwb"]
        spec = specs.load("leader")
        cfg = initial_config(spec)
        for e in run.traces["leader"]:
            cfg = step(spec, cfg, e.action).next
        assert cfg.store.vars == {"acks": 0, "retries": 5}

    def test_silent_peers_exhaust_retries(self):
        run = run_bitvote(
            BitVoteConfig(net=NetConfig(seed=7), peer_to_leader_drop=1.0)
        )
        leader_actions = [e.action for e in run.traces["leader"]]
        assert leader_actions == ["vreq"] * 5 + ["vwb"]

    def test_peers_answer_each_round(self):
        run = run_bitvote(BitVoteConfig(net=NetConfig(seed=4), voting_rounds=6))
        for name in ("peer0", "peer1"):
            actions = [e.action for e in run.traces[name]]
            assert actions.count("vack") == actions.count("vreq") == 6
            assert actions.count("vwb") == 6

    def test_quorum_safety(self):
        # Replaying the leader trace, every vwb happens in the write-back
        # state, entered by a step whose predicate actually triggered.
        spec = specs.load("leader")
        for seed in range(6):
            run = run_bitvote(
                BitVoteConfig(
                    net=NetConfig(seed=seed, drop_prob=0.3), voting_rounds=4
                )
            )
            cfg = initial_config(spec)
            entered_by_trigger = False
            for ev in run.traces["leader"]:
                if ev.action == "vwb":
                    assert cfg.state == "L2"
                    assert entered_by_trigger
                out = step(spec, cfg, ev.action)
                entered_by_trigger = out.triggered and out.next.state == "L2"
                cfg = out.next

    def test_run_bitvote_grows_linearly_in_rounds(self):
        def prepare(rounds):
            net = NetConfig(seed=5, dup_prob=0.1)
            return partial(run_bitvote, BitVoteConfig(net=net, n=3, voting_rounds=rounds))

        assert_grows_linearly(prepare, 100)

    def test_run_bitvote_grows_linearly_in_peers(self):
        # Each round every peer gets a request and a write-back and answers
        # once, so eight times the peers make about eight times the events.
        def prepare(n):
            net = NetConfig(seed=5, dup_prob=0.1)
            return partial(run_bitvote, BitVoteConfig(net=net, n=n, voting_rounds=50))

        assert_grows_linearly(prepare, 4)

    def test_drops_delay_but_terminate(self):
        run = run_bitvote(
            BitVoteConfig(net=NetConfig(seed=11, drop_prob=0.4), voting_rounds=5)
        )
        assert not run.truncated
        assert [e.action for e in run.traces["leader"]].count("vwb") == 5


class TestConformance:
    @pytest.mark.parametrize("seed", range(5))
    def test_abp_zero_fault_traces_are_legal(self, seed):
        run = run_abp(AbpConfig(net=NetConfig(seed=seed), rounds=10))
        conf = MonitorConfig()
        for name, spec_name in (("sender", "sender"), ("receiver", "receiver")):
            result = run_trace(specs.load(spec_name), conf, run.traces[name])
            assert not any(e.verdict == VERDICT_ILLEGAL for e in result.log)

    @pytest.mark.parametrize("seed", range(5))
    def test_bitvote_zero_fault_traces_are_legal(self, seed):
        run = run_bitvote(BitVoteConfig(net=NetConfig(seed=seed), voting_rounds=5))
        conf = MonitorConfig()
        for name, trace in run.traces.items():
            spec = specs.load("leader" if name == "leader" else "peer")
            result = run_trace(spec, conf, trace)
            assert not any(e.verdict == VERDICT_ILLEGAL for e in result.log)

    @pytest.mark.parametrize("seed", range(5))
    def test_faulty_network_traces_stay_legal(self, seed):
        # Loss, duplication and jitter may reorder deliveries, but recorded
        # executions still follow each participant's typestate.
        run = run_abp(
            AbpConfig(
                net=NetConfig(seed=seed, drop_prob=0.3, dup_prob=0.2, jitter=3),
                rounds=15,
            )
        )
        conf = MonitorConfig()
        for name in ("sender", "receiver"):
            result = run_trace(specs.load(name), conf, run.traces[name])
            assert not any(e.verdict == VERDICT_ILLEGAL for e in result.log)
        run = run_bitvote(
            BitVoteConfig(
                net=NetConfig(seed=seed, drop_prob=0.3, dup_prob=0.2, jitter=3),
                voting_rounds=4,
            )
        )
        for name, trace in run.traces.items():
            spec = specs.load("leader" if name == "leader" else "peer")
            result = run_trace(spec, conf, trace)
            assert not any(e.verdict == VERDICT_ILLEGAL for e in result.log)


class TestDeterminism:
    def test_identical_configs_identical_traces(self):
        cfg = AbpConfig(net=NetConfig(seed=17, drop_prob=0.25, jitter=2), rounds=25)
        assert run_abp(cfg).traces == run_abp(cfg).traces
        vcfg = BitVoteConfig(
            net=NetConfig(seed=17, drop_prob=0.25, jitter=2), voting_rounds=5
        )
        assert run_bitvote(vcfg).traces == run_bitvote(vcfg).traces

    def test_written_files_are_byte_identical(self, tmp_path):
        cfg = BitVoteConfig(net=NetConfig(seed=21, drop_prob=0.2), voting_rounds=4)
        write_run(run_bitvote(cfg), tmp_path / "a")
        write_run(run_bitvote(cfg), tmp_path / "b")
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    def test_different_seeds_differ(self):
        a = run_abp(AbpConfig(net=NetConfig(seed=1, drop_prob=0.5), rounds=10))
        b = run_abp(AbpConfig(net=NetConfig(seed=2, drop_prob=0.5), rounds=10))
        assert a.traces != b.traces


class TestNoCyclicGarbage:
    """A run leaves no reference cycle, so dropping its result frees every
    trace event by reference counting, without the cycle collector."""

    NET = NetConfig(seed=3, drop_prob=0.2, dup_prob=0.1, jitter=1)
    CRASH = NetConfig(seed=1, drop_prob=0.3)  # a peer in Pr0 gets a vwb

    @pytest.mark.parametrize(
        "run_fn, cfg, budget, outcome",
        [(run_abp, AbpConfig(net=NET, rounds=200, ack_prob=0.7), simnet.TICK_BUDGET, False),
         (run_abp, AbpConfig(net=NET, rounds=2_000, ack_prob=0.7), simnet.TICK_BUDGET, False),
         (run_abp, AbpConfig(net=NET, rounds=200, ack_prob=0.7), 50, True),
         (run_bitvote, BitVoteConfig(net=NET, n=3, voting_rounds=10), simnet.TICK_BUDGET, False),
         (run_bitvote, BitVoteConfig(net=NET, n=3, voting_rounds=100), simnet.TICK_BUDGET, False),
         (run_bitvote, BitVoteConfig(net=NET, n=3, voting_rounds=100), 50, True),
         (run_bitvote, BitVoteConfig(net=CRASH, n=3, voting_rounds=8), simnet.TICK_BUDGET,
          IllegalActionError)],
        ids=["abp-200", "abp-2000", "abp-truncated", "bitvote-10", "bitvote-100", "bitvote-truncated",
             "bitvote-crash"],
    )
    def test_dropped_run_leaves_no_garbage(self, run_fn, cfg, budget, outcome):
        def truncated_or_raised():
            try:
                return run_fn(cfg, budget).truncated  # the run is dropped here
            except IllegalActionError:
                return IllegalActionError

        assert truncated_or_raised() is outcome  # also loads the specs
        gc.collect()
        gc.disable()
        try:
            assert truncated_or_raised() is outcome
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        cfg = AbpConfig(net=NetConfig(seed=13, drop_prob=0.1), rounds=5)
        manifest = write_run(run_abp(cfg), tmp_path)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        assert manifest["protocol"] == "abp"
        assert manifest["seed"] == 13
        assert manifest["truncated"] is False
        assert manifest["participants"] == ["receiver", "sender"]
        assert manifest["config"]["net"]["drop_prob"] == 0.1

    def test_tick_budget_truncates_gracefully(self, tmp_path):
        cfg = AbpConfig(net=NetConfig(seed=1), rounds=10_000)
        run = run_abp(cfg, tick_budget=50)
        assert run.truncated
        assert run.ticks <= 50
        acks = sum(e.action == "ack" for e in run.traces["sender"])
        assert 0 < acks < 10_000
        manifest = write_run(run, tmp_path)
        assert manifest["truncated"] is True

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetConfig(drop_prob=1.5)
        with pytest.raises(ValueError):
            NetConfig(dup_prob=-0.1)
        with pytest.raises(ValueError):
            AbpConfig(rounds=0)
        with pytest.raises(ValueError):
            BitVoteConfig(n=0)
        with pytest.raises(ValueError):
            BitVoteConfig(peer_to_leader_drop=1.5)


GRID_SEEDS = range(12)
GRID_FAULTS = ((0.0, 0.0), (0.2, 0.1), (0.5, 0.3))
ABP_GRID_DIGEST = "19a67ac42d84e95158a9931dc8b6347f6779cd459a470c6cc99e584fe0a3caf2"
BITVOTE_GRID_DIGEST = "bf6265bf4277b0b64d99dbdb21a8750b167c9814bbe6f385d69f7c34bfd2fc3e"


def _abp_grid():
    for seed in GRID_SEEDS:
        for drop, dup in GRID_FAULTS:
            yield AbpConfig(
                net=NetConfig(seed=seed, drop_prob=drop, dup_prob=dup, jitter=seed % 3),
                rounds=200,
                ack_prob=1.0 if seed % 2 else 0.7,
            )


def _bitvote_grid():
    for seed in GRID_SEEDS:
        for drop, dup in GRID_FAULTS:
            for n in (1, 3):
                for p2l in (None, 0.5):
                    yield BitVoteConfig(
                        net=NetConfig(seed=seed, drop_prob=drop, dup_prob=dup, jitter=seed % 3),
                        n=n,
                        voting_rounds=10,
                        peer_to_leader_drop=p2l,
                    )


def _run_digest(hasher, label, run_fn, cfg):
    """Feed one run's traces, ticks and truncation flag into ``hasher``, or
    the exception's type and message when the run raises."""
    hasher.update(label.encode())
    try:
        run = run_fn(cfg)
    except Exception as exc:  # noqa: BLE001 - a crash is part of the output
        hasher.update(f"raised {type(exc).__name__}: {exc}\n".encode())
        return
    hasher.update(f"ticks={run.ticks} truncated={run.truncated}\n".encode())
    for name in sorted(run.traces):
        for e in run.traces[name]:
            hasher.update(
                f"{e.participant} {e.action} {e.direction} {e.value!r} {e.seq}\n".encode()
            )


class TestGridDigest:
    """Both simulators over a seed x fault x jitter x n x per-direction-drop
    grid, hashed and pinned against a digest recorded from an earlier
    version: a change to the event loop, the network or a handler that moves
    any delivery, random draw or crash changes the digest."""

    def test_abp_grid(self):
        hasher = hashlib.sha256()
        for cfg in _abp_grid():
            _run_digest(hasher, f"abp {cfg}\n", run_abp, cfg)
        assert hasher.hexdigest() == ABP_GRID_DIGEST

    def test_bitvote_grid(self):
        hasher = hashlib.sha256()
        for cfg in _bitvote_grid():
            _run_digest(hasher, f"bitvote {cfg}\n", run_bitvote, cfg)
        assert hasher.hexdigest() == BITVOTE_GRID_DIGEST


# The two runs whose CLI outputs tests/test_golden.py pins.
GOLDEN_RUNS = [
    (run_abp, AbpConfig(net=NetConfig(seed=7, drop_prob=0.2, dup_prob=0.1), rounds=300, ack_prob=0.7)),
    (run_bitvote, BitVoteConfig(net=NetConfig(seed=2, drop_prob=0.2, dup_prob=0.1), n=3, voting_rounds=10)),
]


def _reachable(root):
    """Every object reachable from ``root``, not following types."""
    found, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) not in found and not isinstance(obj, type):
            found[id(obj)] = obj
            todo.extend(gc.get_referents(obj))
    return list(found.values())


class TestTraceView:
    """A simulated trace is a read-only sequence over one shared head per
    event; it builds each event when it is read, and it behaves as the tuple
    of those events."""

    @pytest.fixture
    def run(self):
        return run_abp(AbpConfig(net=NetConfig(seed=5, drop_prob=0.2, dup_prob=0.1), rounds=30, ack_prob=0.7))

    def test_reads_as_the_tuple_of_its_events(self, run):
        for view in run.traces.values():
            events = tuple(view)
            n = len(events)
            assert len(view) == n > 5
            assert list(view) == list(events) and [e.seq for e in view] == list(range(n))
            assert {type(e) for e in view} == {TraceEvent}
            assert [view[i] for i in range(-n, n)] == [events[i] for i in range(-n, n)]
            assert view[-1] == events[-1] and view[-1].seq == n - 1
            for part in (slice(None), slice(1, 5), slice(-3, None), slice(2, None, 7), slice(None, None, -1),
                         slice(n, n + 9)):
                assert type(view[part]) is tuple and view[part] == events[part]
            for index in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[index]
            with pytest.raises(TypeError):
                view["0"]
            assert view.index(events[3]) == 3 and view.count(events[0]) == 1 and events[2] in view
            assert list(reversed(view)) == list(reversed(events))

    def test_equals_the_tuple_and_prints_as_it(self, run):
        view, twin = run.traces["receiver"], run_abp(run.config).traces["receiver"]
        events = tuple(view)
        assert view == events and events == view and not view != events and not events != view
        assert view == twin and not view != twin and view is not twin
        assert view != events[:-1] and view != run.traces["sender"] and view != ()
        reordered = type(view)([e[:4] for e in reversed(view)])  # a view of the same length
        assert len(reordered) == len(view) and reordered != view and view != events[1:] + events[:1]
        assert view != list(events) and list(events) != view  # as a tuple is not a list
        assert view.__eq__(list(events)) is NotImplemented
        assert repr(view) == repr(events)

    def test_pickles_and_copies(self, run):
        view = run.traces["receiver"]
        twins = [pickle.loads(pickle.dumps(view, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (*twins, copy.copy(view), copy.deepcopy(view)):
            assert type(twin) is type(view) and twin == view and repr(twin) == repr(view)
        assert pickle.loads(pickle.dumps(run)) == run and copy.deepcopy(run) == run

    def test_holds_one_shared_head_per_transition_and_nothing_compiled(self, run):
        for name, view in run.traces.items():
            held = _reachable(view)
            assert not [obj for obj in held if isinstance(obj, Transition) or callable(obj)]
            # At most one head per (state, action) pair of the spec, however
            # many events there are.
            pairs = sum(len(list(body.branches())) for body in specs.load(name).typestate.states.values())
            assert sum(type(obj) is tuple for obj in held) <= pairs < len(view)

    def test_write_run_writes_what_write_trace_writes(self, tmp_path):
        runs = [*GOLDEN_RUNS, *((run_abp, cfg) for cfg in _abp_grid()),
                *((run_bitvote, cfg) for cfg in _bitvote_grid())]
        written = 0
        for i, (run_fn, cfg) in enumerate(runs):
            try:
                run = run_fn(cfg)
            except IllegalActionError:
                continue  # the known vwb crash
            write_run(run, tmp_path / str(i))
            for name, view in run.traces.items():
                write_trace(tmp_path / "expected.jsonl", tuple(view))
                got = (tmp_path / str(i) / f"{name}.jsonl").read_bytes()
                assert got == (tmp_path / "expected.jsonl").read_bytes(), (cfg, name)
                written += 1
        assert written > 400

    def test_a_run_built_by_hand_writes_the_same_files(self, tmp_path):
        # write_run writes a simulated trace from its heads and any other
        # sequence of events through write_trace; both give the same bytes.
        run = GOLDEN_RUNS[1][0](GOLDEN_RUNS[1][1])
        traces = {name: tuple(view) for name, view in run.traces.items()}
        by_hand = SimRun(run.protocol, traces, run.ticks, run.truncated, run.config)
        assert write_run(run, tmp_path / "view") == write_run(by_hand, tmp_path / "tuple")
        for name in ("manifest.json", *(f"{name}.jsonl" for name in traces)):
            assert (tmp_path / "view" / name).read_bytes() == (tmp_path / "tuple" / name).read_bytes()



class TestReplayGrid:
    """Both simulators over seed x drop x dup x jitter, with ack rate 1 and
    0.6 for abp and n = 1 and 3 for bitvote: every trace of a completed run
    replays through the monitor with no illegal entry and ends in the state
    and variables its participant ended in.  Runs that hit the known crash
    (a peer that never saw a vreq gets a vwb) are counted, and the count is
    pinned."""

    SEEDS = range(10)
    FAULTS = [(drop, dup, jitter) for drop in (0.0, 0.3) for dup in (0.0, 0.2) for jitter in (0, 2)]

    @pytest.fixture
    def participants(self, monkeypatch):
        """Every participant the simulators create, in order."""
        made = []

        class Recorded(simnet._Participant):
            def __init__(self, name, spec):
                super().__init__(name, spec)
                self.spec = spec
                made.append(self)

        monkeypatch.setattr(simnet, "_Participant", Recorded)
        return made

    def _replay(self, participants, run_fn, cfg) -> int:
        """1 if the run hit the vwb crash, else 0 after checking each replay."""
        participants.clear()
        try:
            run = run_fn(cfg)
        except IllegalActionError as exc:
            assert str(exc) == "state 'Pr0' offers no action 'vwb'"
            return 1
        finally:  # a run releases its compiled transitions and steps, crashed or not
            assert [(len(p.transitions), len(p.steps)) for p in participants] == [(0, 0)] * len(participants)
        assert sorted(p.name for p in participants) == sorted(run.traces)
        for p in participants:
            result = run_trace(p.spec, MonitorConfig(), run.traces[p.name])
            assert [e for e in result.log if e.verdict == VERDICT_ILLEGAL] == [], (cfg, p.name)
            final = result.final
            assert (final.state, scope_of(final.store)) == (p.state, p.scope), (cfg, p.name)
        return 0

    def test_abp(self, participants):
        crashed = 0
        for seed in self.SEEDS:
            for drop, dup, jitter in self.FAULTS:
                for ack_prob in (1.0, 0.6):
                    net = NetConfig(seed=seed, drop_prob=drop, dup_prob=dup, jitter=jitter)
                    cfg = AbpConfig(net=net, rounds=60, ack_prob=ack_prob)
                    crashed += self._replay(participants, run_abp, cfg)
        assert crashed == 0

    def test_bitvote(self, participants):
        crashed = 0
        for seed in self.SEEDS:
            for drop, dup, jitter in self.FAULTS:
                for n in (1, 3):
                    net = NetConfig(seed=seed, drop_prob=drop, dup_prob=dup, jitter=jitter)
                    cfg = BitVoteConfig(net=net, n=n, voting_rounds=8)
                    crashed += self._replay(participants, run_bitvote, cfg)
        assert crashed == 7  # of 160 runs, all at drop 0.3 and n = 3
