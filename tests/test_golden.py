"""Golden digests: the bytes that `simulate` and `monitor` write for two fixed
runs, pinned so that a change to the trace or log codecs cannot move them.

The tests elsewhere that call outputs byte-identical compare two runs of the
same code; these compare against digests recorded from an earlier version.
Each key names an output file or a command's stdout/stderr.
"""

import hashlib

from tsmon.specs import spec_path

from conftest import run_cli

ABP_GOLDEN = {
    "simulate.stdout": "02669275cd6babca73ac9e93454b05aadde4e7b736dfa008a0227145588629b6",
    "simulate.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate.exit": 0,
    "abp/manifest.json": "c4a21e2fa60a7709dd16d4b3d94d41d0f0e5e22a7ced777af155d2bcd15819d0",
    "abp/receiver.jsonl": "e61ebc915a1842d3c05cc1937fac0e6a9431992872a6afa72587d73455234ab8",
    "abp/sender.jsonl": "85226a5585717244a7294aad6570a74660c68de4af854e792512e74806fe760b",
    "monitor-receiver.stdout": "c9c9ac46a72da31f9d86a7c778c1d3a3c01a6ce51f8c9090c442fcfa32789285",
    "monitor-receiver.stderr": "769f6467fb301330eebcddaa49edd6c214800079a5e76615a9ca36fb1ec57db5",
    "monitor-receiver.exit": 1,
    "monitor-sender.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "monitor-sender.stderr": "f616aae37e547d86b4a3957b353b63db0662ec5420235109be93f5842aaaa430",
    "monitor-sender.exit": 0,
}

BITVOTE_GOLDEN = {
    "simulate.stdout": "34745102ce1299806f3341c2a055415dada54234f15fe6a8d19160717da7259f",
    "simulate.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate.exit": 0,
    "bitvote/leader.jsonl": "025344058ece59f7f5f8c3d0fc6f094f59d5834d20a7d65bf6662957f12a03bd",
    "bitvote/manifest.json": "efd3345503542150defd58a531a2434b9af3932a7c2f15be22109577992202a0",
    "bitvote/peer0.jsonl": "51a42c5819ae75b7aa42634296293c5a3944741343e173d858535f6e4fba134a",
    "bitvote/peer1.jsonl": "4bb841b9b910347cee0934c5f026a93f231783a3c2b8bb10ef76ddf73b32d578",
    "bitvote/peer2.jsonl": "78b0b38ae8ed2df8bdee4f3002643e6437b059015a581eab2cd5a588c693ab3a",
    "monitor-leader.stdout": "d0a0f0b15a3c2c6d8358bbd056f0bbf5c607fc6d11c3c597d8db861790ff0074",
    "monitor-leader.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "monitor-leader.exit": 1,
    "leader.log": "883d26926c56036e9f63dfd8cde2376b3b49aa5a8c483c072b5558992c2cd773",
    "monitor-peer0.stdout": "75c63db1a981734f7799a5de20bd06e20b6970da325b81c90583665010f4d011",
    "monitor-peer0.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "monitor-peer0.exit": 0,
    "peer0.log": "e4b1081c5a50b81fa16092b576cd67fc1202f87c25d60bd5cd06b1ebc5553495",
    "monitor-peer1.stdout": "5da0a36876a99f59732a930481ff7720cff97a81f3ad4ae81f9b4a6f84599efb",
    "monitor-peer1.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "monitor-peer1.exit": 0,
    "peer1.log": "38adeb44f1b1bd408c3d3d959d0ff5e351482a3010563811448c5e5dc9fdd3ee",
    "monitor-peer2.stdout": "e113d56be10de8a89df75ffe07156c19f70550901fd90529630dd3293c8b82f8",
    "monitor-peer2.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "monitor-peer2.exit": 0,
    "peer2.log": "d3a4964dc940b0b0e6998f49fa6e9005924d36ea6fb748eea11c5135487de965",
}


def _sha(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _invoke(digests, name, args):
    result = run_cli(args)
    digests[f"{name}.stdout"] = _sha(result.stdout)
    digests[f"{name}.stderr"] = _sha(result.stderr)
    digests[f"{name}.exit"] = result.exit_code


def _files(digests, root, sub):
    for path in sorted((root / sub).iterdir()):
        digests[f"{sub}/{path.name}"] = _sha(path.read_bytes())


def abp_digests(tmp_path):
    """abp with loss, duplication and a lazy receiver; both traces monitored,
    the log going to stdout and the summary to stderr."""
    digests = {}
    out = tmp_path / "abp"
    _invoke(
        digests,
        "simulate",
        ["simulate", "abp", "--rounds", "300", "--drop", "0.2", "--dup", "0.1",
         "--ack-rate", "0.7", "--seed", "7", "--out", str(out)],
    )
    _files(digests, tmp_path, "abp")
    for name in ("receiver", "sender"):
        _invoke(
            digests,
            f"monitor-{name}",
            ["monitor", str(spec_path(name)), "--trace", str(out / f"{name}.jsonl"),
             "--error", "0.05", "--warmup", "20"],
        )
    return digests


def bitvote_digests(tmp_path):
    """A bitvote session that does not crash; every participant monitored,
    the log going to a file and the summary to stdout."""
    digests = {}
    out = tmp_path / "bitvote"
    _invoke(
        digests,
        "simulate",
        ["simulate", "bitvote", "--rounds", "10", "--n", "3", "--drop", "0.2",
         "--dup", "0.1", "--seed", "2", "--out", str(out)],
    )
    _files(digests, tmp_path, "bitvote")
    for name in ("leader", "peer0", "peer1", "peer2"):
        log = tmp_path / f"{name}.log"
        _invoke(
            digests,
            f"monitor-{name}",
            ["monitor", str(spec_path("leader" if name == "leader" else "peer")),
             "--trace", str(out / f"{name}.jsonl"), "--log", str(log)],
        )
        digests[log.name] = _sha(log.read_bytes())
    return digests


def test_abp_outputs_match_golden_digests(tmp_path):
    assert abp_digests(tmp_path) == ABP_GOLDEN


def test_bitvote_outputs_match_golden_digests(tmp_path):
    assert bitvote_digests(tmp_path) == BITVOTE_GOLDEN
