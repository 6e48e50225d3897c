"""A pinned digest of what the parser makes of a fixed set of inputs.

Each input gives one record: the ``(kind, line, column, length)`` of its
``ParseError``, or the serialized spec with every state span and every
branch span.  The inputs are the bundled specs, 200 serialized random
specs, and every single-token replacement, deletion and truncation of the
bundled specs.  A change to the parser that moves an error or a span, or
changes what a spec parses to, changes the digest.

The inputs are built with the lexer under test, so their count and their
own digest are pinned too: a failure of the record digest alone means the
parser moved, not the inputs.
"""

import hashlib

from tsmon import specs
from tsmon.dsl import ParseError, parse_protocol, serialize_protocol

from specgen import _BUNDLED_PIECES, _WORDS, random_wellformed_spec

PINNED_DIGEST = "6615bbe91f3939bbf27502479c441abeb2ecdfca600c87ed91fa2068f19608dc"
PINNED_INPUTS = 28154
PINNED_INPUT_DIGEST = "c5d184b6e4b6d5293a9c6ab9bd029e1720f291f2d5c27946aa618d2d2e55a8ca"


def _join(pieces):
    return "".join(gap + tok for gap, tok in pieces)


def pinned_inputs():
    for name in specs.BUNDLED:
        yield specs.source(name)
    for seed in range(200):
        yield serialize_protocol(random_wellformed_spec(seed))
    for pieces, tail in _BUNDLED_PIECES.values():
        for i, (gap, tok) in enumerate(pieces):
            before, after = _join(pieces[:i]), _join(pieces[i + 1 :]) + tail
            for word in _WORDS:
                if word != tok:
                    yield before + gap + word + after
            yield before + after
            yield before


def _span(span):
    return (span.line, span.column, span.length)


def record(text):
    try:
        spec = parse_protocol(text)
    except ParseError as err:
        return (err.kind, *_span(err.span))
    ts = spec.typestate
    return (
        serialize_protocol(spec),
        [(name, _span(span)) for name, span in ts.state_spans.items()],
        [_span(br.span) for body in ts.states.values() for br in body.branches()],
    )


def digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_parse_records_match_the_pinned_digest():
    assert digest(record(text) for text in pinned_inputs()) == PINNED_DIGEST


def test_pinned_inputs_are_unchanged():
    inputs = list(pinned_inputs())
    assert len(inputs) == PINNED_INPUTS
    assert digest(inputs) == PINNED_INPUT_DIGEST
