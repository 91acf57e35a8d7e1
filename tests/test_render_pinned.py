"""Byte-for-byte regression of `formula.render`, `formula.dumps` and
`formula.loads`.

Every sentence of `test_eval_pinned.sentences()` and one rank-1 sentence per
classification row is rendered as text and as LaTeX at family bounds 0, 1,
3, 8 and 20, then serialised (`dumps`) and round-tripped
(`dumps(loads(dumps(f)))`); the sha256 of every output, in order, is pinned.
The digest was computed at commit f3eebf8, whose `dumps` built nested dicts
and ran `json.dumps(..., sort_keys=True)` over them and whose renderer
dispatched through `isinstance` chains, so it pins the text writer and the
class-dispatched renderer to that implementation's output.
"""

import hashlib

from test_eval_pinned import sentences as eval_sentences

from scottgroups import acceptance
from scottgroups import formula as F
from scottgroups import rank1 as R

PINNED_SHA256 = "20a3f6fd6ddda2b0e9252aa0b6e54d7f94c08879ad6f144e1dfb61370459ba41"

BOUNDS = (0, 1, 3, 8, 20)


def sentences():
    return eval_sentences() + [R.scott_sentence(c) for c in acceptance.ROW_EXAMPLES.values()]


def outputs(f):
    """The renders of ``f``, its JSON text and the text of its round trip."""
    for fmt in ("text", "latex"):
        for bound in BOUNDS:
            yield F.render(f, fmt, bound)
    text = F.dumps(f)
    yield text
    yield F.dumps(F.loads(text))


def output_digest() -> str:
    digest = hashlib.sha256()
    for f in sentences():
        for line in outputs(f):
            digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def test_render_and_codec_outputs_are_pinned():
    assert len(sentences()) == 35
    assert output_digest() == PINNED_SHA256
