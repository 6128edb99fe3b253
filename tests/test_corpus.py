"""The differential corpus script runs, is deterministic, and prints what
its checked-in digest table pins."""

import io
import pathlib

import corpus


def test_corpus_runs_on_one_signature():
    first, second = io.StringIO(), io.StringIO()
    corpus.run([(1, 1)], 1, first)
    corpus.run([(1, 1)], 1, second)
    lines = first.getvalue().splitlines()
    assert first.getvalue() == second.getvalue()
    assert lines and all(line.startswith("[1|1] ") for line in lines)
    # every construction printed both encodings, or its error
    errors = [line for line in lines if "Error: " in line]
    texts = [line for line in lines if " json: " not in line]
    docs = [line for line in lines if " json: " in line]
    assert len(texts) == len(docs) + len(errors)
    assert len(docs) > 100
    assert [e.split(": ")[1] for e in errors] == ["CriticalValueError"]
    assert errors[0].startswith("[1|1] k=1 quantize critical: ")


DIGESTS = pathlib.Path(__file__).with_name("corpus_digests.txt")


def test_full_corpus_matches_the_digest_table():
    # one digest per construction and signature, so a failure names what
    # moved; regenerate with ``tests/corpus.py --digests`` only for a change
    # that is meant to move a result
    out = io.StringIO()
    corpus.run(corpus.SIGNATURES, 3, out)
    got = corpus.digests(out.getvalue())
    want = {}
    for line in DIGESTS.read_text().splitlines():
        digest, sig, section = line.split(" ", 2)
        want[(sig, section)] = digest
    assert len(want) == 300
    moved = sorted(f"[{sig}] {section}" for sig, section in want.keys() | got.keys()
                   if want.get((sig, section)) != got.get((sig, section)))
    assert not moved, f"corpus sections that moved: {moved}"
