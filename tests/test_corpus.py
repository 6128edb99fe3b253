"""The differential corpus script runs and is deterministic."""

import io

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
