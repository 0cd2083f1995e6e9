"""The parsers' bulk decode against their checked line-by-line read.

Each parser decodes the whole file in one bulk pass, and only a failure
reads it again token by token to name the bad line.  Each example takes a
file in ``models/`` or the serialized form of one (which holds no
fractions), may write one of its lines twice, mutates it as the fuzz test
does, and parses it twice: as the parsers run, and with the whole-file
checked read alone.  Both must give an equal model, or raise the same
exception type with the same message.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MODELS_DIR
from ltpdr import cli
from test_parser_fuzz import MODELS, TOKENS, mutate

# The fuzz test's tokens, plus entries that the inline decode accepts in
# form but the model rejects or the checked read must name.
ENTRY_TOKENS = TOKENS + ["(-1,0):1", "(0,-1):1", "(0,5):1", "1:-0.5", "-1:1",
                         "5:1", "0:1/2", "0:1:1", "(0,1,2):1", "(0,1)", "x(0,1):1",
                         "(0,1)x:1", "10,11:1", "[0,1]:1", "1_0", "0:nan",
                         "(0,0):inf",
                         # Line shapes: a tab, line breaks of
                         # ``str.splitlines`` (CR, VT, U+2028), a blank line
                         # and a comment line inside the header.
                         "\t", "\r", "\x0b", "\u2028", "\n\n", "\n# note\n"]

mutation = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                     st.integers(0, 10**6), st.sampled_from(ENTRY_TOKENS))


def with_copied_line(text: str, where) -> str:
    """``text`` with line ``where`` (mod the line count) written twice, as a
    duplicate transition line, or as is for None."""
    lines = text.splitlines()
    if where is not None:
        lines.insert(where % len(lines), lines[where % len(lines)])
    return "\n".join(lines) + "\n"


# extension -> (parser, bulk decode, checked read)
PARSERS = {".kr": (cli.parse_kripke, cli._kripke_bulk, cli._kripke_checked),
           ".mdp": (cli.parse_mdp, cli._mdp_bulk, cli._mdp_checked),
           ".mrm": (cli.parse_mrm, cli._mrm_bulk, cli._mrm_checked)}
SERIALIZE = {".mdp": cli.serialize_mdp, ".mrm": cli.serialize_mrm}


def _texts():
    """(extension, text) of every corpus file and serialized model."""
    for name in MODELS:
        ext = os.path.splitext(name)[1]
        with open(os.path.join(MODELS_DIR, name)) as fh:
            text = fh.read()
        yield ext, text
        if ext in SERIALIZE:
            yield ext, SERIALIZE[ext](PARSERS[ext][0](text))


TEXTS = list(_texts())


def outcome(parse, text):
    """The model ``parse`` reads from ``text``, or its exception's type and
    message."""
    try:
        return parse(text)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def both_reads(ext: str, text: str) -> tuple:
    """The outcome of parsing ``text`` as the parsers run, and with the
    whole-file checked read alone."""
    parse, _bulk, checked = PARSERS[ext]
    return outcome(parse, text), outcome(checked, text)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(TEXTS), st.none() | st.integers(0, 10**6),
       st.lists(mutation, min_size=0, max_size=3))
def test_inline_decode_matches_the_checked_read(source, copied, mutations):
    ext, text = source
    text = mutate(with_copied_line(text, copied), mutations)
    fast, checked = both_reads(ext, text)
    assert fast == checked, text


MRM_HEAD = "states 2\ninit 0\nlambda 1\nsafe 0\ntrans\n"
MDP_HEAD = "states 2\nactions 2\ninit 0\nlambda 1\nsafe 0\ntrans\n"


@pytest.mark.parametrize("ext, text, error", [
    # An entry whose outer characters are not parentheses.
    (".mrm", MRM_HEAD + "0 -> (1,1):1\n1 -> 00,11:1\n",
     "line 7: bad transition entry '00,11:1'"),
    # A duplicate key in a model that is otherwise whole.
    (".mdp", MDP_HEAD + "0 0 -> 0:1\n1 0 -> 1:1\n0 0 -> 1:1\n",
     "line 9: duplicate distribution for state 0 action 0"),
    (".mrm", MRM_HEAD + "0 -> (1,1):1\n1 -> (0,1):1\n0 -> (1,1):1\n",
     "line 8: duplicate distribution for state 0"),
    # A range only the model checks, before a token the decode cannot read.
    (".mdp", MDP_HEAD + "0 0 -> 5:1\n1 0 -> x:1\n",
     "line 7: state index 5 out of range (states 2)"),
    (".mrm", MRM_HEAD + "0 -> (-1,1):1\n1 -> (0,1):1/0\n",
     "line 6: rewards must be nonnegative integers"),
], ids=["parentheses", "mdp-duplicate", "mrm-duplicate", "target-first",
        "reward-first"])
def test_both_reads_name_the_first_bad_line(ext, text, error):
    assert both_reads(ext, text) == ((cli.ParseError, error),) * 2


def test_texts_without_fractions_decode_inline_alone():
    # So the examples above compare two different reads: the bulk decode
    # accepts every text it can, comments and all, with no fallback.
    texts = [(ext, text) for ext, text in TEXTS if "/" not in text]
    assert len(texts) == 11  # the five .kr files, both .mdp, all four serialized
    for ext, text in texts:
        _parse, bulk, checked = PARSERS[ext]
        assert bulk(text) == checked(text)


@pytest.mark.parametrize("name", ["die_by_coin.mrm", "die_by_coin_tight.mrm"])
def test_fractions_decode_inline(name, monkeypatch):
    # Both .mrm corpus files write their probabilities as num/den, which the
    # bulk decode reads as the checked read does, so it is never asked.
    with open(os.path.join(MODELS_DIR, name)) as fh:
        text = fh.read()
    checked = cli._mrm_checked(text)

    def refuse(text):
        raise AssertionError("the checked read ran")

    monkeypatch.setattr(cli, "_mrm_checked", refuse)
    model = cli.parse_mrm(text)
    assert model == checked
    assert model.delta[0] == (((1, 0), 0.25), ((1, 1), 0.75))


def test_a_fractional_threshold_decodes_inline(monkeypatch):
    text = MDP_HEAD.replace("lambda 1", "lambda 1/3") + "0 0 -> 0:2/3 1:1/3\n1 0 -> 1:1\n"
    checked = cli._mdp_checked(text)
    monkeypatch.setattr(cli, "_mdp_checked", None)  # a call would raise
    assert cli.parse_mdp(text) == checked
    assert (checked.threshold, checked.delta[0][0]) == (1 / 3, ((0, 2 / 3), (1, 1 / 3)))


def test_an_unsafe_line_decodes_inline(monkeypatch):
    # The bulk decode reads ``unsafe`` as the complement of its states, with
    # a repeated id and a comment, so the checked read is never asked.
    text = "states 4\ninit 0 1\nunsafe 3 1 3  # two bad states\ntrans\n0 1\n1 3\n"
    checked = cli._kripke_checked(text)
    monkeypatch.setattr(cli, "_kripke_checked", None)  # a call would raise
    assert cli.parse_kripke(text) == checked
    assert (checked.initial, checked.safe) == (0b0011, 0b0101)


BIG = "1" + "0" * 400 + "/3"  # a quotient too large for a float


@pytest.mark.parametrize("ext, text, error", [
    (".mrm", MRM_HEAD + "0 -> (1,1):1\n1 -> (0,1):1/0\n", "line 7: bad probability '1/0'"),
    (".mdp", MDP_HEAD + "0 0 -> 0:1\n1 0 -> 1:1/0\n", "line 8: bad probability '1/0'"),
    (".mrm", MRM_HEAD.replace("lambda 1", "lambda 2/0") + "0 -> (1,1):1\n1 -> (0,1):1\n",
     "line 3: bad threshold '2/0'"),
    (".mdp", MDP_HEAD + f"0 0 -> 0:1\n1 0 -> 1:{BIG}\n", f"line 8: bad probability '{BIG}'"),
    (".mrm", MRM_HEAD.replace("lambda 1", f"lambda {BIG}") + "0 -> (1,1):1\n1 -> (0,1):1\n",
     f"line 3: bad threshold '{BIG}'"),
], ids=["mrm-zero", "mdp-zero", "threshold-zero", "mdp-overflow", "threshold-overflow"])
def test_a_fraction_that_is_no_float_names_its_line(ext, text, error):
    # The bulk decode raises ZeroDivisionError or OverflowError on it; the
    # parser falls back to the checked read, which names the line.
    assert both_reads(ext, text) == ((cli.ParseError, error),) * 2
