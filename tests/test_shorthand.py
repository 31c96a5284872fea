"""The command-line shorthand is the language its grammar describes, no larger.

The grammar is written once, in the `gldual.cli` docstring and the README.
The regular expressions below are that grammar written apart from `cli`: the
command line must accept a shorthand text exactly when its expression
matches, apart from refusals of meaning (a block of the wrong size, a cycle
type that does not sum to its exponent, a size limit).  The texts are printed
values and their one-character edits.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from gldual.cli import main, parse_scalar
from gldual.scalars import QScalar

W = r"[ \t\n\r\x0b\x0c\x1c-\x1f]*"  # the ASCII characters that str.strip() removes
N = r"\+?0*[1-9][0-9]*"  # a positive integer
# a rational as exact_rational reads it: a fraction with a nonzero
# denominator, or a decimal with an exponent of at most 100
EXPONENT = r"[eE][-+]?0*(?:[0-9]{1,2}|100)"
R = rf"[-+]?(?:[0-9]+/0*[1-9][0-9]*|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:{EXPONENT})?)"
FACTOR = rf"(?:1|q|q\^{W}{R}|q\^{W}\{{{W}{R}{W}\}}|e\({W}{R}{W}\))"
SCALAR = rf"{W}{FACTOR}(?:{W}\*{W}{FACTOR})*{W}"
SCALARS = rf"{SCALAR}(?:,{SCALAR})*"
TUPLE = rf"{W}\({W}{N}{W}(?:,{W}{N}{W})*\){W}"
GRAMMAR = {
    "component": re.compile(TUPLE),
    "cycle": re.compile(TUPLE),
    "coords": re.compile(rf"{W}\{{{SCALARS}\}}{W}"),
    "point": re.compile(rf"{W}\{{{SCALARS}(?:;{SCALARS})*\}}{W}"),
}

# refusals of a well-formed text for what it means, not how it is written
MEANING = re.compile("|".join([
    r"expected \d+ coordinates, got \d+",
    r"point has \d+ blocks, component has \d+",
    r"block '\w+' expects a multiset of size \d+, got \d+",
    r"partition \([\d, ]*\) does not sum to exponent \d+ of block '\w+'",
    r"parts must be weakly decreasing",
]))

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_scalars = st.builds(QScalar, _rationals, _rationals)


@st.composite
def _scalar_text(draw):
    """A scalar as `str` prints it, or with its exponent in braces and spaces."""
    text = str(draw(_scalars))
    if draw(st.booleans()):
        text = re.sub(r"q\^([-0-9/]+)", r"q^{\1}", text)
    if draw(st.booleans()):
        text = " %s " % text.replace("*", " * ")
    return text


def _tuple(parts):
    return "(%s)" % ",".join(map(str, parts))


@st.composite
def _printed(draw):
    """(kind, the printed text of that kind, argv with {} where the text goes)."""
    kind = draw(st.sampled_from(sorted(GRAMMAR)))
    if kind == "component":
        return kind, _tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))), \
            ["hp", "--component", "{}"]
    if kind in ("cycle", "coords"):
        parts = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)), reverse=True)
        cycle = _tuple(parts)
        coords = "{%s}" % ",".join(draw(_scalar_text()) for _ in parts)
        argv = ["project", "--component", "(%d)" % sum(parts), "--cycle", cycle,
                "--coords", coords]
        at = 4 if kind == "cycle" else 6
        return kind, argv[at], argv[:at] + ["{}"] + argv[at + 1:]
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    point = "{%s}" % ";".join(",".join(draw(_scalar_text()) for _ in range(size))
                              for size in sizes)
    return kind, point, ["fiber", "--component", _tuple(sizes), "--point", "{}"]


# digits, the shorthand's signs, whitespace ASCII and not, other scripts' digits,
# and characters no shorthand holds
_EDIT_CHARACTERS = "0123456789+-/.eEq^{}()*,; \t_\u0663\u00a0\u3000\"x"


@st.composite
def _edited(draw):
    kind, text, argv = draw(_printed())
    if draw(st.integers(0, 3)):  # three texts in four are edited
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(_EDIT_CHARACTERS))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        if how == "insert":
            text = text[:i] + c + text[i:]
        elif i < len(text):
            text = text[:i] + ("" if how == "delete" else c) + text[i + 1:]
    return kind, text, [text if a == "{}" else a for a in argv]


@settings(max_examples=1000, deadline=None)
@given(_edited())
def test_the_command_line_accepts_a_shorthand_exactly_when_the_grammar_does(example):
    kind, text, argv = example
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report = json.loads(out.getvalue())
    if GRAMMAR[kind].fullmatch(text):
        assert code in (0, 3) or MEANING.fullmatch(report["error"]["message"]), report
    else:
        assert code == 2, report


@given(st.builds(QScalar, st.fractions(), st.fractions()))
def test_a_printed_scalar_reads_back_as_itself(z):
    assert parse_scalar(str(z)) == z


def test_the_grammar_takes_every_form_it_documents():
    # the shorthand of the README and the cli docstring
    assert GRAMMAR["component"].fullmatch("(2,1)") and GRAMMAR["cycle"].fullmatch(" ( 3 ) ")
    assert GRAMMAR["point"].fullmatch("{q^-1,1,q;e(1/3)*q^{1/2}, q^0.25 * e(-1e-3)}")
    assert GRAMMAR["coords"].fullmatch("{q,1}")
    for text in ("(2,,1)", "()", "(0)", "(2,1", "{q", "{{q}}", "{q^}1/2{}", "{q^{{1/2}}}",
                 "{q};{1}", "{}", "{q;}", "{q^1_0}", "{q^1/0}", "{q^1e101}", "{q ^2}", "(٣)"):
        assert not any(g.fullmatch(text) for g in GRAMMAR.values()), text
