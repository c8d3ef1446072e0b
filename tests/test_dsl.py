import random
import re
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsx import runner
from nsx.charts import MAX_DIM
from nsx.dsl import (
    CHECK_KINDS,
    MAX_NESTING,
    STATEMENT_SPECS,
    Scenario,
    Statement,
    parse_scenario,
    print_scenario,
    random_scenario,
    tokenize,
)
from nsx.errors import ParseError
from nsx.scenarios import SUITE

F = Fraction


# -- tokenizer -------------------------------------------------------------


def test_tokenize_basics():
    toks = tokenize('form om on C = d(x) # trailing words\ncheck closed om note "n"\n')
    types = [t.type for t in toks]
    assert types.count("NEWLINE") == 2
    assert "STRING" in types
    first = toks[0]
    assert (first.type, first.value, first.line, first.col) == ("NAME", "form", 1, 1)


def test_tokenize_numbers():
    toks = [t for t in tokenize("1 23 4.5 6.0e-2 7") if t.type in ("INT", "FLOAT")]
    assert [(t.type, t.value) for t in toks] == [
        ("INT", 1),
        ("INT", 23),
        ("FLOAT", 4.5),
        ("FLOAT", 0.06),
        ("INT", 7),
    ]


def test_tokenize_collapses_blank_lines():
    toks = tokenize("a\n\n\nb\n")
    assert [t.type for t in toks] == ["NAME", "NEWLINE", "NAME", "NEWLINE", "EOF"]


def test_tokenize_ignores_newlines_inside_groups():
    s = parse_scenario("chart C(x,\n  y)\nform om on C = d(x)\n")
    assert s.statements[0].coords == ("x", "y")


def test_tokenize_unterminated_string():
    with pytest.raises(ParseError) as e:
        tokenize('"no closing quote\n')
    assert (e.value.line, e.value.col) == (1, 1)


# The scanner as it was written before it matched one token per regex match:
# one match per token or run of blanks, and a column counted by hand.  The
# differential tests below hold `tokenize` to it.
_REFERENCE_TOKEN = re.compile(
    r'(?P<SPACE>[ \t\r]+)|(?P<COMMENT>#[^\n]*)|(?P<NEWLINE>\n)|(?P<STRING>"[^"\n]*")'
    r"|(?P<FLOAT>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))|(?P<INT>[0-9]+)|(?P<NAME>\w+)"
    r"|(?P<OP>/\\|->|[-()\[\],=:^+*/∧])"
)


def _reference_tokenize(text):
    toks = []
    line, col, depth, pos = 1, 1, 0, 0
    match = _REFERENCE_TOKEN.match
    while pos < len(text):
        m = match(text, pos)
        kind = m and m.lastgroup
        if kind is None or kind == "NAME" and not (text[pos].isalpha() or text[pos] == "_"):
            if text[pos] == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        end = m.end()
        if kind == "NEWLINE":
            if depth == 0 and toks and toks[-1][0] != "NEWLINE":
                toks.append(("NEWLINE", None, line, col))
            line, col = line + 1, 1
        elif kind != "COMMENT":
            if kind != "SPACE":
                value = text[pos:end]
                if kind == "INT":
                    value = int(value)
                elif kind == "FLOAT":
                    value = float(value)
                elif kind == "STRING":
                    value = value[1:-1]
                elif value in ("(", "["):
                    depth += 1
                elif value in (")", "]"):
                    depth = max(0, depth - 1)
                toks.append((kind, value, line, col))
            col += end - pos
        pos = end
    if toks and toks[-1][0] != "NEWLINE":
        toks.append(("NEWLINE", None, line, col))
    toks.append(("EOF", None, line, col))
    return toks


def _scan_outcome(scan, text):
    """The tokens of `text` as plain tuples, or its ParseError's fields."""
    try:
        return [tuple(t) for t in scan(text)]
    except ParseError as e:
        return ("error", e.message, e.line, e.col)


def _assert_scans_as_reference(text):
    assert _scan_outcome(tokenize, text) == _scan_outcome(_reference_tokenize, text), repr(text)


def test_tokenize_matches_reference_on_suite():
    for _, _, text in SUITE:
        _assert_scans_as_reference(text)


@pytest.mark.parametrize("seed", [1, 11])
def test_tokenize_matches_reference_on_random_corpus(seed):
    rng = random.Random(seed)
    for _ in range(400):
        _assert_scans_as_reference(print_scenario(random_scenario(rng)))


@pytest.mark.parametrize(
    "text",
    ["", " ", "\n", "#", "# c", "x # c", "x\t \r", "(\n)\n", "x\n\n  \n", '"a', 'x "', "1.5e", "1.e5", "1e5", "2E+3", "1e", "1e+", "x²", "٣", "é\u0301", "∧"],
)
def test_tokenize_matches_reference_on_edges(text):
    _assert_scans_as_reference(text)


# Blanks of every kind, comments, strings, brackets, numbers and names with
# characters that \w matches but that are not letters (², ٣) or that are
# not word characters at all (a combining accent).
_SCANNER_ALPHABET = 'ab_xe1059. \t\r\n#"∧٣²é\u0301()[],=:^+-*/\\>'


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=_SCANNER_ALPHABET, max_size=40), st.sampled_from(["", " ", "\t", " \r", "\n  "]))
def test_tokenize_matches_reference_on_any_text(text, tail):
    _assert_scans_as_reference(text + tail)


# -- round trips -----------------------------------------------------------


def test_random_scenarios_round_trip():
    for seed in range(200):
        s = random_scenario(random.Random(seed))
        text = print_scenario(s)
        reparsed = parse_scenario(text)
        assert print_scenario(reparsed) == text, f"seed {seed}"


# The printed form of the 12 suite texts, written by the printer before the
# statement grammar moved into STATEMENT_SPECS.
GOLDEN_PRINT = Path(__file__).parent / "golden" / "suite_print.nsx"


def test_builtin_scenarios_print_as_golden():
    printed = "".join(print_scenario(parse_scenario(text)) for _, _, text in SUITE)
    assert printed == GOLDEN_PRINT.read_text()


def test_builtin_scenarios_round_trip():
    assert len(SUITE) == 12
    for sid, anchor, text in SUITE:
        s = parse_scenario(text)
        assert s.checks(), sid
        printed = print_scenario(s)
        assert print_scenario(parse_scenario(printed)) == printed, sid


# One body per kind with every keyword option and one with none; the
# pointwise kinds also in their at, on and off forms.  Each body is written
# as the printer writes it.
CHECK_BODIES = {
    "closed": ["om"],
    "equal": ["om, d(x)"],
    "rank_at": ["om, 2 at (x=1, y=-1/2)", "om, 2 on L region R", "om, 0 off L region R points 4 margin 1/8"],
    "nearsympl_at": ["om at (x=0, y=0)", "om on L region R points 3 margin 1/4", "om off L region R"],
    "gradient_rank_at": ["om, 3 at (x=0, y=0)"],
    "contact": ["al", "al via (m1, m2) grid 64 aux 8"],
    "vanishing_locus": [
        "om on L region R",
        "om on L region R off positive(om2) via m margin 1/8",
        "om on L region R off negative",
        "om on L region R off none",
    ],
    "rank_drop_locus": ["f on L region R regular 4 singular 3", "f on L region R regular 4 singular 3 margin 1/8"],
    "fixed_points": ["X on L region R", "X on L region R via m margin 1/2"],
    "dividing_set": ["al, X, 5/2*x on L region R", "al, X, x on L region R via m margin 1/8"],
    "pullback_eq": ["m, d(x), d(y)"],
    "bracket_table": ["y1^2 dim 4"],
    "stabilize": ["t, f region R", "t, f region R k_max 64"],
    "property": ["functorial", "dd_zero samples 10 dims (2, 3)"],
    "positive": ["i_X(om) region R"],
}


@pytest.mark.parametrize(
    "kind, body", [(kind, body) for kind, bodies in CHECK_BODIES.items() for body in bodies]
)
def test_check_lines_round_trip(kind, body):
    text = f"check {kind} {body} expect report\n"
    s = parse_scenario(text)
    printed = print_scenario(s)
    assert printed == text
    assert parse_scenario(printed) == s


def test_round_trip_rows_cover_every_kind():
    assert list(CHECK_BODIES) == list(CHECK_KINDS)


# The statement twin of CHECK_BODIES: one body per keyword, every locus
# flavour and both metric forms, each written as the printer writes it and
# each declaring names the preamble leaves free.
STATEMENT_PREAMBLE = (
    "chart C(x, y)\n"
    "chart P(u, v)\n"
    "region R on C = [-1, 1]^2 lattice 2 random 0\n"
    "region S on P = [0, 1]^2 lattice 2 random 0\n"
    "map m : P -> C = (u, u*v)\n"
    "locus L on C = coords(x=0)\n"
    "locus M on C = empty\n"
)
STATEMENT_BODIES = {
    "chart": ["D(s, t, r)"],
    "param": ["a", "a, b"],
    "opaque": ["g, h"],
    "const": ["k = 5/2*pi"],
    "form": ["om on C = x*d(x) /\\ d(y) + sin(y)*d(y) wedge d(x)"],
    "vfield": ["X on C = y*e(x) - x*e(y)"],
    "map": ["f : C -> P = (x + y, x*y)"],
    "metric": ["g on C = euclidean", "g on C = diag(4, 1/9)"],
    "region": ["Q on C = [0, 1] x [-1/2, 1/2] lattice (2, 3) random 4", "Q on P = [0.25, 0.75]^2 lattice 3 random 0"],
    "locus": [
        "K on C = coords(x=0, y=1/2)",
        "K on C = points((0, 0), (1, -1/2))",
        "K on C = image(m, S)",
        "K on C = image(id, R)",
        "K on C = union(L, M)",
        "K on C = empty",
    ],
}


@pytest.mark.parametrize(
    "keyword, body", [(keyword, body) for keyword, bodies in STATEMENT_BODIES.items() for body in bodies]
)
def test_statement_lines_round_trip_and_elaborate(keyword, body):
    text = f"{keyword} {body}\n"
    s = parse_scenario(text)
    printed = print_scenario(s)
    assert printed == text
    assert parse_scenario(printed) == s
    runner.elaborate_scope(parse_scenario(STATEMENT_PREAMBLE + text), runner.RunConfig())


def test_statement_rows_cover_every_keyword():
    assert list(STATEMENT_BODIES) == list(STATEMENT_SPECS)


def test_every_kind_has_a_runner():
    assert set(runner._RUNNERS) == set(CHECK_KINDS)


class _ReadKeys(Mapping):
    """A check payload that records in `read` each key its runner reads."""

    def __init__(self, payload, read):
        self.payload, self.read = payload, read

    def __getitem__(self, key):
        self.read.add(key)
        return self.payload[key]

    def __iter__(self):
        return iter(self.payload)

    def __len__(self):
        return len(self.payload)


def test_every_check_option_is_read(monkeypatch):
    # The suite's checks cover every kind.  Each field that a kind's checks
    # carry is read by the runner of at least one of them, so no option is
    # parsed and then ignored.
    carried, read = {}, {}
    for kind, run in list(runner._RUNNERS.items()):

        def recording(ctx, p, kind=kind, run=run):
            carried.setdefault(kind, set()).update(p)
            return run(ctx, _ReadKeys(p, read.setdefault(kind, set())))

        monkeypatch.setitem(runner._RUNNERS, kind, recording)
    runner.run_suite()
    assert set(carried) == set(CHECK_KINDS)
    assert {kind: keys - read[kind] for kind, keys in carried.items()} == {kind: set() for kind in carried}


def test_keyword_options_in_any_order():
    # A repeated option keeps its last value.
    for canonical, shuffled in [
        ("check contact al via (m) grid 64 aux 8", "check contact al aux 8 grid 3 via (m) grid 64"),
        ("check rank_at om, 2 off L region R points 4 margin 1/8", "check rank_at om, 2 off L region R margin 1/8 points 4"),
        ("check property dd_zero samples 10 dims (2, 3)", "check property dd_zero dims (2, 3) samples 10"),
        ("check vanishing_locus om on L region R off none via m", "check vanishing_locus om on L region R via m off none"),
        ("check vanishing_locus om on L region R off none", "check vanishing_locus om on L region R off positive(om2) off none"),
    ]:
        assert parse_scenario(shuffled) == parse_scenario(canonical)
        assert print_scenario(parse_scenario(shuffled)) == canonical + " expect pass\n"


# -- statement and payload shapes ------------------------------------------


def test_check_payload_and_clause_tail():
    text = (
        "chart C(x, y)\n"
        "param Kp\n"
        "form om on C = d(x) /\\ d(y) * Kp\n"
        'check rank_at om, 2 at (x=1, y=-1/2) where Kp=5 note "n" expect fail\n'
    )
    s = parse_scenario(text)
    (chk,) = s.checks()
    assert chk.kind == "rank_at"
    assert chk.payload["rank"] == 2
    assert chk.payload["point"] == (("x", F(1)), ("y", F(-1, 2)))
    assert chk.where == (("Kp", F(5)),)
    assert chk.note == "n"
    assert chk.expect == "fail"


def test_check_defaults():
    s = parse_scenario("chart C(x, y)\nform om on C = d(x)\ncheck closed om\n")
    (chk,) = s.checks()
    assert chk.expect == "pass"
    assert chk.note == ""
    assert chk.where == ()


def test_region_accepts_floats_and_mixed_syntax():
    text = (
        "chart C(x, y)\n"
        "region R on C = [0.25, 0.75] x [-1, 1] lattice (2, 3) random 5\n"
    )
    r = parse_scenario(text).statements[1]
    assert r.intervals[0] == (0.25, 0.75)
    assert r.intervals[1] == (F(-1), F(1))
    assert r.lattice == (2, 3)
    assert r.random_count == 5


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_FINITE_FLOATS, _FINITE_FLOATS)
def test_float_region_bounds_round_trip(lo, hi):
    for intervals in [((lo, hi),) * 2, ((lo, hi), (F(-1), hi))]:
        region = {"name": "R", "chart": "C", "intervals": intervals, "lattice": (2, 2), "random_count": 0}
        s = Scenario((Statement("region", region),))
        assert parse_scenario(print_scenario(s)) == s


def test_float_region_bounds_print_as_floats():
    # 1e-05 and -1e+20 are the reprs; the printer writes them with a point.
    text = "region R on C = [0.00001, 1] x [-1.0e+20, 2.5] lattice 2 random 0\n"
    printed = print_scenario(parse_scenario(text))
    assert printed == "region R on C = [1.0e-05, 1] x [-1.0e+20, 2.5] lattice 2 random 0\n"
    assert parse_scenario(printed) == parse_scenario(text)


@pytest.mark.parametrize("written, value", [("1e-05", 1e-05), ("2E3", 2000.0), ("-7e+0", -7.0)])
def test_exponent_literals_without_a_point_round_trip(written, value):
    text = f"region R on C = [{written}, 9] lattice 2 random 0\n"
    scenario = parse_scenario(text)
    assert scenario.statements[0].intervals == ((value, F(9)),)
    printed = print_scenario(scenario)
    assert parse_scenario(printed) == scenario
    assert print_scenario(parse_scenario(printed)) == printed


@pytest.mark.parametrize("expr, col", [("2*1e3", 13), ("x + 1E-2*x", 15)])
def test_exponent_literal_in_an_expression_is_a_positioned_error(expr, col):
    # A FLOAT is a region bound only; inside an expression it is no atom.
    with pytest.raises(ParseError) as e:
        parse_scenario(f"chart C(x)\nconst k = {expr}\n")
    assert (e.value.line, e.value.col) == (2, col)
    assert e.value.message == "expected an expression atom"


@pytest.mark.parametrize("dim", [1, MAX_DIM])
def test_property_dims_in_chart_range_parse(dim):
    (chk,) = parse_scenario(f"check property dd_zero dims ({dim})\n").checks()
    assert chk.payload["dims"] == (dim,)


@pytest.mark.parametrize(
    "dim, message", [(0, "dims must be at least 1"), (MAX_DIM + 1, f"dims must be at most {MAX_DIM}")]
)
def test_property_dims_outside_chart_range_are_parse_errors(dim, message):
    text = f"check property dd_zero dims (2, {dim})\n"
    with pytest.raises(ParseError) as e:
        parse_scenario(text)
    assert (e.value.line, e.value.col) == (1, text.index(f" {dim})") + 2)
    assert e.value.message == message


def test_region_power_syntax():
    text = "chart C(x, y)\nregion R on C = [-1, 1]^2 lattice 3 random 0\n"
    r = parse_scenario(text).statements[1]
    assert r.intervals == ((F(-1), F(1)), (F(-1), F(1)))
    assert r.lattice == (3, 3)


def test_wedge_spellings_agree():
    # Both spellings survive printing verbatim and elaborate identically.
    from nsx.runner import RunConfig, elaborate_scope

    base = "chart C(x, y)\nform om on C = d(x) {} d(y)\n"
    elaborated = []
    for op in ("/\\", "wedge"):
        text = base.format(op)
        assert print_scenario(parse_scenario(text)) == text
        scope = elaborate_scope(parse_scenario(text), RunConfig())
        elaborated.append(scope.named("form", "om"))
    assert elaborated[0] == elaborated[1]


def test_check_kinds_inventory():
    assert set(CHECK_KINDS) == {
        "closed",
        "equal",
        "rank_at",
        "nearsympl_at",
        "gradient_rank_at",
        "contact",
        "vanishing_locus",
        "rank_drop_locus",
        "fixed_points",
        "dividing_set",
        "pullback_eq",
        "bracket_table",
        "stabilize",
        "property",
        "positive",
    }


# -- errors ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text, line, col, snippet",
    [
        ("chart C(x, y\n", 2, 1, "expected ')'"),
        ("chart C(x, y)\ncheck frobnicate thing\n", 2, 7, "unknown check kind"),
        ("chart C(x, y)\nform om on C = 0.5 * d(x)\n", 2, 16, "expression atom"),
        ("chart C(x, y)\nconst pass = 1\n", 2, 7, "reserved word"),
        ("chart C(x, y)\ncheck closed om note 7\n", 2, 22, "quoted note"),
        ("chart C(x, y)\nbogus Q = 3\n", 2, 1, "unknown statement keyword"),
        ("chart C(x, y)\nlocus L on C = union(image(id, R))\n", 2, 27, "expected ')'"),
        (
            "chart C(x, y)\nregion R on C = [0,1] x [0,1] lattice 3\n",
            2,
            40,
            "expected keyword 'random'",
        ),
        ("chart C(x, y)\ncheck rank_at om, 2 at (x=1/0, y=0)\n", 2, 29, "zero denominator"),
        ("chart C(x, y)\ncheck closed om where Kp=1/0\n", 2, 28, "zero denominator"),
        ("chart C(x, y)\ncheck fixed_points X on L region R margin 1/0\n", 2, 45, "zero denominator"),
        ("chart C(x, y)\nregion R on C = [0, 1/0]^2 lattice 3 random 0\n", 2, 23, "zero denominator"),
        ("chart C(x, y)\nmetric g on C = diag(1, 2/0)\n", 2, 27, "zero denominator"),
        ("chart C(x, y)\nlocus L on C = coords(x=-1/0)\n", 2, 28, "zero denominator"),
        ("chart C(x, y)\nlocus L on C = points((0, 1/0))\n", 2, 29, "zero denominator"),
        ("chart C(x, y)\ncheck rank_at om, 2 off L region R points 0\n", 2, 43, "points must be at least 1"),
        ("chart C(x, y)\ncheck nearsympl_at om on L region R points 0\n", 2, 44, "points must be at least 1"),
        ("chart C(x, y)\ncheck contact al grid 8 aux 0\n", 2, 29, "aux must be at least 1"),
        ("chart C(x, y)\ncheck stabilize eta, om region R k_max 0\n", 2, 40, "k_max must be at least 1"),
        ("chart C(x, y)\ncheck property dd_zero samples 0\n", 2, 32, "samples must be at least 1"),
        ("chart C(x, y)\ncheck contact al grid 0\n", 2, 23, "grid must be at least 1"),
        ("chart C(x, y)\ncheck fixed_points X on L region R margin -1/8\n", 2, 43, "margin must be nonnegative"),
        # Only the locus checks that pull their expressions through a map take `via`.
        ("chart C(x, y)\ncheck rank_drop_locus f on L region R regular 2 singular 1 via m\n", 2, 60, "end of statement"),
        ("chart C(x, y)\ncheck rank_at om, 2 off L region R via m margin 1/8\n", 2, 36, "end of statement"),
        ("chart C(x, y)\ncheck nearsympl_at om off L region R via m\n", 2, 38, "end of statement"),
        ("chart C(x, y)\nmap f : C C\n", 2, 11, "expected '->'"),
        ("chart C(x, y)\nmetric g on C = diagonal(1, 1)\n", 2, 17, "expected keyword 'diag'"),
        ("chart C(x, y)\nregion R on C = [0, 1]^2 lattice 3\n", 2, 35, "expected keyword 'random'"),
        ("chart C(x, y)\nlocus L on C = line(x=0)\n", 2, 16, "expected a locus flavour"),
        ("chart C(x, y)\nlocus L on C = image(m)\n", 2, 23, "expected ','"),
        ("chart C(x, y)\nform map on C = d(x)\n", 2, 6, "reserved word"),
        ("chart C(x, y)\nform om on C = ²*d(x)\n", 2, 16, "unexpected character"),
        ("chart C(x, y)\nregion R on C = [0, 1.0e400]^2 lattice 3 random 0\n", 2, 21, "out of the float range"),
        ("chart C(x, y)\nregion R on C = [-1.5e309, 0]^2 lattice 3 random 0\n", 2, 19, "out of the float range"),
        # A comment takes no columns, so the end of this line sits at the `#`.
        ("chart C(x, y)\nform om on C = # nothing yet\n", 2, 16, "expression atom"),
    ],
)
def test_parse_errors_are_positioned(text, line, col, snippet):
    with pytest.raises(ParseError) as e:
        parse_scenario(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert snippet in e.value.message
    assert f"line {line}, col {col}" in str(e.value)


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "(" * n + "x" + ")" * n,
        lambda n: "-" * n + "x",
        lambda n: " + ".join(["x"] * (n + 1)),
        lambda n: "exp((" * n + "x" + "))" * n,
    ],
    ids=["parentheses", "minus signs", "sum", "calls in parentheses"],
)
def test_expressions_nest_at_most_max_nesting_deep(nest):
    text = f"chart C(x)\nconst k = {nest(MAX_NESTING)}\n"
    printed = print_scenario(parse_scenario(text))
    assert print_scenario(parse_scenario(printed)) == printed
    with pytest.raises(ParseError) as e:
        parse_scenario(f"chart C(x)\nconst k = {nest(MAX_NESTING + 1)}\n")
    assert e.value.message == "expression nested too deeply"


# (message, line, col) of seeded one-character mutations of the suite texts,
# written by the parser before its scanner matched one token per regex match.
# One line changed since, by intent: S12's `dims (2, 3, 44, 5, 6)` became a
# ParseError when property dimensions were bounded by MAX_DIM.
GOLDEN_PARSE_ERRORS = Path(__file__).parent / "golden" / "parse_errors.txt"
_MUTATION_JUNK = '()[]=,^#"\\/ \t\r\nxq0.-+*:∧²é_'


def parse_error_lines():
    """One line per mutation: where and how the text was mutated, then
    `parses` or the ParseError's line, column and message."""
    rng = random.Random(17)
    out = []
    for sid, _, base in SUITE:
        for _ in range(30):
            i = rng.randrange(len(base))
            op = rng.randrange(3)
            if op == 0:
                text, how = base[:i] + base[i + 1 :], f"delete {base[i]!r}"
            elif op == 1:
                text, how = base[:i] + base[i] + base[i:], f"double {base[i]!r}"
            else:
                c = rng.choice(_MUTATION_JUNK)
                text, how = base[:i] + c + base[i:], f"insert {c!r}"
            try:
                parse_scenario(text)
                outcome = "parses"
            except ParseError as e:
                outcome = f"{e.line}:{e.col}: {e.message}"
            out.append(f"{sid} {i} {how}\t{outcome}\n")
    return "".join(out)


def test_parse_errors_match_golden():
    assert parse_error_lines() == GOLDEN_PARSE_ERRORS.read_text(encoding="utf-8")


def test_mutated_sources_never_crash():
    # Deleting, duplicating, or injecting a character anywhere in a real
    # scenario must either parse or raise a positioned ParseError.
    base = SUITE[0][2]
    rng = random.Random(12)
    junk = "()[]=,^#\"\\/ \nxq0."
    for _ in range(300):
        i = rng.randrange(len(base))
        op = rng.randrange(3)
        if op == 0:
            text = base[:i] + base[i + 1 :]
        elif op == 1:
            text = base[:i] + base[i] + base[i:]
        else:
            text = base[:i] + rng.choice(junk) + base[i:]
        try:
            parse_scenario(text)
        except ParseError as e:
            assert e.line >= 1 and e.col >= 1
