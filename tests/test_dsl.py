import random
from fractions import Fraction

import pytest

from nsx import runner
from nsx.dsl import CHECK_KINDS, parse_scenario, print_scenario, random_scenario, tokenize
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


# -- round trips -----------------------------------------------------------


def test_random_scenarios_round_trip():
    for seed in range(200):
        s = random_scenario(random.Random(seed))
        text = print_scenario(s)
        reparsed = parse_scenario(text)
        assert print_scenario(reparsed) == text, f"seed {seed}"


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
    "rank_at": ["om, 2 at (x=1, y=-1/2)", "om, 2 on L region R", "om, 0 off L region R points 4 via m margin 1/8"],
    "nearsympl_at": ["om at (x=0, y=0)", "om on L region R points 3 via m margin 1/4", "om off L region R"],
    "gradient_rank_at": ["om, 3 at (x=0, y=0)"],
    "contact": ["al", "al via (m1, m2) grid 64 aux 8"],
    "vanishing_locus": [
        "om on L region R",
        "om on L region R off positive(om2) via m margin 1/8",
        "om on L region R off negative",
        "om on L region R off none",
    ],
    "rank_drop_locus": ["f on L region R regular 4 singular 3", "f on L region R regular 4 singular 3 via m margin 1/8"],
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


def test_every_kind_has_a_runner():
    assert set(runner._RUNNERS) == set(CHECK_KINDS)


def test_keyword_options_in_any_order():
    # A repeated option keeps its last value.
    for canonical, shuffled in [
        ("check contact al via (m) grid 64 aux 8", "check contact al aux 8 grid 3 via (m) grid 64"),
        ("check rank_at om, 2 off L region R points 4 via m margin 1/8", "check rank_at om, 2 off L region R margin 1/8 via m points 4"),
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
        elaborated.append(scope.forms["om"])
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
    ],
)
def test_parse_errors_are_positioned(text, line, col, snippet):
    with pytest.raises(ParseError) as e:
        parse_scenario(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert snippet in e.value.message
    assert f"line {line}, col {col}" in str(e.value)


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
