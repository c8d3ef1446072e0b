r"""Scenario language: tokenizer, AST, parser, printer, generator.

A scenario file declares charts, named expressions, and checks, one
statement per line (newlines inside brackets do not terminate a
statement).  The parser builds a plain AST and never touches engine
objects; elaboration lives in the runner.  Printing an AST and parsing
the output reproduces the AST node for node, which is what the
round-trip tests pin down.

Expression grammar (one grammar for scalars, forms, and fields; the
elaborator type-checks):

    expr  := term { (+|-) term }
    term  := [-] pow { (/\ | wedge | * | /) pow }
    pow   := atom [^ [-] INT]
    atom  := INT | pi | NAME | NAME(expr) | d(expr) | e(NAME)
           | pullback(NAME, expr) | star(NAME, expr) | (expr)

NAME(expr) covers exp/sin/cos, declared opaque functions, and interior
products spelled i_<field>(expr).  Rationals are ordinary division:
5/2 parses as INT / INT and elaborates exactly.

The grammar of each statement is one entry of STATEMENT_SPECS, and that of
each check kind one entry of CHECK_SPECS; the parser and the printer both
walk these two tables.  Every line parses to one Statement: its keyword
and the fields its grammar entry fills.  The scanner makes one pass of one
regular expression, _TOKEN, whose every match is one token with the blanks
before it; the parser reads the tokens as plain (type, value, line, col)
tuples, and `tokenize` gives the same tokens as Token tuples.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .charts import MAX_DIM
from .errors import ParseError
from .props import PROPERTY_NAMES
from .records import FrozenRecord

__all__ = [
    "tokenize",
    "parse_scenario",
    "print_scenario",
    "random_scenario",
    "Scenario",
    "STATEMENT_SPECS",
    "CHECK_SPECS",
    "CHECK_KINDS",
]

RESERVED = frozenset(
    """chart param opaque const form vfield map metric region locus check
    expect where note on at via off points margin regular singular grid aux
    dim dims samples k_max union image coords empty euclidean diag lattice
    random pass fail report pullback star wedge pi d e id exp sin cos
    """.split()
)

MAX_NESTING = 50
"""How deep an expression may nest: at most this many operators and calls
on any path down its tree, and at most this many open parentheses.  Parsing,
printing and elaborating recurse once per level, so a deeper expression ends
in a ParseError instead."""

_WEDGE_OPS = ("/\\", "∧", "wedge", "*", "/")

# One match per token: the blanks before a token, then one alternative per
# token class.  A newline takes the comment before it, and so does the end of
# the text, where every scan ends; so a comment takes no columns.  Numbers
# are ASCII digits; a FLOAT has digits on both sides of its point, an exponent
# or both, and its exponent counts only when digits follow it.  A NAME is a run of word
# characters that does not start with a digit, and the scan still checks
# that it starts with a letter or `_` (\w also takes characters such as
# `²`).  The last alternative takes any other character, which is an error.
# The comments give the number `m.lastindex` reads for each group.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"([^\W\d]\w*)"  # 1 NAME
    r"|(/\\|->|[-,=:^+*/∧])"  # 2 OP
    r"|([(\[])"  # 3 OP that opens a bracket
    r"|([)\]])"  # 4 OP that closes one
    r"|(#[^\n]*\n|\n)"  # 5 NEWLINE
    r"|([0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"  # 6 FLOAT
    r"|([0-9]+)"  # 7 INT
    r'|("[^"\n]*")'  # 8 STRING
    r"|(#[^\n]*\Z|\Z)"  # 9 end of text
    r"|(.)"  # 10 anything else
    r")"
)
_NAME, _OP, _OPEN, _CLOSE, _NEWLINE, _FLOAT, _INT, _STRING, _END = range(1, 10)


class Token(NamedTuple):
    type: str  # NAME INT FLOAT STRING OP NEWLINE EOF
    value: object
    line: int
    col: int


def _scan(text):
    """The tokens of `text` as plain (type, value, line, col) tuples; see
    `tokenize`.  A token's column is its offset from the start of its line."""
    toks = []
    append = toks.append
    line, line_start, depth = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        value = m[kind]
        col = m.start(kind) - line_start + 1
        if kind == _NAME:
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
            append(("NAME", value, line, col))
        elif kind == _OP:
            append(("OP", value, line, col))
        elif kind == _OPEN:
            depth += 1
            append(("OP", value, line, col))
        elif kind == _CLOSE:
            if depth:
                depth -= 1
            append(("OP", value, line, col))
        elif kind == _NEWLINE:
            if depth == 0 and toks and toks[-1][0] != "NEWLINE":
                append(("NEWLINE", None, line, col))
            line, line_start = line + 1, m.end()
        elif kind == _INT:
            append(("INT", int(value), line, col))
        elif kind == _FLOAT:
            append(("FLOAT", float(value), line, col))
        elif kind == _STRING:
            append(("STRING", value[1:-1], line, col))
        elif kind == _END:
            break
        elif value == '"':
            raise ParseError("unterminated string", line, col)
        else:
            raise ParseError(f"unexpected character {value!r}", line, col)
    # Every text ends in the end-of-text match, where `col` was taken last.
    if toks and toks[-1][0] != "NEWLINE":
        append(("NEWLINE", None, line, col))
    append(("EOF", None, line, col))
    return toks


def tokenize(text):
    """The tokens of `text`, ending in NEWLINE (unless empty) and EOF.  A
    newline inside brackets or after another NEWLINE yields none; a comment
    takes no columns, so the NEWLINE after it sits at the `#`.  These are the
    tuples the parser reads, as Tokens."""
    return list(map(Token._make, _scan(text)))


# ---------------------------------------------------------------------------
# Expression AST
#
# A node keeps its fields in slots.  It is frozen, so its `__init__` fills
# them through the slots' own setters (the `_set_*` names below the
# classes), which cost less than `object.__setattr__`.


class Num(FrozenRecord):
    __slots__ = _fields = ("value",)

    def __init__(self, value):
        _set_num_value(self, value)


class Pi(FrozenRecord):
    __slots__ = ()


class Ref(FrozenRecord):
    __slots__ = _fields = ("name",)

    def __init__(self, name):
        _set_ref_name(self, name)


class Call(FrozenRecord):
    __slots__ = _fields = ("name", "arg")

    def __init__(self, name, arg):
        _set_call_name(self, name)
        _set_call_arg(self, arg)


class D(FrozenRecord):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg):
        _set_d_arg(self, arg)


class Basis(FrozenRecord):
    __slots__ = _fields = ("coord",)

    def __init__(self, coord):
        _set_basis_coord(self, coord)


class Pullback(FrozenRecord):
    __slots__ = _fields = ("map_name", "arg")

    def __init__(self, map_name, arg):
        _set_pullback_map_name(self, map_name)
        _set_pullback_arg(self, arg)


class Star(FrozenRecord):
    __slots__ = _fields = ("metric_name", "arg")

    def __init__(self, metric_name, arg):
        _set_star_metric_name(self, metric_name)
        _set_star_arg(self, arg)


class Neg(FrozenRecord):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg):
        _set_neg_arg(self, arg)


class Bin(FrozenRecord):
    __slots__ = _fields = ("op", "left", "right")  # op: + - ^ or a wedge-class lexeme

    def __init__(self, op, left, right):
        _set_bin_op(self, op)
        _set_bin_left(self, left)
        _set_bin_right(self, right)


_set_num_value = Num.value.__set__
_set_ref_name = Ref.name.__set__
_set_call_name, _set_call_arg = Call.name.__set__, Call.arg.__set__
_set_d_arg = D.arg.__set__
_set_basis_coord = Basis.coord.__set__
_set_pullback_map_name, _set_pullback_arg = Pullback.map_name.__set__, Pullback.arg.__set__
_set_star_metric_name, _set_star_arg = Star.metric_name.__set__, Star.arg.__set__
_set_neg_arg = Neg.arg.__set__
_set_bin_op, _set_bin_left, _set_bin_right = Bin.op.__set__, Bin.left.__set__, Bin.right.__set__


# ---------------------------------------------------------------------------
# Statement AST


class Statement(FrozenRecord):
    """One scenario line: its keyword, the fields its grammar entry fills,
    and the line it starts on.  A declaration's fields are those its
    STATEMENT_SPECS entry fills.  A `check` line's are those `parse_check`
    fills: kind, payload (the CHECK_SPECS entry's fields), where ((name,
    Fraction) pairs), note, and expect (pass, fail or report).  The fields
    are attributes, kept in the instance dict in the order keyword, fields,
    line; `print_statement` reads that dict whole.  `==` and hash compare
    the keyword and the fields, not `line`."""

    def __init__(self, keyword, fields, line=0):
        vars(self).update(keyword=keyword, **fields, line=line)

    def _compared(self):
        return {name: value for name, value in vars(self).items() if name != "line"}

    def __eq__(self, other):
        if other.__class__ is not Statement:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(frozenset(self._compared().items()))

    def __repr__(self):
        return "Statement(" + ", ".join(f"{name}={value!r}" for name, value in vars(self).items()) + ")"


class Scenario(FrozenRecord):
    _fields = ("statements",)

    def __init__(self, statements):
        vars(self).update(statements=statements)

    def checks(self):
        return [s for s in self.statements if s.keyword == "check"]


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over the (type, value, line, col) tuples of _scan.
    The last tuple is EOF, and no method moves past it.  The methods that
    run once per token read `self.toks[self.pos]` themselves."""

    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0
        self.parens = 0

    def peek(self, ahead=0):
        # A look ahead (ahead=1) is taken only from a token known not to be EOF.
        return self.toks[self.pos + ahead]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "EOF":
            self.pos += 1
        return t

    def error(self, message, tok=None):
        tok = tok or self.toks[self.pos]
        raise ParseError(message, tok[2], tok[3])

    def expect_op(self, op):
        t = self.toks[self.pos]
        if t[1] != op or t[0] != "OP":
            self.error(f"expected {op!r}")
        self.pos += 1
        return t

    def expect_name(self, what="a name"):
        t = self.toks[self.pos]
        if t[0] != "NAME":
            self.error(f"expected {what}")
        self.pos += 1
        return t[1]

    def expect_keyword(self, word):
        t = self.toks[self.pos]
        if t[1] != word or t[0] != "NAME":
            self.error(f"expected keyword {word!r}")
        self.pos += 1
        return t

    def expect_int(self, what="an integer"):
        t = self.toks[self.pos]
        if t[0] != "INT":
            self.error(f"expected {what}")
        self.pos += 1
        return t[1]

    def at_keyword(self, word):
        t = self.toks[self.pos]
        return t[1] == word and t[0] == "NAME"

    def at_op(self, op):
        t = self.toks[self.pos]
        return t[1] == op and t[0] == "OP"

    def eat_keyword(self, word):
        """The next token if it is keyword `word`, taken; else False."""
        t = self.toks[self.pos]
        if t[1] == word and t[0] == "NAME":
            self.pos += 1
            return t
        return False

    def eat_op(self, op):
        """The next token if it is operator `op`, taken; else False."""
        t = self.toks[self.pos]
        if t[1] == op and t[0] == "OP":
            self.pos += 1
            return t
        return False

    def fresh_name(self, what):
        t = self.toks[self.pos]
        name = self.expect_name(what)
        if name in RESERVED:
            self.error(f"{name!r} is a reserved word", t)
        return name

    # -- expressions --------------------------------------------------
    #
    # Each method takes the tree level its node starts at and returns the
    # node with the deepest level below it.

    def deeper(self, level, tok):
        """`level + 1` (a tree level or a count of open parentheses), or a
        ParseError at `tok` past MAX_NESTING."""
        if level >= MAX_NESTING:
            self.error("expression nested too deeply", tok)
        return level + 1

    def parse_expr(self):
        return self.parse_sum(0)[0]

    def parse_sum(self, level):
        left, bottom = self.parse_term(level)
        toks = self.toks
        t = toks[self.pos]
        while t[0] == "OP" and t[1] in ("+", "-"):
            self.pos += 1
            right, below = self.parse_term(level)
            left, bottom = Bin(t[1], left, right), self.deeper(max(bottom, below), t)
            t = toks[self.pos]
        return left, bottom

    def parse_term(self, level):
        toks = self.toks
        t = toks[self.pos]
        if t[1] == "-" and t[0] == "OP":
            self.pos += 1
            arg, bottom = self.parse_term(self.deeper(level, t))
            return Neg(arg), bottom
        left, bottom = self.parse_pow(level)
        t = toks[self.pos]
        # _WEDGE_OPS holds the operators and the keyword `wedge`; no NAME is
        # an operator, and no OP is `wedge`.
        while t[1] in _WEDGE_OPS and t[0] in ("OP", "NAME"):
            self.pos += 1
            right, below = self.parse_pow(level)
            left, bottom = Bin(t[1], left, right), self.deeper(max(bottom, below), t)
            t = toks[self.pos]
        return left, bottom

    def parse_pow(self, level):
        base, bottom = self.parse_atom(level)
        t = self.toks[self.pos]
        if t[1] == "^" and t[0] == "OP":
            self.pos += 1
            sign = -1 if self.eat_op("-") else 1
            k = self.expect_int("an integer exponent")
            return Bin("^", base, Num(sign * k)), self.deeper(bottom, t)
        return base, bottom

    def parse_atom(self, level):
        toks = self.toks
        t = toks[self.pos]
        kind = t[0]
        if kind == "INT":
            self.pos += 1
            return Num(t[1]), level
        if kind == "OP" and t[1] == "(":
            self.pos += 1
            self.parens = self.deeper(self.parens, t)
            inner = self.parse_sum(level)
            self.expect_op(")")
            self.parens -= 1
            return inner
        if kind != "NAME":
            self.error("expected an expression atom")
        self.pos += 1
        name = t[1]
        if name == "pi":
            return Pi(), level
        if name == "e":
            self.expect_op("(")
            coord = self.expect_name("a coordinate name")
            self.expect_op(")")
            return Basis(coord), level
        if name in ("pullback", "star"):
            self.expect_op("(")
            ref = self.expect_name("a map name" if name == "pullback" else "a metric name")
            self.expect_op(",")
            inner, bottom = self.parse_sum(self.deeper(level, t))
            self.expect_op(")")
            return (Pullback(ref, inner) if name == "pullback" else Star(ref, inner)), bottom
        after = toks[self.pos]
        if name == "d" or after[1] == "(" and after[0] == "OP":
            self.expect_op("(")
            inner, bottom = self.parse_sum(self.deeper(level, t))
            self.expect_op(")")
            return (D(inner) if name == "d" else Call(name, inner)), bottom
        return Ref(name), level

    def parse_rational(self, what="a rational number"):
        """`[-] INT [/ INT]` as a Fraction; every rational literal comes here."""
        sign = -1 if self.eat_op("-") else 1
        num = self.expect_int(what)
        if not (self.at_op("/") and self.peek(1)[0] == "INT"):
            return Fraction(sign * num)
        self.next()
        den = self.next()
        if den[1] == 0:
            self.error("zero denominator", den)
        return Fraction(sign * num, den[1])

    def parse_list(self, item, *args):
        """`item {, item}` as a tuple."""
        out = [item(*args)]
        while self.eat_op(","):
            out.append(item(*args))
        return tuple(out)

    def parse_group(self, item, *args):
        """`(item {, item})` as a tuple."""
        self.expect_op("(")
        out = self.parse_list(item, *args)
        self.expect_op(")")
        return out

    def parse_pair(self, what):
        name = self.expect_name(what)
        self.expect_op("=")
        return (name, self.parse_rational())

    def parse_assignments(self):
        return self.parse_group(self.parse_pair, "a coordinate")

    # -- statements ---------------------------------------------------

    def parse_scenario(self):
        toks = self.toks
        stmts = []
        while True:
            while toks[self.pos][0] == "NEWLINE":
                self.pos += 1
            if toks[self.pos][0] == "EOF":
                break
            stmts.append(self.parse_statement())
            if toks[self.pos][0] not in ("NEWLINE", "EOF"):
                self.error("expected end of statement")
        return Scenario(tuple(stmts))

    def parse_statement(self):
        t = self.toks[self.pos]
        if t[0] != "NAME":
            self.error("expected a statement keyword")
        if t[1] == "check":
            return self.parse_check()
        if t[1] not in STATEMENT_SPECS:
            self.error(f"unknown statement keyword {t[1]!r}")
        self.pos += 1
        fields = {}
        STATEMENT_SPECS[t[1]].read(self, fields)
        return Statement(t[1], fields, t[2])

    # -- checks ---------------------------------------------------------

    def parse_check(self):
        line = self.next()[2]
        t = self.peek()
        kind = self.expect_name("a check kind")
        spec = CHECK_SPECS.get(kind)
        if spec is None:
            self.error(f"unknown check kind {kind!r}", t)
        payload = {}
        spec.read(self, payload)
        where = self.parse_list(self.parse_pair, "a parameter name") if self.eat_keyword("where") else ()
        note = ""
        if self.eat_keyword("note"):
            if self.peek()[0] != "STRING":
                self.error("expected a quoted note")
            note = self.next()[1]
        expect = _EXPECT.read_value(self) if self.eat_keyword("expect") else "pass"
        fields = {"kind": kind, "payload": payload, "where": where, "note": note, "expect": expect}
        return Statement("check", fields, line)


def parse_scenario(text):
    return _Parser(_scan(text)).parse_scenario()


# ---------------------------------------------------------------------------
# Printer

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_POW = 30
_PREC_ATOM = 100


def _print_expr(node, prec=0):
    if isinstance(node, Num):
        s, p = str(node.value), _PREC_ATOM if node.value >= 0 else _PREC_ADD
    elif isinstance(node, Pi):
        s, p = "pi", _PREC_ATOM
    elif isinstance(node, Ref):
        s, p = node.name, _PREC_ATOM
    elif isinstance(node, Call):
        s, p = f"{node.name}({_print_expr(node.arg)})", _PREC_ATOM
    elif isinstance(node, D):
        s, p = f"d({_print_expr(node.arg)})", _PREC_ATOM
    elif isinstance(node, Basis):
        s, p = f"e({node.coord})", _PREC_ATOM
    elif isinstance(node, Pullback):
        s, p = f"pullback({node.map_name}, {_print_expr(node.arg)})", _PREC_ATOM
    elif isinstance(node, Star):
        s, p = f"star({node.metric_name}, {_print_expr(node.arg)})", _PREC_ATOM
    elif isinstance(node, Neg):
        s, p = "-" + _print_expr(node.arg, _PREC_MUL), _PREC_ADD
    elif isinstance(node, Bin):
        if node.op == "^":
            exp = node.right.value
            tail = str(exp) if exp >= 0 else f"-{-exp}"
            s = _print_expr(node.left, _PREC_POW + 1) + "^" + tail
            p = _PREC_POW
        elif node.op in ("+", "-"):
            s = (
                _print_expr(node.left, _PREC_ADD)
                + f" {node.op} "
                + _print_expr(node.right, _PREC_ADD + 1)
            )
            p = _PREC_ADD
        else:
            op = node.op if node.op in ("*", "/") else f" {node.op} "
            s = _print_expr(node.left, _PREC_MUL) + op + _print_expr(node.right, _PREC_MUL + 1)
            p = _PREC_MUL
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({s})" if p < prec else s


def _print_assignments(pairs):
    return "(" + ", ".join(f"{n}={v}" for n, v in pairs) + ")"


# ---------------------------------------------------------------------------
# Grammar
#
# STATEMENT_SPECS and CHECK_SPECS are the grammar of record: one _Spec per
# statement keyword and per check kind, which both the parser and the
# printer walk.  A spec holds the required items in order (a literal
# operator or keyword, or a typed slot that fills fields), then its keyword
# options.  Options may come in any order; a repeated option keeps its last
# value, and an absent one leaves its default in the payload.  The printer
# writes an option only when it differs from that default.  Runners are
# looked up by the check kind names in `runner._RUNNERS`.


class _Lit:
    """A fixed token: an operator such as `,`, `=` or `->`, or a keyword."""

    def __init__(self, text):
        self.text = text
        self.tight = text == ","
        self._expect = _Parser.expect_keyword if text.isidentifier() else _Parser.expect_op

    def read(self, parser, out):
        self._expect(parser, self.text)

    def write(self, payload):
        return self.text


class _Field:
    """A typed slot that fills one payload field; `default` is its value
    when the slot is an option and the line leaves it out.  A tight slot
    prints against the item before it."""

    def __init__(self, name, read, write=str, default=None, tight=False):
        self.name = name
        self.read_value = read
        self.write_value = write
        self.defaults = {name: default}
        self.tight = tight

    def read(self, parser, out):
        out[self.name] = self.read_value(parser)

    def write(self, payload):
        return self.write_value(payload[self.name])


def _expr(name):
    return _Field(name, _Parser.parse_expr, _print_expr)


def _int(name, what):
    return _Field(name, lambda p: p.expect_int(what))


def _count(name, what, most=None):
    """An integer of at least 1, and of at most `most` when given: a budget
    option, or a chart dimension."""

    def read(p):
        t = p.peek()
        n = p.expect_int(what)
        if n < 1:
            p.error(f"{name} must be at least 1", t)
        if most is not None and n > most:
            p.error(f"{name} must be at most {most}", t)
        return n

    return _Field(name, read)


def _name(name, what):
    return _Field(name, lambda p: p.expect_name(what))


def _fresh(name, what):
    """A name being declared, which may not be a reserved word."""
    return _Field(name, lambda p: p.fresh_name(what))


def _choice(name, what, choices, complaint):
    def read(p):
        t = p.peek()
        word = p.expect_name(what)
        if word not in choices:
            p.error(complaint, t)
        return word

    return _Field(name, read)


def _group(item, default=None, tight=False):
    """`(a, b, ...)`: one or more of `item`'s values, as a tuple."""
    return _Field(
        item.name,
        lambda p: p.parse_group(item.read_value, p),
        lambda values: "(" + ", ".join(map(item.write_value, values)) + ")",
        default,
        tight,
    )


class _Spec:
    """Required items in order, then keyword options (keyword -> slot)."""

    def __init__(self, *items, **options):
        self.items = tuple(_Lit(i) if isinstance(i, str) else i for i in items)
        self.options = options
        self.defaults = {}
        for slot in options.values():
            self.defaults.update(slot.defaults)
        self._tight = tuple(getattr(item, "tight", False) for item in self.items)
        self._option_defaults = tuple((keyword, slot, tuple(slot.defaults.items())) for keyword, slot in options.items())

    def read(self, parser, out):
        for item in self.items:
            item.read(parser, out)
        out.update(self.defaults)
        toks = parser.toks
        while True:
            t = toks[parser.pos]
            slot = self.options.get(t[1]) if t[0] == "NAME" else None
            if slot is None:
                return
            parser.pos += 1
            slot.read(parser, out)

    def write(self, payload):
        parts = []
        for item, tight in zip(self.items, self._tight):
            text = item.write(payload)
            if tight:
                parts[-1] += text
            else:
                parts.append(text)
        for keyword, slot, defaults in self._option_defaults:
            for k, d in defaults:
                if payload.get(k, d) != d:
                    parts.append(f"{keyword} {slot.write(payload)}")
                    break
        return " ".join(parts)


# -- statements ---------------------------------------------------------------


def _read_metric(p):
    if p.eat_keyword("euclidean"):
        return ()
    p.expect_keyword("diag")
    return p.parse_group(p.parse_rational)


_METRIC = _Field("diag", _read_metric, lambda diag: "diag(" + ", ".join(map(str, diag)) + ")" if diag else "euclidean")


class _Box:
    """A region's box and lattice: `[a, b]^n` or `[a, b] x [c, d] ...`, then
    `lattice n` or `lattice (n, ...)`.  Equal entries print as the short form."""

    _repeat = _count("repetition count", "a repetition count")
    _resolution = _count("lattice resolution", "a lattice resolution")

    def read(self, parser, out):
        intervals = [self._interval(parser)]
        if parser.eat_op("^"):
            intervals *= self._repeat.read_value(parser)
        else:
            while parser.eat_keyword("x"):
                intervals.append(self._interval(parser))
        parser.expect_keyword("lattice")
        if parser.at_op("("):
            lattice = parser.parse_group(self._resolution.read_value, parser)
        else:
            lattice = [self._resolution.read_value(parser)] * len(intervals)
        out["intervals"], out["lattice"] = tuple(intervals), tuple(lattice)

    def _interval(self, parser):
        parser.expect_op("[")
        lo = self._bound(parser)
        parser.expect_op(",")
        hi = self._bound(parser)
        parser.expect_op("]")
        return (lo, hi)

    def _bound(self, parser):
        t = parser.peek(1 if parser.at_op("-") else 0)
        if t[0] != "FLOAT":
            return parser.parse_rational("an interval bound")
        if t[1] == math.inf:
            parser.error("interval bound out of the float range", t)
        sign = -1 if parser.eat_op("-") else 1
        parser.next()
        return sign * t[1]

    @staticmethod
    def _print_bound(bound):
        """A Fraction as a rational; a float as its repr, with `.0` before an
        exponent that has no point before it, since a FLOAT needs one."""
        if not isinstance(bound, float):
            return str(bound)
        text = repr(bound)
        return text.replace("e", ".0e") if "e" in text and "." not in text else text

    def write(self, payload):
        ivs, lat = payload["intervals"], payload["lattice"]
        bound = self._print_bound
        if len(ivs) > 1 and all(iv == ivs[0] for iv in ivs):
            box = f"[{bound(ivs[0][0])}, {bound(ivs[0][1])}]^{len(ivs)}"
        else:
            box = " x ".join(f"[{bound(lo)}, {bound(hi)}]" for lo, hi in ivs)
        lat_txt = str(lat[0]) if all(v == lat[0] for v in lat) else "(" + ", ".join(map(str, lat)) + ")"
        return f"{box} lattice {lat_txt}"


def _read_image(p):
    p.expect_op("(")
    source = p.expect_name("a map name or id")
    p.expect_op(",")
    region = p.expect_name("a region name")
    p.expect_op(")")
    return (source, region)


class _Flavour:
    """What a locus is: its flavour keyword, then that flavour's payload."""

    _payloads = {
        "coords": _Field("payload", _Parser.parse_assignments, _print_assignments),
        "points": _group(_group(_Field("payload", _Parser.parse_rational))),
        "image": _Field("payload", _read_image, lambda pair: "({}, {})".format(*pair)),
        "union": _group(_name("payload", "a locus name")),
        "empty": _Field("payload", lambda p: None, lambda none: ""),
    }

    def read(self, parser, out):
        t = parser.peek()
        slot = self._payloads.get(t[1]) if t[0] == "NAME" else None
        if slot is None:
            parser.error(f"expected a locus flavour ({', '.join(self._payloads)})")
        parser.next()
        out["flavour"] = t[1]
        slot.read(parser, out)

    def write(self, payload):
        flavour = payload["flavour"]
        if flavour not in self._payloads:
            raise TypeError(f"unknown locus flavour {flavour!r}")
        return flavour + self._payloads[flavour].write(payload)


_ON_CHART = ("on", _name("chart", "a chart name"), "=")

# keyword -> grammar, whose fields make the Statement; `check` lines follow
# CHECK_SPECS.  A metric's empty diag means euclidean; a region's intervals
# are ((lo, hi), ...).
STATEMENT_SPECS = {
    "chart": _Spec(_fresh("name", "a chart name"), _group(_fresh("coords", "a coordinate name"), tight=True)),
    "param": _Spec(_Field("names", lambda p: p.parse_list(p.fresh_name, "a parameter name"), ", ".join)),
    "opaque": _Spec(_Field("names", lambda p: p.parse_list(p.fresh_name, "an opaque function name"), ", ".join)),
    "const": _Spec(_fresh("name", "a constant name"), "=", _expr("expr")),
    "form": _Spec(_fresh("name", "a form name"), *_ON_CHART, _expr("expr")),
    "vfield": _Spec(_fresh("name", "a field name"), *_ON_CHART, _expr("expr")),
    "map": _Spec(
        _fresh("name", "a map name"), ":", _name("source", "a source chart"), "->", _name("target", "a target chart"),
        "=", _group(_expr("comps")),
    ),
    "metric": _Spec(_fresh("name", "a metric name"), *_ON_CHART, _METRIC),
    "region": _Spec(
        _fresh("name", "a region name"), *_ON_CHART, _Box(), "random", _int("random_count", "a random sample count")
    ),
    "locus": _Spec(_fresh("name", "a locus name"), *_ON_CHART, _Flavour()),
}


# -- checks -------------------------------------------------------------------


class _OffMode:
    """`mode[(expr)]` after `off`: how a vanishing locus tests its complement."""

    _modes = ("nonzero", "positive", "negative", "none")
    _mode = _choice("off_mode", "an off-locus mode", _modes, "expected nonzero, positive, negative, or none")
    defaults = {"off_mode": "nonzero", "off_form": None}

    def read(self, parser, out):
        self._mode.read(parser, out)
        form = None
        if out["off_mode"] != "none" and parser.eat_op("("):
            form = parser.parse_expr()
            parser.expect_op(")")
        out["off_form"] = form

    def write(self, payload):
        form = payload["off_form"]
        return payload["off_mode"] + ("" if form is None else f"({_print_expr(form)})")


_LOCUS = _name("locus", "a locus name")
_REGION = ("region", _name("region", "a region name"))
_ON_LOCUS = ("on", _LOCUS, *_REGION)


def _read_margin(p):
    t = p.peek()
    margin = p.parse_rational("a margin")
    if margin < 0:
        p.error("margin must be nonnegative", t)
    return margin


_MARGIN = {"margin": _Field("margin", _read_margin)}
# The options of the locus checks whose expressions are pulled through a map.
_VIA_MARGIN = {"via": _name("via", "a map name"), **_MARGIN}


class _Place:
    """Where a pointwise check looks: `at (point)`, or
    `on|off L region R [points n] [margin q]`."""

    _sampled = _Spec(_LOCUS, *_REGION, points=_count("points", "a point count"), **_MARGIN)

    def read(self, parser, out):
        if parser.eat_keyword("at"):
            out["mode"] = "at"
            out["point"] = parser.parse_assignments()
            return
        if not (parser.at_keyword("on") or parser.at_keyword("off")):
            parser.error("expected at, on, or off")
        out["mode"] = parser.next()[1]
        self._sampled.read(parser, out)

    def write(self, payload):
        if payload["mode"] == "at":
            return "at " + _print_assignments(payload["point"])
        return f"{payload['mode']} {self._sampled.write(payload)}"


_RANK = _int("rank", "a rank")
_EXPECT = _choice("expect", "pass, fail, or report", ("pass", "fail", "report"), "expected pass, fail, or report")

CHECK_SPECS = {
    "closed": _Spec(_expr("form")),
    "equal": _Spec(_expr("left"), ",", _expr("right")),
    "rank_at": _Spec(_expr("form"), ",", _RANK, _Place()),
    "nearsympl_at": _Spec(_expr("form"), _Place()),
    "gradient_rank_at": _Spec(
        _expr("form"), ",", _RANK, "at", _Field("point", _Parser.parse_assignments, _print_assignments)
    ),
    "contact": _Spec(
        _expr("form"),
        via=_group(_name("maps", "a map name"), default=()),
        grid=_count("grid", "a grid resolution"),
        aux=_count("aux", "an auxiliary sample count"),
    ),
    "vanishing_locus": _Spec(_expr("form"), *_ON_LOCUS, off=_OffMode(), **_VIA_MARGIN),
    "rank_drop_locus": _Spec(
        _name("map", "a map name"), *_ON_LOCUS,
        "regular", _int("regular", "a rank"), "singular", _int("singular", "a rank"), **_MARGIN,
    ),
    "fixed_points": _Spec(_name("field", "a field name"), *_ON_LOCUS, **_VIA_MARGIN),
    "dividing_set": _Spec(
        _expr("alpha"), ",", _name("field", "a field name"), ",", _expr("scalar"), *_ON_LOCUS, **_VIA_MARGIN
    ),
    "pullback_eq": _Spec(_name("map", "a map name"), ",", _expr("form"), ",", _expr("expected")),
    "bracket_table": _Spec(_expr("h"), "dim", _int("dim", "an even dimension")),
    "stabilize": _Spec(_expr("eta"), ",", _expr("base"), *_REGION, k_max=_count("k_max", "a bound")),
    "property": _Spec(
        _choice("name", "a property name", PROPERTY_NAMES, "unknown property name"),
        samples=_count("samples", "a sample count"),
        dims=_group(_count("dims", "a dimension", MAX_DIM)),
    ),
    "positive": _Spec(_expr("form"), *_REGION),
}

CHECK_KINDS = tuple(CHECK_SPECS)


def _print_check(stmt):
    spec = CHECK_SPECS.get(stmt.kind)
    if spec is None:
        raise TypeError(f"unknown check kind {stmt.kind!r}")
    parts = ["check", stmt.kind, spec.write(stmt.payload)]
    if stmt.where:
        parts.append("where " + ", ".join(f"{n}={v}" for n, v in stmt.where))
    if stmt.note:
        parts.append(f'note "{stmt.note}"')
    parts.append(f"expect {stmt.expect}")
    return " ".join(parts)


def print_statement(stmt):
    if stmt.keyword == "check":
        return _print_check(stmt)
    spec = STATEMENT_SPECS.get(stmt.keyword)
    if spec is None:
        raise TypeError(f"unknown statement {stmt!r}")
    return f"{stmt.keyword} {spec.write(vars(stmt))}"


def print_scenario(scenario):
    return "\n".join(print_statement(s) for s in scenario.statements) + "\n"


# ---------------------------------------------------------------------------
# Random scenarios for round-trip testing


def _random_expr(rng, coords, depth):
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return Num(rng.randrange(0, 9))
        if choice == 1:
            return Ref(rng.choice(coords))
        if choice == 2:
            return Pi()
        return Bin("/", Num(rng.randrange(1, 9)), Num(rng.randrange(2, 9)))
    choice = rng.randrange(6)
    if choice == 0:
        return Bin("+", _random_expr(rng, coords, depth - 1), _random_expr(rng, coords, depth - 1))
    if choice == 1:
        return Bin("-", _random_expr(rng, coords, depth - 1), _random_expr(rng, coords, depth - 1))
    if choice == 2:
        return Bin(rng.choice(("*", "/\\", "wedge")), _random_expr(rng, coords, depth - 1), _random_expr(rng, coords, depth - 1))
    if choice == 3:
        return Bin("^", Ref(rng.choice(coords)), Num(rng.randrange(1, 4)))
    if choice == 4:
        return Call(rng.choice(("sin", "cos", "exp")), _random_expr(rng, coords, depth - 1))
    return Neg(_random_expr(rng, coords, depth - 1))


def _random_form_expr(rng, coords, depth):
    base = D(Ref(rng.choice(coords)))
    if rng.random() < 0.5:
        other = D(Ref(rng.choice(coords)))
        base = Bin(rng.choice(("/\\", "wedge")), base, other)
    if rng.random() < 0.6:
        base = Bin("*", _random_expr(rng, coords, depth), base)
    if rng.random() < 0.3:
        base = Bin("+", base, D(_random_expr(rng, coords, depth)))
    return base


def random_scenario(rng):
    """A small well-formed scenario; exercises every statement kind the
    printer knows so parse(print(s)) round-trips are meaningful."""
    dim = rng.randrange(2, 5)
    coords = [f"w{i}" for i in range(1, dim + 1)]
    stmts = [Statement("chart", {"name": "C", "coords": tuple(coords)}, 1)]
    stmts.append(Statement("param", {"names": ("Kp",)}, 1))
    stmts.append(Statement("const", {"name": "c0", "expr": _random_expr(rng, coords, 1)}, 1))
    n_forms = rng.randrange(1, 4)
    form_names = []
    for i in range(n_forms):
        name = f"om{i}"
        form_names.append(name)
        stmts.append(Statement("form", {"name": name, "chart": "C", "expr": _random_form_expr(rng, coords, 2)}, 1))
    field = Bin("*", _random_expr(rng, coords, 1), Basis(rng.choice(coords)))
    stmts.append(Statement("vfield", {"name": "X", "chart": "C", "expr": field}, 1))
    lo = Fraction(-rng.randrange(1, 3))
    hi = Fraction(rng.randrange(1, 3))
    region = {
        "name": "R",
        "chart": "C",
        "intervals": tuple([(lo, hi)] * dim),
        "lattice": tuple([rng.randrange(1, 4)] * dim),
        "random_count": rng.randrange(0, 33),
    }
    stmts.append(Statement("region", region, 1))
    locus = {"name": "L", "chart": "C", "flavour": "coords", "payload": ((coords[0], Fraction(0)),)}
    stmts.append(Statement("locus", locus, 1))

    def check(kind, payload, where=(), note="", expect="report"):
        return Statement("check", {"kind": kind, "payload": payload, "where": where, "note": note, "expect": expect}, 1)

    checks = [check("closed", {"form": Ref(rng.choice(form_names))}, expect=rng.choice(("pass", "fail", "report")))]
    point = tuple((c, Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))) for c in coords)
    checks.append(
        check("rank_at", {"form": Ref(rng.choice(form_names)), "rank": rng.randrange(0, dim + 1), "mode": "at", "point": point})
    )
    checks.append(
        check(
            "vanishing_locus",
            {
                "form": Ref(rng.choice(form_names)),
                "locus": "L",
                "region": "R",
                "off_mode": rng.choice(("nonzero", "none")),
                "off_form": None,
                "via": None,
                "margin": Fraction(1, rng.choice((4, 8))),
            },
            (("Kp", Fraction(rng.randrange(1, 5))),) if rng.random() < 0.4 else (),
            "random locus claim" if rng.random() < 0.5 else "",
        )
    )
    checks.append(check("equal", {"left": _random_expr(rng, coords, 2), "right": _random_expr(rng, coords, 2)}))
    rng.shuffle(checks)
    return Scenario(tuple(stmts + checks))
