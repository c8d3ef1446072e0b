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

The grammar of each check kind is one entry of CHECK_SPECS, which drives
both the parser and the printer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError
from .props import PROPERTY_NAMES

__all__ = [
    "tokenize",
    "parse_scenario",
    "print_scenario",
    "random_scenario",
    "Scenario",
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

_WEDGE_OPS = ("/\\", "∧", "wedge", "*", "/")
_SYMBOLS = ("/\\", "->", "(", ")", "[", "]", ",", "=", ":", "^", "+", "-", "*", "/", "∧")


@dataclass(frozen=True)
class Token:
    type: str  # NAME INT FLOAT STRING OP NEWLINE EOF
    value: object
    line: int
    col: int


def tokenize(text):
    toks = []
    i, line, col = 0, 1, 1
    depth = 0
    n = len(text)

    def push(type_, value, l, c):
        toks.append(Token(type_, value, l, c))

    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if depth == 0 and toks and toks[-1].type != "NEWLINE":
                push("NEWLINE", None, line, col)
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise ParseError("unterminated string", line, col)
            push("STRING", text[i + 1 : j], line, col)
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                push("FLOAT", float(text[i:j]), line, col)
            else:
                push("INT", int(text[i:j]), line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            push("NAME", text[i:j], line, col)
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                if sym in "([":
                    depth += 1
                elif sym in ")]":
                    depth = max(0, depth - 1)
                push("OP", sym, line, col)
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    if toks and toks[-1].type != "NEWLINE":
        push("NEWLINE", None, line, col)
    push("EOF", None, line, col)
    return toks


# ---------------------------------------------------------------------------
# Expression AST


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


@dataclass(frozen=True)
class D:
    arg: object


@dataclass(frozen=True)
class Basis:
    coord: str


@dataclass(frozen=True)
class Pullback:
    map_name: str
    arg: object


@dataclass(frozen=True)
class Star:
    metric_name: str
    arg: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # + - ^ or a wedge-class lexeme
    left: object
    right: object


# ---------------------------------------------------------------------------
# Statement AST


@dataclass(frozen=True)
class ChartStmt:
    name: str
    coords: tuple
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ParamStmt:
    names: tuple
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class OpaqueStmt:
    names: tuple
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ConstStmt:
    name: str
    expr: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class FormStmt:
    name: str
    chart: str
    expr: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class VFieldStmt:
    name: str
    chart: str
    expr: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MapStmt:
    name: str
    source: str
    target: str
    comps: tuple
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MetricStmt:
    name: str
    chart: str
    diag: tuple  # empty tuple means euclidean
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RegionStmt:
    name: str
    chart: str
    intervals: tuple  # ((lo, hi), ...)
    lattice: tuple
    random_count: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LocusStmt:
    name: str
    chart: str
    flavour: str  # coords points image union empty
    payload: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CheckStmt:
    kind: str
    payload: dict
    where: tuple  # ((name, Fraction), ...)
    note: str
    expect: str  # pass fail report
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Scenario:
    statements: tuple

    def checks(self):
        return [s for s in self.statements if isinstance(s, CheckStmt)]


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t.type != "EOF":
            self.pos += 1
        return t

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, op):
        t = self.peek()
        if t.type != "OP" or t.value != op:
            self.error(f"expected {op!r}")
        return self.next()

    def expect_name(self, what="a name"):
        t = self.peek()
        if t.type != "NAME":
            self.error(f"expected {what}")
        return self.next().value

    def expect_keyword(self, word):
        t = self.peek()
        if t.type != "NAME" or t.value != word:
            self.error(f"expected keyword {word!r}")
        return self.next()

    def expect_int(self, what="an integer"):
        t = self.peek()
        if t.type != "INT":
            self.error(f"expected {what}")
        return self.next().value

    def at_keyword(self, word):
        t = self.peek()
        return t.type == "NAME" and t.value == word

    def at_op(self, op):
        t = self.peek()
        return t.type == "OP" and t.value == op

    def eat_keyword(self, word):
        if self.at_keyword(word):
            self.next()
            return True
        return False

    def eat_op(self, op):
        if self.at_op(op):
            self.next()
            return True
        return False

    def fresh_name(self, what):
        t = self.peek()
        name = self.expect_name(what)
        if name in RESERVED:
            self.error(f"{name!r} is a reserved word", t)
        return name

    # -- expressions --------------------------------------------------

    def parse_expr(self):
        left = self.parse_term()
        while self.peek().type == "OP" and self.peek().value in ("+", "-"):
            op = self.next().value
            right = self.parse_term()
            left = Bin(op, left, right)
        return left

    def parse_term(self):
        if self.eat_op("-"):
            return Neg(self.parse_term())
        left = self.parse_pow()
        while (self.peek().type == "OP" and self.peek().value in _WEDGE_OPS) or self.at_keyword("wedge"):
            t = self.next()
            right = self.parse_pow()
            left = Bin(t.value, left, right)
        return left

    def parse_pow(self):
        base = self.parse_atom()
        if self.eat_op("^"):
            sign = -1 if self.eat_op("-") else 1
            k = self.expect_int("an integer exponent")
            return Bin("^", base, Num(sign * k))
        return base

    def parse_atom(self):
        t = self.peek()
        if t.type == "INT":
            self.next()
            return Num(t.value)
        if t.type == "OP" and t.value == "(":
            self.next()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if t.type != "NAME":
            self.error("expected an expression atom")
        name = self.next().value
        if name == "pi":
            return Pi()
        if name == "d":
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            return D(inner)
        if name == "e":
            self.expect_op("(")
            coord = self.expect_name("a coordinate name")
            self.expect_op(")")
            return Basis(coord)
        if name in ("pullback", "star"):
            self.expect_op("(")
            ref = self.expect_name("a map name" if name == "pullback" else "a metric name")
            self.expect_op(",")
            inner = self.parse_expr()
            self.expect_op(")")
            return Pullback(ref, inner) if name == "pullback" else Star(ref, inner)
        if self.at_op("("):
            self.next()
            inner = self.parse_expr()
            self.expect_op(")")
            return Call(name, inner)
        return Ref(name)

    def parse_rational(self, what="a rational number"):
        """`[-] INT [/ INT]` as a Fraction; every rational literal comes here."""
        sign = -1 if self.eat_op("-") else 1
        num = self.expect_int(what)
        if not (self.at_op("/") and self.peek(1).type == "INT"):
            return Fraction(sign * num)
        self.next()
        den = self.next()
        if den.value == 0:
            self.error("zero denominator", den)
        return Fraction(sign * num, den.value)

    def parse_bound(self):
        t = self.peek(1 if self.at_op("-") else 0)
        if t.type != "FLOAT":
            return self.parse_rational("an interval bound")
        sign = -1 if self.eat_op("-") else 1
        self.next()
        return sign * t.value

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
        stmts = []
        while True:
            while self.peek().type == "NEWLINE":
                self.next()
            if self.peek().type == "EOF":
                break
            stmts.append(self.parse_statement())
            t = self.peek()
            if t.type not in ("NEWLINE", "EOF"):
                self.error("expected end of statement")
        return Scenario(tuple(stmts))

    def parse_statement(self):
        t = self.peek()
        if t.type != "NAME":
            self.error("expected a statement keyword")
        kw = t.value
        handlers = {
            "chart": self.parse_chart,
            "param": self.parse_param,
            "opaque": self.parse_opaque,
            "const": self.parse_const,
            "form": self.parse_form,
            "vfield": self.parse_vfield,
            "map": self.parse_map,
            "metric": self.parse_metric,
            "region": self.parse_region,
            "locus": self.parse_locus,
            "check": self.parse_check,
        }
        if kw not in handlers:
            self.error(f"unknown statement keyword {kw!r}")
        return handlers[kw]()

    def parse_chart(self):
        line = self.next().line
        name = self.fresh_name("a chart name")
        return ChartStmt(name, self.parse_group(self.fresh_name, "a coordinate name"), line)

    def parse_param(self):
        line = self.next().line
        return ParamStmt(self.parse_list(self.fresh_name, "a parameter name"), line)

    def parse_opaque(self):
        line = self.next().line
        return OpaqueStmt(self.parse_list(self.fresh_name, "an opaque function name"), line)

    def parse_const(self):
        line = self.next().line
        name = self.fresh_name("a constant name")
        self.expect_op("=")
        return ConstStmt(name, self.parse_expr(), line)

    def parse_form(self):
        line = self.next().line
        name = self.fresh_name("a form name")
        self.expect_keyword("on")
        chart = self.expect_name("a chart name")
        self.expect_op("=")
        return FormStmt(name, chart, self.parse_expr(), line)

    def parse_vfield(self):
        line = self.next().line
        name = self.fresh_name("a field name")
        self.expect_keyword("on")
        chart = self.expect_name("a chart name")
        self.expect_op("=")
        return VFieldStmt(name, chart, self.parse_expr(), line)

    def parse_map(self):
        line = self.next().line
        name = self.fresh_name("a map name")
        self.expect_op(":")
        source = self.expect_name("a source chart")
        self.expect_op("->")
        target = self.expect_name("a target chart")
        self.expect_op("=")
        return MapStmt(name, source, target, self.parse_group(self.parse_expr), line)

    def parse_metric(self):
        line = self.next().line
        name = self.fresh_name("a metric name")
        self.expect_keyword("on")
        chart = self.expect_name("a chart name")
        self.expect_op("=")
        if self.eat_keyword("euclidean"):
            return MetricStmt(name, chart, (), line)
        self.expect_keyword("diag")
        return MetricStmt(name, chart, self.parse_group(self.parse_rational), line)

    def parse_region(self):
        line = self.next().line
        name = self.fresh_name("a region name")
        self.expect_keyword("on")
        chart = self.expect_name("a chart name")
        self.expect_op("=")
        intervals = [self.parse_interval()]
        if self.eat_op("^"):
            count = self.expect_int("a repetition count")
            intervals = intervals * count
        else:
            while self.at_keyword("x"):
                self.next()
                intervals.append(self.parse_interval())
        self.expect_keyword("lattice")
        if self.at_op("("):
            lattice = self.parse_group(self.expect_int, "a lattice resolution")
        else:
            lattice = [self.expect_int("a lattice resolution")] * len(intervals)
        self.expect_keyword("random")
        count = self.expect_int("a random sample count")
        return RegionStmt(name, chart, tuple(intervals), tuple(lattice), count, line)

    def parse_interval(self):
        self.expect_op("[")
        lo = self.parse_bound()
        self.expect_op(",")
        hi = self.parse_bound()
        self.expect_op("]")
        return (lo, hi)

    def parse_locus(self):
        line = self.next().line
        name = self.fresh_name("a locus name")
        self.expect_keyword("on")
        chart = self.expect_name("a chart name")
        self.expect_op("=")
        t = self.peek()
        if self.eat_keyword("empty"):
            return LocusStmt(name, chart, "empty", None, line)
        if self.eat_keyword("coords"):
            return LocusStmt(name, chart, "coords", self.parse_assignments(), line)
        if self.eat_keyword("points"):
            return LocusStmt(name, chart, "points", self.parse_group(self.parse_group, self.parse_rational), line)
        if self.eat_keyword("image"):
            self.expect_op("(")
            map_name = self.expect_name("a map name or id")
            self.expect_op(",")
            region = self.expect_name("a region name")
            self.expect_op(")")
            return LocusStmt(name, chart, "image", (map_name, region), line)
        if self.eat_keyword("union"):
            return LocusStmt(name, chart, "union", self.parse_group(self.expect_name, "a locus name"), line)
        self.error("expected a locus flavour (coords, points, image, union, empty)", t)

    # -- checks ---------------------------------------------------------

    def parse_check(self):
        line = self.next().line
        t = self.peek()
        kind = self.expect_name("a check kind")
        spec = CHECK_SPECS.get(kind)
        if spec is None:
            self.error(f"unknown check kind {kind!r}", t)
        payload = {}
        spec.read(self, payload)
        where = self.parse_list(self.parse_pair, "a parameter name") if self.eat_keyword("where") else ()
        note = ""
        if self.at_keyword("note"):
            self.next()
            t = self.peek()
            if t.type != "STRING":
                self.error("expected a quoted note")
            note = self.next().value
        expect = "pass"
        if self.eat_keyword("expect"):
            t = self.peek()
            word = self.expect_name("pass, fail, or report")
            if word not in ("pass", "fail", "report"):
                self.error("expected pass, fail, or report", t)
            expect = word
        return CheckStmt(kind, payload, where, note, expect, line)


def parse_scenario(text):
    return _Parser(tokenize(text)).parse_scenario()


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


def _print_bound(b):
    if isinstance(b, Fraction):
        return str(b)
    return repr(b)


def _print_assignments(pairs):
    return "(" + ", ".join(f"{n}={v}" for n, v in pairs) + ")"


# ---------------------------------------------------------------------------
# Check grammar
#
# CHECK_SPECS is the grammar of record for check lines: one _Spec per kind,
# in the order CHECK_KINDS lists them.  A spec holds the kind's required
# items in order (a literal `,` or keyword, or a typed slot that fills
# payload fields), then its keyword options.  Options may come in any order;
# a repeated option keeps its last value, and an absent one leaves its
# default in the payload.  The printer writes an option only when it differs
# from that default.  Runners are looked up by the same kind names in
# `runner._RUNNERS`.


class _Lit:
    """A fixed token of a check line: `,` or a keyword."""

    def __init__(self, text):
        self.text = text
        self._expect = _Parser.expect_op if text == "," else _Parser.expect_keyword

    def read(self, parser, out):
        self._expect(parser, self.text)

    def write(self, payload):
        return self.text


class _Field:
    """A typed slot that fills one payload field; `default` is its value
    when the slot is an option and the line leaves it out."""

    def __init__(self, name, read, write=str, default=None):
        self.name = name
        self.read_value = read
        self.write_value = write
        self.defaults = {name: default}

    def read(self, parser, out):
        out[self.name] = self.read_value(parser)

    def write(self, payload):
        return self.write_value(payload[self.name])


def _expr(name):
    return _Field(name, _Parser.parse_expr, _print_expr)


def _int(name, what):
    return _Field(name, lambda p: p.expect_int(what))


def _count(name, what):
    """A budget option: an integer of at least 1."""

    def read(p):
        t = p.peek()
        n = p.expect_int(what)
        if n < 1:
            p.error(f"{name} must be at least 1", t)
        return n

    return _Field(name, read)


def _name(name, what):
    return _Field(name, lambda p: p.expect_name(what))


def _choice(name, what, choices, complaint):
    def read(p):
        t = p.peek()
        word = p.expect_name(what)
        if word not in choices:
            p.error(complaint, t)
        return word

    return _Field(name, read)


def _group(item, default=None):
    """`(a, b, ...)`: one or more of `item`'s values, as a tuple."""
    return _Field(
        item.name,
        lambda p: p.parse_group(item.read_value, p),
        lambda values: "(" + ", ".join(map(str, values)) + ")",
        default,
    )


class _Spec:
    """Required items in order, then keyword options (keyword -> slot)."""

    def __init__(self, *items, **options):
        self.items = tuple(_Lit(i) if isinstance(i, str) else i for i in items)
        self.options = options
        self.defaults = {}
        for slot in options.values():
            self.defaults.update(slot.defaults)

    def read(self, parser, out):
        for item in self.items:
            item.read(parser, out)
        out.update(self.defaults)
        while True:
            t = parser.peek()
            slot = self.options.get(t.value) if t.type == "NAME" else None
            if slot is None:
                return
            parser.next()
            slot.read(parser, out)

    def write(self, payload):
        parts = []
        for item in self.items:
            text = item.write(payload)
            if text == ",":
                parts[-1] += text
            else:
                parts.append(text)
        for keyword, slot in self.options.items():
            if any(payload.get(k, d) != d for k, d in slot.defaults.items()):
                parts.append(f"{keyword} {slot.write(payload)}")
        return " ".join(parts)


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
_VIA_MARGIN = {"via": _name("via", "a map name"), "margin": _Field("margin", lambda p: p.parse_rational("a margin"))}


class _Place:
    """Where a pointwise check looks: `at (point)`, or
    `on|off L region R [points n] [via m] [margin q]`."""

    _sampled = _Spec(_LOCUS, *_REGION, points=_count("points", "a point count"), **_VIA_MARGIN)

    def read(self, parser, out):
        if parser.eat_keyword("at"):
            out["mode"] = "at"
            out["point"] = parser.parse_assignments()
            return
        if not (parser.at_keyword("on") or parser.at_keyword("off")):
            parser.error("expected at, on, or off")
        out["mode"] = parser.next().value
        self._sampled.read(parser, out)

    def write(self, payload):
        if payload["mode"] == "at":
            return "at " + _print_assignments(payload["point"])
        return f"{payload['mode']} {self._sampled.write(payload)}"


_RANK = _int("rank", "a rank")

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
        "regular", _int("regular", "a rank"), "singular", _int("singular", "a rank"), **_VIA_MARGIN,
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
        dims=_group(_int("dims", "a dimension")),
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
    if isinstance(stmt, ChartStmt):
        return f"chart {stmt.name}(" + ", ".join(stmt.coords) + ")"
    if isinstance(stmt, ParamStmt):
        return "param " + ", ".join(stmt.names)
    if isinstance(stmt, OpaqueStmt):
        return "opaque " + ", ".join(stmt.names)
    if isinstance(stmt, ConstStmt):
        return f"const {stmt.name} = {_print_expr(stmt.expr)}"
    if isinstance(stmt, FormStmt):
        return f"form {stmt.name} on {stmt.chart} = {_print_expr(stmt.expr)}"
    if isinstance(stmt, VFieldStmt):
        return f"vfield {stmt.name} on {stmt.chart} = {_print_expr(stmt.expr)}"
    if isinstance(stmt, MapStmt):
        comps = ", ".join(_print_expr(c) for c in stmt.comps)
        return f"map {stmt.name} : {stmt.source} -> {stmt.target} = ({comps})"
    if isinstance(stmt, MetricStmt):
        if not stmt.diag:
            return f"metric {stmt.name} on {stmt.chart} = euclidean"
        return (
            f"metric {stmt.name} on {stmt.chart} = diag("
            + ", ".join(str(v) for v in stmt.diag)
            + ")"
        )
    if isinstance(stmt, RegionStmt):
        ivs = stmt.intervals
        if len(ivs) > 1 and all(iv == ivs[0] for iv in ivs):
            ivs_txt = f"[{_print_bound(ivs[0][0])}, {_print_bound(ivs[0][1])}]^{len(ivs)}"
        else:
            ivs_txt = " x ".join(f"[{_print_bound(lo)}, {_print_bound(hi)}]" for lo, hi in ivs)
        lat = stmt.lattice
        lat_txt = str(lat[0]) if all(v == lat[0] for v in lat) else "(" + ", ".join(map(str, lat)) + ")"
        return (
            f"region {stmt.name} on {stmt.chart} = {ivs_txt}"
            f" lattice {lat_txt} random {stmt.random_count}"
        )
    if isinstance(stmt, LocusStmt):
        head = f"locus {stmt.name} on {stmt.chart} = "
        if stmt.flavour == "empty":
            return head + "empty"
        if stmt.flavour == "coords":
            return head + "coords" + _print_assignments(stmt.payload)
        if stmt.flavour == "points":
            pts = ", ".join("(" + ", ".join(str(v) for v in pt) + ")" for pt in stmt.payload)
            return head + f"points({pts})"
        if stmt.flavour == "image":
            return head + f"image({stmt.payload[0]}, {stmt.payload[1]})"
        if stmt.flavour == "union":
            return head + "union(" + ", ".join(stmt.payload) + ")"
        raise TypeError(f"unknown locus flavour {stmt.flavour!r}")
    if isinstance(stmt, CheckStmt):
        return _print_check(stmt)
    raise TypeError(f"unknown statement {stmt!r}")


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
    stmts = [ChartStmt("C", tuple(coords), 1)]
    stmts.append(ParamStmt(("Kp",), 1))
    stmts.append(ConstStmt("c0", _random_expr(rng, coords, 1), 1))
    n_forms = rng.randrange(1, 4)
    form_names = []
    for i in range(n_forms):
        name = f"om{i}"
        form_names.append(name)
        stmts.append(FormStmt(name, "C", _random_form_expr(rng, coords, 2), 1))
    stmts.append(
        VFieldStmt(
            "X",
            "C",
            Bin("*", _random_expr(rng, coords, 1), Basis(rng.choice(coords))),
            1,
        )
    )
    lo = Fraction(-rng.randrange(1, 3))
    hi = Fraction(rng.randrange(1, 3))
    stmts.append(
        RegionStmt(
            "R",
            "C",
            tuple([(lo, hi)] * dim),
            tuple([rng.randrange(1, 4)] * dim),
            rng.randrange(0, 33),
            1,
        )
    )
    stmts.append(
        LocusStmt("L", "C", "coords", ((coords[0], Fraction(0)),), 1)
    )
    checks = []
    checks.append(CheckStmt("closed", {"form": Ref(rng.choice(form_names))}, (), "", rng.choice(("pass", "fail", "report")), 1))
    point = tuple((c, Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))) for c in coords)
    checks.append(
        CheckStmt(
            "rank_at",
            {"form": Ref(rng.choice(form_names)), "rank": rng.randrange(0, dim + 1), "mode": "at", "point": point},
            (),
            "",
            "report",
            1,
        )
    )
    checks.append(
        CheckStmt(
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
            "report",
            1,
        )
    )
    checks.append(
        CheckStmt(
            "equal",
            {"left": _random_expr(rng, coords, 2), "right": _random_expr(rng, coords, 2)},
            (),
            "",
            "report",
            1,
        )
    )
    rng.shuffle(checks)
    return Scenario(tuple(stmts + checks))
