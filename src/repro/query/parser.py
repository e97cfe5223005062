"""EQL concrete syntax: tokenizer and recursive-descent parser.

The surface syntax extends a SPARQL-like core (as the paper's prototype
extends SPARQL) with the ``CONNECT(...) AS ?v`` construct for CTPs::

    SELECT ?x ?w WHERE {
      ?x founded "OrgB" .
      FILTER(type(?x) = "entrepreneur" AND label(?x) ~ "*ob")
      CONNECT(?x, "France", *) AS ?w UNI LABEL("citizenOf", "locatedIn")
                                     MAX 6 SCORE size TOP 3 TIMEOUT 2.5
    }

* A bare string/identifier in a triple or CONNECT position is the paper's
  shorthand for ``label(v) = c`` over a fresh variable.
* ``*`` as a CONNECT argument denotes an ``N`` (wildcard) seed set
  (Section 4.9): any graph node matches.
* ``FILTER`` conditions always constrain exactly one variable
  (Definition 2.2); they are attached to that variable's predicate wherever
  it occurs.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ParseError, ValidationError
from repro.query.ast import FRESH_VAR_PREFIX, CTP, Condition, CTPFilters, EdgePattern, EQLQuery, Predicate

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|=|<|>|~)
  | (?P<punct>[{}(),.*])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select",
    "where",
    "connect",
    "as",
    "filter",
    "uni",
    "label",
    "max",
    "score",
    "top",
    "timeout",
    "limit",
    "and",
}


class _Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind: str, value: Any, line: int):
        self.kind = kind
        self.value = value
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    line = 1
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r}", position=position, line=line)
        line += text.count("\n", position, match.end())
        position = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        value: Any = match.group()
        if kind == "var":
            value = value[1:]
        elif kind == "string":
            value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        elif kind == "number":
            value = float(value) if "." in value else int(value)
        elif kind == "ident" and value.lower() in _KEYWORDS:
            kind = "keyword"
            value = value.lower()
        tokens.append(_Token(kind, value, line))
    tokens.append(_Token("eof", None, line))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.position = 0
        self.anon_counter = 0
        # raw collected pieces
        self.triples: List[Tuple[Any, Any, Any]] = []  # terms
        self.connects: List[Tuple[List[Any], str, CTPFilters]] = []
        self.conditions: Dict[str, List[Condition]] = {}

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.position]

    def next(self) -> _Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.peek().line)

    def expect_keyword(self, keyword: str) -> None:
        token = self.next()
        if token.kind != "keyword" or token.value != keyword:
            raise ParseError(f"expected {keyword.upper()}, found {token.value!r}", line=token.line)

    def expect_punct(self, punct: str) -> None:
        token = self.next()
        if token.kind != "punct" or token.value != punct:
            raise ParseError(f"expected {punct!r}, found {token.value!r}", line=token.line)

    def at_punct(self, punct: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.value == punct

    def at_keyword(self, keyword: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.value == keyword

    def fresh_var(self) -> str:
        self.anon_counter += 1
        return f"{FRESH_VAR_PREFIX}{self.anon_counter}"

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------
    def parse(self) -> EQLQuery:
        self.expect_keyword("select")
        head = self._parse_head()
        self.expect_keyword("where")
        self.expect_punct("{")
        while not self.at_punct("}"):
            self._parse_clause()
        self.expect_punct("}")
        limit = None
        if self.at_keyword("limit"):
            self.next()
            limit = self._expect_int("LIMIT")
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().value!r}")
        return self._assemble(head, limit)

    def _parse_head(self) -> Optional[List[str]]:
        if self.at_punct("*"):
            self.next()
            return None  # all body variables
        head: List[str] = []
        while self.peek().kind == "var":
            head.append(self.next().value)
        if not head:
            raise self.error("SELECT needs at least one variable or *")
        return head

    def _parse_clause(self) -> None:
        if self.at_keyword("connect"):
            self._parse_connect()
        elif self.at_keyword("filter"):
            self._parse_filter()
        else:
            self._parse_triple()
        if self.at_punct("."):
            self.next()

    # a term: variable, or constant (label shorthand) over a fresh variable
    def _parse_term(self, allow_wildcard: bool = False):
        token = self.peek()
        if token.kind == "var":
            self.next()
            return ("var", token.value)
        if token.kind in ("string", "ident"):
            self.next()
            return ("const", token.value)
        if allow_wildcard and self.at_punct("*"):
            self.next()
            return ("wild", None)
        raise self.error(f"expected a variable or constant, found {token.value!r}")

    def _parse_triple(self) -> None:
        source = self._parse_term()
        edge = self._parse_term()
        target = self._parse_term()
        self.triples.append((source, edge, target))

    def _parse_connect(self) -> None:
        self.expect_keyword("connect")
        self.expect_punct("(")
        seeds = [self._parse_term(allow_wildcard=True)]
        while self.at_punct(","):
            self.next()
            seeds.append(self._parse_term(allow_wildcard=True))
        self.expect_punct(")")
        if len(seeds) < 2:
            raise self.error("CONNECT needs at least two seed arguments")
        self.expect_keyword("as")
        token = self.next()
        if token.kind != "var":
            raise ParseError(f"expected the tree variable after AS, found {token.value!r}", line=token.line)
        tree_var = token.value
        filters = self._parse_ctp_filters()
        self.connects.append((seeds, tree_var, filters))

    def _parse_ctp_filters(self) -> CTPFilters:
        uni = None  # tri-state: None = unspecified, inherit the base config
        labels = None
        max_edges = None
        score = None
        top_k = None
        timeout = None
        limit = None
        while self.peek().kind == "keyword":
            keyword = self.peek().value
            if keyword == "uni":
                self.next()
                uni = True
            elif keyword == "label":
                self.next()
                self.expect_punct("(")
                labels = [self._expect_string()]
                while self.at_punct(","):
                    self.next()
                    labels.append(self._expect_string())
                self.expect_punct(")")
            elif keyword == "max":
                self.next()
                max_edges = self._expect_int("MAX")
            elif keyword == "score":
                self.next()
                token = self.next()
                if token.kind != "ident":
                    raise ParseError(f"expected a score name after SCORE, found {token.value!r}", line=token.line)
                score = token.value
                if self.at_keyword("top"):
                    self.next()
                    top_k = self._expect_int("TOP")
            elif keyword == "timeout":
                self.next()
                token = self.next()
                if token.kind != "number":
                    raise ParseError(f"expected a number after TIMEOUT, found {token.value!r}", line=token.line)
                timeout = float(token.value)
            elif keyword == "limit":
                self.next()
                limit = self._expect_int("LIMIT")
            else:
                break
        return CTPFilters(
            uni=uni,
            labels=frozenset(labels) if labels else None,
            max_edges=max_edges,
            score=score,
            top_k=top_k,
            timeout=timeout,
            limit=limit,
        )

    def _expect_string(self) -> str:
        token = self.next()
        if token.kind not in ("string", "ident"):
            raise ParseError(f"expected a label string, found {token.value!r}", line=token.line)
        return token.value

    def _expect_int(self, context: str) -> int:
        token = self.next()
        if token.kind != "number" or not isinstance(token.value, int):
            raise ParseError(f"expected an integer after {context}, found {token.value!r}", line=token.line)
        return token.value

    def _parse_filter(self) -> None:
        self.expect_keyword("filter")
        self.expect_punct("(")
        self._parse_condition()
        while self.at_keyword("and"):
            self.next()
            self._parse_condition()
        self.expect_punct(")")

    def _parse_condition(self) -> None:
        token = self.next()
        if token.kind == "ident" or (token.kind == "keyword" and token.value == "label"):
            # prop(?v) op literal — note LABEL is also a CTP filter keyword,
            # so it arrives as a keyword token here.
            prop = token.value
            self.expect_punct("(")
            var_token = self.next()
            if var_token.kind != "var":
                raise ParseError(f"expected a variable, found {var_token.value!r}", line=var_token.line)
            var = var_token.value
            self.expect_punct(")")
        elif token.kind == "var":
            # ?v op literal — shorthand for label(?v) op literal
            prop = "label"
            var = token.value
        else:
            raise ParseError(f"expected a condition, found {token.value!r}", line=token.line)
        op_token = self.next()
        if op_token.kind != "op":
            raise ParseError(f"expected a comparison operator, found {op_token.value!r}", line=op_token.line)
        literal_token = self.next()
        if literal_token.kind not in ("string", "number", "ident"):
            raise ParseError(f"expected a literal, found {literal_token.value!r}", line=literal_token.line)
        self.conditions.setdefault(var, []).append(Condition(prop, op_token.value, literal_token.value))

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _predicate_for(self, term) -> Predicate:
        kind, value = term
        if kind == "var":
            return Predicate(value, tuple(self.conditions.get(value, ())))
        if kind == "const":
            return Predicate.label_equals(self.fresh_var(), value)
        return Predicate(self.fresh_var())  # wildcard: empty, unused elsewhere

    def _assemble(self, head: Optional[List[str]], limit: Optional[int] = None) -> EQLQuery:
        patterns = tuple(
            EdgePattern(self._predicate_for(s), self._predicate_for(e), self._predicate_for(t))
            for s, e, t in self.triples
        )
        ctps = tuple(
            CTP(tuple(self._predicate_for(seed) for seed in seeds), tree_var, filters)
            for seeds, tree_var, filters in self.connects
        )
        body_vars: List[str] = []
        for pattern in patterns:
            for var in pattern.variables():
                if var not in body_vars:
                    body_vars.append(var)
        for ctp in ctps:
            for var in ctp.seed_vars():
                if var not in body_vars:
                    body_vars.append(var)
            body_vars.append(ctp.tree_var)
        for var in self.conditions:
            if var not in body_vars:
                raise ValidationError(f"FILTER constrains ?{var}, which does not occur in the query body")
        if head is None:
            head = [var for var in body_vars if not var.startswith(FRESH_VAR_PREFIX)]
        return EQLQuery(head=tuple(head), patterns=patterns, ctps=ctps, limit=limit)


def parse_query(text: str) -> EQLQuery:
    """Parse EQL text into an :class:`~repro.query.ast.EQLQuery`.

    Raises :class:`~repro.errors.ParseError` on lexical/syntactic problems
    and :class:`~repro.errors.ValidationError` on well-formedness violations
    (Definitions 2.4 - 2.6).
    """
    return _Parser(text).parse()
