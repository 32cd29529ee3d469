"""A small textual parser for conjunctive queries and atoms.

The accepted syntax follows Datalog conventions::

    q(N) <- r1(A, N, Y1), r2('volare', Y2, A)
    q(X, Y) :- r(X, 'a'), s(Y, X), t(X, 3)

* identifiers starting with an upper-case letter (or underscore) are
  variables; a bare ``_`` is an *anonymous* variable — every occurrence is
  a fresh, distinct variable (two ``_`` never join);
* quoted strings (single or double quotes) and numbers are constants;
* bare identifiers starting with a lower-case letter are string constants;
* ``<-`` and ``:-`` both separate head and body (only outside quotes, so a
  quoted constant may contain either); atoms are comma-separated.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional

from repro.exceptions import ParseError
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant, Term, Variable

_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(")
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")


def _anonymous_factory(text: str) -> Callable[[], Variable]:
    """Fresh-variable supply for the ``_`` tokens of one query.

    Every bare ``_`` must become a *distinct* variable — reusing one
    ``Variable("_")`` silently equi-joins positions the author meant to be
    independent.  Generated names skip anything literally present in the
    query text, so they can never capture a variable the author wrote.
    """
    counter = 0

    def fresh() -> Variable:
        nonlocal counter
        while True:
            counter += 1
            name = f"_anon{counter}"
            if name not in text:
                return Variable(name)

    return fresh


def _parse_term(token: str, fresh: Optional[Callable[[], Variable]] = None) -> Term:
    """Parse a single term token."""
    token = token.strip()
    if not token:
        raise ParseError("empty term")
    if token == "_":
        return fresh() if fresh is not None else Variable("_")
    if (token[0] == "'" and token[-1] == "'") or (token[0] == '"' and token[-1] == '"'):
        return Constant(token[1:-1])
    if _NUMBER_RE.match(token):
        if "." in token:
            return Constant(float(token))
        return Constant(int(token))
    if token[0].isupper() or token[0] == "_":
        return Variable(token)
    if token[0].isalpha():
        return Constant(token)
    raise ParseError(f"cannot parse term {token!r}")


def _split_arguments(text: str) -> List[str]:
    """Split a comma-separated argument list, respecting quotes."""
    arguments: List[str] = []
    current: List[str] = []
    quote: str = ""
    for char in text:
        if quote:
            current.append(char)
            if char == quote:
                quote = ""
            continue
        if char in "'\"":
            quote = char
            current.append(char)
            continue
        if char == ",":
            arguments.append("".join(current))
            current = []
            continue
        current.append(char)
    if quote:
        raise ParseError(f"unterminated {quote} quote in argument list {text!r}")
    if current or arguments:
        arguments.append("".join(current))
    return [argument.strip() for argument in arguments if argument.strip()]


def _find_separator(text: str) -> int:
    """Index of the first ``<-``/``:-`` occurring outside quotes, or -1.

    A plain substring search would split inside a quoted constant such as
    ``'<-'``, mangling both the head and the body.
    """
    quote = ""
    for index, char in enumerate(text):
        if quote:
            if char == quote:
                quote = ""
            continue
        if char in "'\"":
            quote = char
            continue
        if char in "<:" and text[index : index + 2] in ("<-", ":-"):
            return index
    return -1


def parse_atom(text: str, _fresh: Optional[Callable[[], Variable]] = None) -> Atom:
    """Parse a single atom such as ``r1('volare', Y2, A)``.

    ``_fresh`` supplies names for anonymous ``_`` terms; when absent (the
    atom is parsed on its own, not as part of a query) a private supply
    scoped to this atom is used, so the atom's own ``_`` are still pairwise
    distinct.
    """
    text = text.strip()
    match = _ATOM_RE.match(text)
    if not match or not text.endswith(")"):
        raise ParseError(f"cannot parse atom {text!r}")
    if _fresh is None:
        _fresh = _anonymous_factory(text)
    predicate = match.group(1)
    inner = text[match.end():-1]
    terms = tuple(_parse_term(token, _fresh) for token in _split_arguments(inner))
    return Atom(predicate, terms)


def _split_atoms(body: str) -> List[str]:
    """Split a conjunction into atom strings, respecting parentheses and quotes."""
    atoms: List[str] = []
    current: List[str] = []
    depth = 0
    quote = ""
    for char in body:
        if quote:
            current.append(char)
            if char == quote:
                quote = ""
            continue
        if char in "'\"":
            quote = char
            current.append(char)
            continue
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {body!r}")
        if char == "," and depth == 0:
            atoms.append("".join(current))
            current = []
            continue
        current.append(char)
    if quote:
        raise ParseError(f"unterminated {quote} quote in {body!r}")
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {body!r}")
    if current:
        atoms.append("".join(current))
    return [atom.strip() for atom in atoms if atom.strip()]


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a conjunctive query of the form ``q(X) <- r(X, Y), s(Y)``."""
    text = text.strip().rstrip(".")
    at = _find_separator(text)
    if at < 0:
        raise ParseError(f"query {text!r} has no '<-' or ':-' separator")
    head_text, body_text = text[:at], text[at + 2 :]
    # One fresh-name supply for the whole query: every `_` of every atom
    # gets its own variable, and no two `_` can accidentally join.
    fresh = _anonymous_factory(text)
    head_atom = (
        parse_atom(head_text.strip(), fresh)
        if "(" in head_text
        else Atom(head_text.strip(), ())
    )
    body_atoms = tuple(parse_atom(atom_text, fresh) for atom_text in _split_atoms(body_text))
    return ConjunctiveQuery(head_atom.predicate, head_atom.terms, body_atoms)

