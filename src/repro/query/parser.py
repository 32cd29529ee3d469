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
  quoted constant may contain either); atoms are comma-separated;
* an empty argument or atom (``r(X,,Y)``, ``r(X),, s(X)``) and a bare term
  that is not one token (``r(Y Z)``) are errors, never silently repaired.

:func:`parse_query` parses each *text skeleton* — the text with its quoted
strings and numbers lifted out — once: a bounded memo maps the skeleton to
a term template, and a hit fills in the text's own literals.  What it may
serve is checked, not argued (:func:`_template_of`), so the memo can only
change how fast a :class:`ConjunctiveQuery` is produced, never which one.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ParseError, QueryError
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant, Term, Variable

_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(")
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")
_BARE_RE = re.compile(r"[^\s'\"()]+")


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
    """Parse a single (non-empty, stripped) term token."""
    if token == "_":
        return fresh() if fresh is not None else Variable("_")
    if (token[0] == "'" and token[-1] == "'") or (token[0] == '"' and token[-1] == '"'):
        return Constant(token[1:-1])
    if _NUMBER_RE.match(token):
        if "." in token:
            return Constant(float(token))
        return Constant(int(token))
    if _BARE_RE.fullmatch(token):
        if token[0].isupper() or token[0] == "_":
            return Variable(token)
        if token[0].isalpha():
            return Constant(token)
    raise ParseError(f"cannot parse term {token!r}")


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
    terms = tuple(_parse_term(token, _fresh) for token in _split(inner, "argument"))
    return Atom(predicate, terms)


def _split(text: str, part: str) -> List[str]:
    """Split ``text`` at its top-level commas — outside quotes and parentheses.

    ``part`` names what is being split off ("argument", "atom").  There may
    be no part at all (``r()``), but never an empty one: dropping it would
    shift every later position.
    """
    parts: List[str] = []
    current: List[str] = []
    depth = 0
    quote = ""
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
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if quote:
        raise ParseError(f"unterminated {quote} quote in {text!r}")
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    if not parts and not "".join(current).strip():
        return []
    parts.append("".join(current))
    parts = [piece.strip() for piece in parts]
    if not all(parts):
        raise ParseError(f"empty {part} in {text!r}")
    return parts


def _parse_uncached(text: str) -> ConjunctiveQuery:
    """The grammar itself: what :func:`parse_query` means, memo or no memo."""
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
    body_atoms = tuple(parse_atom(atom_text, fresh) for atom_text in _split(body_text, "atom"))
    return ConjunctiveQuery(head_atom.predicate, head_atom.terms, body_atoms)


# -- the parse memo --------------------------------------------------------------
#: Text skeletons the memo keeps (oldest stored goes first).  Fixed, for the
#: reason ``PLAN_CACHE_ENTRIES`` is: texts are chosen by clients.
PARSE_MEMO_ENTRIES = 256

#: A quoted string or a standalone number, captured so that one ``split``
#: yields ``[text, literal, text, ...]``.  Quotes come first, so digits
#: inside a quoted value are data, and a scan from the start of the text
#: opens and closes quotes exactly where the grammar's splitters do.  (The
#: lookahead only spares the alternatives where no literal can start.)
_LITERAL_RE = re.compile(
    r"""(?=['"\d-])('[^']*'|"[^"]*"|(?<![\w.])-?\d+(?:\.\d+)?(?![\w.]))"""
)
_ANONYMOUS_RE = re.compile(r"(?<!\w)_(?!\w)")
#: Stands for one lifted literal in a skeleton (a text that contains it goes
#: to the grammar directly); ``'<hole><i>'`` marks the ``i``-th one.
_HOLE = "\x00"

#: ``(head predicate, head terms, body)`` where an ``int`` term is the index
#: of the literal that fills it; a body atom without literals is kept whole,
#: one with literals as ``(predicate, terms)``.
_Template = Tuple[str, tuple, tuple]

_MEMO: Dict[str, _Template] = {}
_MEMO_LOCK = threading.Lock()


def _fill(template: _Template, literals: List[str]) -> ConjunctiveQuery:
    """The query of a template under one text's literals (the grammar's
    own term rules: ``007`` is ``7``, ``1.50`` is ``1.5``, ``'1'`` a string).

    Built with the *trusted* constructors: a literal always parses to a
    :class:`Constant`, and :func:`_template_of` stored the template only
    after the fill of one text equalled the grammar's checked parse of it,
    so every other fill differs from a valid query in constant values alone.
    """
    values = [_parse_term(literal) for literal in literals]
    head_predicate, head, body = template
    atoms = []
    for part in body:
        if type(part) is not Atom:
            predicate, terms = part
            part = Atom.trusted(
                predicate, tuple([values[t] if type(t) is int else t for t in terms])
            )
        atoms.append(part)
    return ConjunctiveQuery.trusted(
        head_predicate,
        tuple([values[t] if type(t) is int else t for t in head]),
        tuple(atoms),
    )


def _template_of(
    skeleton: str, literals: List[str], query: ConjunctiveQuery
) -> Optional[_Template]:
    """The template of ``skeleton``, or None when it must not be memoized.

    ``query`` is the grammar's parse of the text the skeleton was lifted
    from.  The candidate is the grammar's parse of the skeleton with every
    hole replaced by a quoted, numbered mark; it is accepted only if every
    mark comes back as a whole term, in text order, and filling it with the
    text's own literals reproduces ``query`` exactly (``==`` cannot tell
    ``1`` from ``1.0``, ``str`` can).  Each literal is then one complete
    argument token, which the grammar reads without looking inside — so any
    other text of this skeleton parses to the same template under its own
    literals.  A text with an anonymous ``_`` (its fresh name depends on the
    whole text), with two quoted regions in one argument, or failing the
    check in any other way is simply never stored.
    """
    if _ANONYMOUS_RE.search(skeleton):
        return None
    numbers = iter(range(len(literals)))
    try:
        marked = _parse_uncached(
            re.sub(_HOLE, lambda _: f"'{_HOLE}{next(numbers)}'", skeleton)
        )
    except QueryError:
        return None
    holes = 0

    def slots(terms: Tuple[Term, ...]) -> tuple:
        nonlocal holes
        out: List[object] = []
        for term in terms:
            if term == Constant(f"{_HOLE}{holes}"):
                out.append(holes)
                holes += 1
            else:
                out.append(term)
        return tuple(out)

    head = slots(marked.head_terms)
    body = []
    for atom in marked.body:
        terms = slots(atom.terms)
        body.append(atom if terms == atom.terms else (atom.predicate, terms))
    template = (marked.head_predicate, head, tuple(body))
    if holes == len(literals):
        filled = _fill(template, literals)
        if filled == query and str(filled) == str(query):
            return template
    return None


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a conjunctive query of the form ``q(X) <- r(X, Y), s(Y)``.

    A memo hit costs a literal split, one dictionary read and the fill: the
    query and its atoms are built straight from the template, without the
    term coercion and safety checks the template already passed.
    """
    if _HOLE in text:
        return _parse_uncached(text)
    parts = _LITERAL_RE.split(text)
    literals, skeleton = parts[1::2], _HOLE.join(parts[0::2])
    template = _MEMO.get(skeleton)
    if template is not None:
        return _fill(template, literals)
    query = _parse_uncached(text)
    template = _template_of(skeleton, literals, query)
    if template is not None:
        with _MEMO_LOCK:
            if len(_MEMO) >= PARSE_MEMO_ENTRIES:
                del _MEMO[next(iter(_MEMO))]
            _MEMO[skeleton] = template
    return query
