"""Seeded random schemas, instances and queries, and a brute-force oracle.

:func:`generate` draws one case from a seed:

* relations ``r0 … r(k−1)``, ``k`` in 2–5, of arity 1–3; each position
  draws an abstract domain from ``A``, ``B``, ``C`` and a mode from ``i``
  (input) and ``o`` (output);
* each relation holds 0, 2, 4 or 8 rows (duplicates drawn are kept once)
  over four values per domain (``a0 … a3`` for ``A``);
* the query has 1–3 body atoms over those relations, drawn with
  repetition; each body position is a constant of its domain with
  p = 0.2, otherwise one of three variables of its domain (``A0 … A2``);
* the head is a random subset of the body variables in random order, plus
  a constant with p = 0.15.

:func:`obtainable_answers` is *oracle A*: the answers obtainable under the
access limitations, by brute force.  One value pool per domain starts from
the query's body constants; every relation is accessed with every binding
of its input positions the pools allow until no access retrieves anything
new; the query is then evaluated over the rows retrieved.  It shares no
code with the engine — no plan, no cache, no join program, not even the
query parser — so it can vouch for what the engine's incremental paths
compute.

Nothing here imports the engine at module level, so a tool that chooses
which checkout of the engine to import (``tests/behaviour_fingerprint.py``)
can use the generator too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple, Union

Row = Tuple[str, ...]

DOMAINS = ("A", "B", "C")


class Var(NamedTuple):
    """A query variable (constants are plain strings)."""

    name: str


Term = Union[Var, str]


@dataclass(frozen=True)
class GeneratedCase:
    """One schema, instance and query, as plain data."""

    seed: int
    #: ``relation -> (modes, domains)``, e.g. ``("io", ("A", "B"))``.
    signatures: Dict[str, Tuple[str, Tuple[str, ...]]]
    rows: Dict[str, List[Row]]
    body: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    head: Tuple[Term, ...]

    @property
    def text(self) -> str:
        """The query in the engine's syntax."""

        def term(t: Term) -> str:
            return t.name if isinstance(t, Var) else f"'{t}'"

        atoms = ", ".join(f"{name}({', '.join(map(term, terms))})" for name, terms in self.body)
        return f"q({', '.join(map(term, self.head))}) <- {atoms}"

    def database(self):
        """The engine's ``(Schema, DatabaseInstance)`` for this case."""
        from repro.model.instance import DatabaseInstance
        from repro.model.schema import Schema

        schema = Schema.from_signatures(
            {name: (modes, list(domains)) for name, (modes, domains) in self.signatures.items()}
        )
        return schema, DatabaseInstance(schema, self.rows)


def _values(domain: str) -> List[str]:
    return [f"{domain.lower()}{index}" for index in range(4)]


def generate(seed: int) -> GeneratedCase:
    """The case of ``seed`` (the same seed always draws the same case)."""
    rng = random.Random(f"generated/{seed}")
    signatures: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    rows: Dict[str, List[Row]] = {}
    for index in range(rng.randint(2, 5)):
        arity = rng.randint(1, 3)
        domains = tuple(rng.choice(DOMAINS) for _ in range(arity))
        modes = "".join(rng.choice("io") for _ in range(arity))
        name = f"r{index}"
        signatures[name] = (modes, domains)
        drawn = [
            tuple(rng.choice(_values(domain)) for domain in domains)
            for _ in range(rng.choice((0, 2, 4, 8)))
        ]
        rows[name] = list(dict.fromkeys(drawn))
    body = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(signatures))
        terms: List[Term] = []
        for domain in signatures[name][1]:
            if rng.random() < 0.2:
                terms.append(rng.choice(_values(domain)))
            else:
                terms.append(Var(f"{domain}{rng.randint(0, 2)}"))
        body.append((name, tuple(terms)))
    variables = sorted({t for _, terms in body for t in terms if isinstance(t, Var)})
    head: List[Term] = rng.sample(variables, rng.randint(0, len(variables)))
    if rng.random() < 0.15:
        head.insert(rng.randint(0, len(head)), rng.choice(_values(rng.choice(DOMAINS))))
    return GeneratedCase(seed, signatures, rows, tuple(body), tuple(head))


# -- oracle A --------------------------------------------------------------------
def extract(case: GeneratedCase) -> Dict[str, Set[Row]]:
    """Every row any sequence of accesses can retrieve from the query's constants."""
    pools: Dict[str, Set[str]] = {domain: set() for domain in DOMAINS}
    for name, terms in case.body:
        for domain, term in zip(case.signatures[name][1], terms):
            if not isinstance(term, Var):
                pools[domain].add(term)
    retrieved: Dict[str, Set[Row]] = {name: set() for name in case.signatures}
    accessed: Set[Tuple[str, Row]] = set()
    grown = True
    while grown:
        grown = False
        for name, (modes, domains) in case.signatures.items():
            inputs = [position for position, mode in enumerate(modes) if mode == "i"]
            choices = [sorted(pools[domains[position]]) for position in inputs]
            for binding in itertools.product(*choices):
                if (name, binding) in accessed:
                    continue
                accessed.add((name, binding))
                for row in case.rows[name]:
                    if any(row[p] != value for p, value in zip(inputs, binding)):
                        continue
                    if row not in retrieved[name]:
                        retrieved[name].add(row)
                        grown = True
                        for domain, value in zip(domains, row):
                            pools[domain].add(value)
    return retrieved


def _solutions(
    body: Tuple[Tuple[str, Tuple[Term, ...]], ...],
    rows: Dict[str, Set[Row]],
    assignment: Dict[str, str],
) -> Iterator[Dict[str, str]]:
    if not body:
        yield assignment
        return
    (name, terms), rest = body[0], body[1:]
    for row in rows[name]:
        extended = dict(assignment)
        for term, value in zip(terms, row):
            if isinstance(term, Var):
                if extended.setdefault(term.name, value) != value:
                    break
            elif term != value:
                break
        else:
            yield from _solutions(rest, rows, extended)


def obtainable_answers(case: GeneratedCase) -> Set[Row]:
    """Oracle A: the query over every row the access limitations let one retrieve."""
    return {
        tuple(solution[t.name] if isinstance(t, Var) else t for t in case.head)
        for solution in _solutions(case.body, extract(case), {})
    }
