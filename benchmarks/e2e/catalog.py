"""Seeded music catalog, keyed query templates and a plain-Python oracle.

The catalog extends the paper's running example (``r1``/``r2``/``r3`` become
``artist``/``song``/``by_nation``) with albums, tracks and record labels, so
that one constant — a song title — seeds chains of two to five dependent
accesses.  Its *shape* is fixed by ``(artists, labels)``: every artist has
four songs and two albums, every label signs exactly ``artists // labels``
artists.  The seed only permutes who is paired with whom, so per-query work
barely depends on it and run-to-run spread is the program's, not the data's.

The program under test sees only :func:`Catalog.schema`,
:func:`Catalog.instance` and query texts.  Expected answers come from
:func:`Catalog.expected`, dictionary joins over the raw rows that share no
code with ``repro``: every template is a chain seeded by its constant, so
the obtainable answers under the access limitations are the certain answers
over the full instance.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

Row = Tuple[object, ...]

#: relation -> (access pattern, abstract domains); ``i`` arguments must be
#: bound before the source can be accessed.
SIGNATURES: Dict[str, Tuple[str, List[str]]] = {
    "artist": ("ioo", ["Artist", "Nation", "Year"]),
    "song": ("ioo", ["Song", "Year", "Artist"]),
    "by_nation": ("io", ["Nation", "Artist"]),
    "discography": ("io", ["Artist", "Album"]),
    "track": ("io", ["Album", "Song"]),
    "signed": ("io", ["Artist", "Label"]),
    "roster": ("io", ["Label", "Artist"]),
    "label_city": ("io", ["Label", "City"]),
    "chart": ("oo", ["Year", "Song"]),
}

#: Point templates: 2-5 atoms, 2-5 accesses on a cold session.  ``redundant``
#: has five atoms of which Chandra-Merlin minimization removes three.
POINT_TEMPLATES: Dict[str, str] = {
    "nation": "q(N) <- artist(A, N, Y1), song('{k}', Y2, A)",
    "disc": "q(Al, N) <- song('{k}', Y, A), artist(A, N, Y1), discography(A, Al)",
    "city": "q(L, C) <- song('{k}', Y, A), artist(A, N, Y1), signed(A, L), label_city(L, C)",
    "redundant": (
        "q(N) <- artist(A, N, Y1), song('{k}', Y2, A), song('{k}', Y3, A2), "
        "artist(A2, N2, Y4), artist(A2, N3, Y5)"
    ),
    "albumcity": (
        "q(Al, C) <- song('{k}', Y, A), artist(A, N, Y1), discography(A, Al), "
        "signed(A, L), label_city(L, C)"
    ),
}

#: The fan-out template: five dependent stages, one access per roster artist
#: and per album of theirs.
ROSTER_TEMPLATE = (
    "q(S2) <- song('{k}', Y, A), signed(A, L), roster(L, A2), "
    "discography(A2, Al), track(Al, S2)"
)

TEMPLATES: Dict[str, str] = {**POINT_TEMPLATES, "roster": ROSTER_TEMPLATE}

SONGS_PER_ARTIST = 4
NATIONS = 40
CITIES = 60
CHART_ROWS = 50


class Catalog:
    """One generated instance plus the indexes the oracle joins over."""

    def __init__(self, seed: int, artists: int, labels: int) -> None:
        if artists % labels:
            raise ValueError("labels must divide artists so every roster has one size")
        rng = random.Random(f"catalog/{seed}/{artists}/{labels}")
        self.artists = [f"artist_{i:05d}" for i in range(artists)]
        self.labels = [f"label_{i:04d}" for i in range(labels)]
        # Titles are numbered in shuffled order so a title says nothing
        # about its artist.
        titles = [f"song_{i:06d}" for i in range(artists * SONGS_PER_ARTIST)]
        rng.shuffle(titles)
        self.songs: List[str] = titles

        self.artist_info: Dict[str, Tuple[str, int]] = {}
        self.song_info: Dict[str, Tuple[int, str]] = {}
        self.albums_of: Dict[str, List[str]] = {}
        self.tracks_of: Dict[str, List[str]] = {}
        self.songs_of: Dict[str, List[str]] = {}
        for index, artist in enumerate(self.artists):
            nation = f"nation_{rng.randrange(NATIONS):02d}"
            born = 1930 + rng.randrange(70)
            self.artist_info[artist] = (nation, born)
            own = titles[index * SONGS_PER_ARTIST : (index + 1) * SONGS_PER_ARTIST]
            self.songs_of[artist] = own
            for title in own:
                self.song_info[title] = (born + 18 + rng.randrange(40), artist)
            first, second = f"album_{index:05d}a", f"album_{index:05d}b"
            self.albums_of[artist] = [first, second]
            # Two tracks, one track, and one single that is on no album.
            self.tracks_of[first] = own[0:2]
            self.tracks_of[second] = own[2:3]

        shuffled = list(self.artists)
        rng.shuffle(shuffled)
        size = artists // labels
        self.roster_of: Dict[str, List[str]] = {}
        self.label_of: Dict[str, str] = {}
        self.city_of: Dict[str, str] = {}
        for index, label in enumerate(self.labels):
            members = shuffled[index * size : (index + 1) * size]
            self.roster_of[label] = members
            self.city_of[label] = f"city_{rng.randrange(CITIES):02d}"
            for artist in members:
                self.label_of[artist] = label
        self.chart = [
            (self.song_info[title][0], title) for title in rng.sample(titles, CHART_ROWS)
        ]

    # -- what the program under test receives --------------------------------
    def rows(self) -> Dict[str, List[Row]]:
        """Every relation's extension as plain tuples."""
        return {
            "artist": [(a, n, y) for a, (n, y) in self.artist_info.items()],
            "song": [(s, y, a) for s, (y, a) in self.song_info.items()],
            "by_nation": [(n, a) for a, (n, _) in self.artist_info.items()],
            "discography": [(a, al) for a, als in self.albums_of.items() for al in als],
            "track": [(al, s) for al, songs in self.tracks_of.items() for s in songs],
            "signed": list(self.label_of.items()),
            "roster": [(lb, a) for lb, members in self.roster_of.items() for a in members],
            "label_city": list(self.city_of.items()),
            "chart": list(self.chart),
        }

    def instance(self):
        """A ``repro`` database instance over :data:`SIGNATURES`."""
        from repro.model.instance import DatabaseInstance
        from repro.model.schema import Schema

        return DatabaseInstance(Schema.from_signatures(SIGNATURES), self.rows())

    # -- the oracle ------------------------------------------------------------
    def expected(self, template: str, key: str) -> FrozenSet[Row]:
        """Certain answers of ``TEMPLATES[template]`` for song title ``key``."""
        _, artist = self.song_info[key]
        nation, _ = self.artist_info[artist]
        label = self.label_of[artist]
        city = self.city_of[label]
        if template in ("nation", "redundant"):
            return frozenset({(nation,)})
        if template == "disc":
            return frozenset((album, nation) for album in self.albums_of[artist])
        if template == "city":
            return frozenset({(label, city)})
        if template == "albumcity":
            return frozenset((album, city) for album in self.albums_of[artist])
        if template == "roster":
            return frozenset(
                (title,)
                for member in self.roster_of[label]
                for album in self.albums_of[member]
                for title in self.tracks_of[album]
            )
        raise KeyError(template)


def query_text(template: str, key: str) -> str:
    return TEMPLATES[template].format(k=key)


# -- key sequences ---------------------------------------------------------------
def zipf_counts(ranks: int, draws: int, s: float = 1.1) -> List[int]:
    """``draws`` apportioned over ranks ``1..ranks`` in proportion to ``rank**-s``.

    Largest-remainder rounding, so the counts always sum to ``draws``.
    """
    weights = [1.0 / rank**s for rank in range(1, ranks + 1)]
    shares = [draws * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda i: (counts[i] - shares[i], i))
    for index in by_remainder[: draws - sum(counts)]:
        counts[index] += 1
    return counts


def song_decks(catalog: Catalog, rng: random.Random, size: int, hot: int) -> Iterator[str]:
    """Endless song keys, dealt in shuffled decks of ``size``.

    Half of every deck is the first ``hot`` songs with zipf(1.1)
    multiplicities, half is distinct songs drawn from the rest.  Against
    independent draws from the same distribution this fixes how many keys of
    a deck repeat, so the share of warm operations — and with it latency and
    the access count — does not wander from seed to seed.
    """
    hot_keys, cold_keys = catalog.songs[:hot], catalog.songs[hot:]
    counts = zipf_counts(hot, size // 2)
    while True:
        deck = [key for key, count in zip(hot_keys, counts) for _ in range(count)]
        deck += rng.sample(cold_keys, size - size // 2)
        rng.shuffle(deck)
        yield from deck


def label_keys(catalog: Catalog, rng: random.Random) -> Iterator[Tuple[str, str]]:
    """Endless ``(label, song)`` pairs; each pass visits every label once.

    The song is one by a random artist of the label, so the roster template
    keyed by it fans out over exactly that label's roster.
    """
    while True:
        order = list(catalog.labels)
        rng.shuffle(order)
        for label in order:
            yield label, song_of_label(catalog, label, rng)


def song_of_label(catalog: Catalog, label: str, rng: random.Random) -> str:
    member = rng.choice(catalog.roster_of[label])
    return rng.choice(catalog.songs_of[member])


# -- self-test ---------------------------------------------------------------------
def selftest(seed: int, keys: int = 200) -> int:
    """Same seed, same bytes; and the oracle agrees with the engine.

    Returns the number of disagreements (0 on a healthy checkout).
    """
    from repro import Engine

    def sequence() -> bytes:
        catalog = Catalog(seed, 400, 20)
        rng = random.Random(f"ops/{seed}")
        drawn = list(itertools.islice(song_decks(catalog, rng, 500, 50), 1000))
        drawn += [key for _, key in itertools.islice(label_keys(catalog, rng), 100)]
        return "\n".join(query_text("roster", key) for key in drawn).encode("utf-8")

    if sequence() != sequence():
        print("selftest: the same seed gave different query sequences")
        return 1
    catalog = Catalog(seed, 400, 20)
    instance = catalog.instance()
    rng = random.Random(f"selftest/{seed}")
    wrong = 0
    with Engine(instance.schema, instance) as engine:
        for template in TEMPLATES:
            for key in rng.sample(catalog.songs, keys):
                result = engine.execute(query_text(template, key))
                if not result.complete or result.answers != catalog.expected(template, key):
                    wrong += 1
                    print(f"selftest: {template}({key}) differs from the oracle")
            engine.reset_session()
    print(f"selftest: seed {seed}, {len(TEMPLATES)} templates x {keys} keys, {wrong} wrong")
    return wrong


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="catalog self-test")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--keys", type=int, default=200)
    args = parser.parse_args(argv)
    from targets import add_program_to_path

    add_program_to_path()
    return 1 if selftest(args.seed, args.keys) else 0


if __name__ == "__main__":
    sys.exit(main())
