"""Clique-list containers shared by the solver and the pruning stage."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, check_int


@dataclass(frozen=True)
class CliqueEntry:
    """One claimed clique plus the index triples that produced it."""

    vertices: tuple[int, ...]
    alphas: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))

    def to_dict(self) -> dict:
        return {"vertices": list(self.vertices),
                "alphas": [list(a) for a in self.alphas]}

    @classmethod
    def from_dict(cls, doc: dict) -> "CliqueEntry":
        """The entry of a document; a malformed shape raises :class:`InputError`,
        a vertex or alpha index that is not an integer >= 0 :class:`ParameterError`."""
        if not isinstance(doc, dict):
            raise InputError(f"entry must be an object, got {doc!r}")
        vertices = doc["vertices"]
        if not isinstance(vertices, list):
            raise InputError(f"entry vertices must be a list, got {vertices!r}")
        for v in vertices:
            check_int("entry vertex", v, 0)
        alphas = doc.get("alphas", [])
        if not isinstance(alphas, list) or not all(isinstance(a, list) for a in alphas):
            raise InputError(f"entry alphas must be a list of lists, got {alphas!r}")
        for alpha in alphas:
            for i in alpha:
                check_int("entry alpha index", i, 0)
        return cls(vertices=tuple(vertices), alphas=tuple(tuple(a) for a in alphas))


@dataclass
class CliqueList:
    entries: list[CliqueEntry] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def vertex_sets(self) -> list[tuple[int, ...]]:
        return [e.vertices for e in self.entries]

    def check_vertices(self, n: int) -> None:
        """Raise :class:`InputError` if an entry repeats a vertex or has one outside [0, n)."""
        for entry in self.entries:
            verts = entry.vertices
            if len(set(verts)) != len(verts):
                raise InputError(f"entry has repeated vertices: {verts}")
            if verts and (verts[0] < 0 or verts[-1] >= n):
                raise InputError(f"entry has vertices outside [0,{n})")

    def to_dict(self) -> dict:
        return {"cliques": [e.to_dict() for e in self.entries],
                "stats": self.stats}

    @classmethod
    def from_dict(cls, doc: dict) -> "CliqueList":
        """The list of a document; a ``cliques`` that is not a list, or a
        ``stats`` that is not an object, raises :class:`InputError`."""
        cliques, stats = doc.get("cliques", []), doc.get("stats", {})
        if not isinstance(cliques, list):
            raise InputError(f"cliques must be a list, got {cliques!r}")
        if not isinstance(stats, dict):
            raise InputError(f"stats must be an object, got {stats!r}")
        return cls(entries=[CliqueEntry.from_dict(e) for e in cliques], stats=dict(stats))
