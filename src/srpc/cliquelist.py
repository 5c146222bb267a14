"""Clique-list containers shared by the solver and the pruning stage."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError


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
        return cls(vertices=tuple(doc["vertices"]),
                   alphas=tuple(tuple(a) for a in doc.get("alphas", [])))


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
        return cls(entries=[CliqueEntry.from_dict(e) for e in doc.get("cliques", [])],
                   stats=dict(doc.get("stats", {})))
