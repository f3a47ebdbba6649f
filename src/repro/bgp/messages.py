"""BGP update messages (MRT-shaped, minus the bytes)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class UpdateKind(str, Enum):
    ANNOUNCE = "A"
    WITHDRAW = "W"


@dataclass(frozen=True)
class BGPUpdate:
    """One update as a collector records it."""

    ts: float
    collector: str
    peer_asn: int
    kind: UpdateKind
    prefix: str
    as_path: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        """The update as a row of scalars; ``as_path`` is this update's own
        tuple, so the cyclic GC need not track the row (copy it before
        mutating)."""
        return {
            "ts": self.ts,
            "collector": self.collector,
            "peer_asn": self.peer_asn,
            "kind": self.kind.value,
            "prefix": self.prefix,
            "as_path": self.as_path,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "BGPUpdate":
        return cls(
            ts=float(row["ts"]),
            collector=row["collector"],
            peer_asn=int(row["peer_asn"]),
            kind=UpdateKind(row["kind"]),
            prefix=row["prefix"],
            as_path=tuple(int(a) for a in row.get("as_path", ())),
        )


def path_edit_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Levenshtein distance between two AS paths (path-churn metric)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, asn_a in enumerate(a, start=1):
        row = [i]
        for j, asn_b in enumerate(b, start=1):
            cost = 0 if asn_a == asn_b else 1
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + cost))
        prev = row
    return prev[-1]
