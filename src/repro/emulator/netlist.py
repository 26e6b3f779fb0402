"""Flat latch map ("netlist") over a compiled core model.

When a design is loaded onto the Awan accelerator its latches become
addressable storage in the Boolean-function processors.  This module gives
every latch *bit* in the model a flat index, plus the filtered views the
SFI methodology samples from: per micro-architectural unit (Figure 3),
per scan ring / latch type (Figure 5), or the whole core (Table 2).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.rtl.fault import FaultSite
from repro.rtl.latch import Latch, LatchKind


def _add_span(spans: list[range], start: int, stop: int) -> None:
    """Append ``[start, stop)``, merging it into the last span when the
    two are adjacent (a unit's latches are contiguous in latch order)."""
    if spans and spans[-1].stop == start:
        spans[-1] = range(spans[-1].start, stop)
    else:
        spans.append(range(start, stop))


class LatchMap:
    """Flat, indexable view of every injectable latch bit in a core.

    Bits are numbered latch by latch in ``core.all_latches()`` order: a
    latch's value bits, then its parity bit when it is protected.  The
    map holds per-latch state only (each latch's first index, a name
    lookup, and its unit, ring and kind views as spans of indices), so
    building one costs O(latches), not O(bits); :meth:`site` makes the
    :class:`FaultSite` of an index when asked for it.
    """

    def __init__(self, core) -> None:
        self._core = core
        self._latches: list[Latch] = core.all_latches()
        # First flat index of each latch, in latch order.
        self._starts: list[int] = []
        self._position: dict[str, int] = {}
        self._unit_spans: dict[str, list[range]] = {}
        self._ring_spans: dict[str, list[range]] = {}
        self._kind_spans: dict[LatchKind, list[range]] = {}
        total = 0
        for position, latch in enumerate(self._latches):
            stop = total + latch.width + (1 if latch.protected else 0)
            self._starts.append(total)
            self._position[latch.name] = position
            _add_span(self._unit_spans.setdefault(core.unit_of(latch), []),
                      total, stop)
            _add_span(self._ring_spans.setdefault(latch.ring, []),
                      total, stop)
            _add_span(self._kind_spans.setdefault(latch.kind, []),
                      total, stop)
            total = stop
        self._total = total
        # The canonical name of every bit below the widest latch's width
        # ("7", never "07" or "+7"), for index_of.
        widest = max((latch.width for latch in self._latches), default=0)
        self._bits = {str(bit): bit for bit in range(widest)}

    def __len__(self) -> int:
        return self._total

    def _locate(self, index: int) -> int:
        """Position (in latch order) of the latch holding bit ``index``."""
        if not 0 <= index < self._total:
            raise IndexError(
                f"site index {index} out of range [0, {self._total})")
        return bisect_right(self._starts, index) - 1

    def site(self, index: int) -> FaultSite:
        position = self._locate(index)
        return FaultSite(self._latches[position],
                         index - self._starts[position])

    def index_of(self, name: str) -> int:
        """Flat index of a site by its ``unit.latch.bit`` name (the bit a
        decimal below the latch width, or ``p`` for a parity bit)."""
        head, _, suffix = name.rpartition(".")
        position = self._position.get(head)
        if position is not None:
            latch = self._latches[position]
            if suffix == "p" and latch.protected:
                return self._starts[position] + latch.width
            bit = self._bits.get(suffix)
            if bit is not None and bit < latch.width:
                return self._starts[position] + bit
        raise KeyError(name)

    def unit_of(self, index: int) -> str:
        return self._core.unit_of(self._latches[self._locate(index)])

    def kind_of(self, index: int) -> LatchKind:
        return self._latches[self._locate(index)].kind

    def all_indices(self) -> range:
        return range(self._total)

    def indices_for_unit(self, unit: str) -> list[int]:
        if unit not in self._unit_spans:
            raise KeyError(
                f"unknown unit {unit!r}; have {sorted(self._unit_spans)}")
        return [index for span in self._unit_spans[unit] for index in span]

    def indices_for_ring(self, ring: str) -> list[int]:
        if ring not in self._ring_spans:
            raise KeyError(
                f"unknown ring {ring!r}; have {sorted(self._ring_spans)}")
        return [index for span in self._ring_spans[ring] for index in span]

    def indices_for_kind(self, kind: LatchKind) -> list[int]:
        return [index for span in self._kind_spans.get(kind, ())
                for index in span]

    def units(self) -> list[str]:
        return sorted(self._unit_spans)

    def rings(self) -> list[str]:
        return sorted(self._ring_spans)

    def unit_bit_counts(self) -> dict[str, int]:
        """Latch bits per unit — the weights Figure 4 normalises by."""
        return {unit: sum(len(span) for span in spans)
                for unit, spans in self._unit_spans.items()}

    def latch_of(self, index: int) -> Latch:
        return self._latches[self._locate(index)]
