"""DEF-like text serialization of layouts.

The format is a small, line-oriented dialect of DEF carrying exactly what
:class:`~repro.layout.Layout` owns: core dimensions, component placements
(in row/site units), fixed markers, partial blockages, and port pin
positions.  The netlist travels separately (structural Verilog, see
:mod:`repro.netlist.verilog`), mirroring the real DEF/Verilog split.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Union

from repro.errors import LayoutError, NetlistError, SerializationError
from repro.geometry import Point, Rect
from repro.layout.blockage import PlacementBlockage
from repro.layout.layout import Layout
from repro.netlist.netlist import Netlist
from repro.tech.technology import Technology


def layout_to_def(layout: Layout) -> str:
    """Render a layout as DEF-like text."""
    lines = [
        f"DESIGN {layout.netlist.name}",
        f"CORE ROWS {layout.num_rows} SITES {layout.sites_per_row}",
    ]
    for name, pl in sorted(layout.placements.items()):
        fixed = " FIXED" if name in layout.fixed else ""
        lines.append(f"COMPONENT {name} ROW {pl.row} SITE {pl.start}{fixed}")
    for b in layout.blockages.values():
        r = b.rect
        lines.append(
            f"BLOCKAGE {b.name} RECT {r.xlo} {r.ylo} {r.xhi} {r.yhi} "
            f"DENSITY {b.max_density}"
        )
    for port, p in sorted(layout.port_positions.items()):
        lines.append(f"PIN {port} AT {p.x} {p.y}")
    lines.append("END DESIGN")
    return "\n".join(lines) + "\n"


def layout_from_def(
    text: str, netlist: Netlist, technology: Technology
) -> Layout:
    """Parse :func:`layout_to_def` output back into a :class:`Layout`.

    Raises:
        SerializationError: On a malformed or unknown record, a
            non-finite number, a ``PIN`` for a port the netlist lacks or
            outside the core (its edges are inside), or a ``COMPONENT``
            the layout cannot place (unknown instance, row out of range,
            overlap, placed twice); the message names the line.
    """
    numbered = [
        (number, ln.strip())
        for number, ln in enumerate(text.splitlines(), start=1)
        if ln.strip()
    ]
    lines = [ln for _, ln in numbered]
    if not lines or not lines[0].startswith("DESIGN "):
        raise SerializationError("expected DESIGN header")
    design = lines[0].split()[1]
    if design != netlist.name:
        raise SerializationError(
            f"DEF is for design {design!r}, netlist is {netlist.name!r}"
        )
    if len(lines) < 2 or not lines[1].startswith("CORE "):
        raise SerializationError("expected CORE line")
    core_tokens = lines[1].split()
    try:
        num_rows = int(core_tokens[2])
        sites_per_row = int(core_tokens[4])
    except (IndexError, ValueError) as exc:
        raise SerializationError(f"malformed CORE line: {lines[1]!r}") from exc

    layout = Layout(netlist, technology, num_rows=num_rows, sites_per_row=sites_per_row)
    core = layout.core
    ports = {port.name for port in netlist.ports}
    for number, line in numbered[2:]:
        if line == "END DESIGN":
            break
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "COMPONENT":
                name = tokens[1]
                row = int(tokens[3])
                site = int(tokens[5])
                layout.place(name, row, site)
                if tokens[-1] == "FIXED":
                    layout.fixed.add(name)
            elif kind == "BLOCKAGE":
                xlo, ylo, xhi, yhi, density = (
                    _finite(tokens[i]) for i in (3, 4, 5, 6, 8)
                )
                layout.add_blockage(
                    PlacementBlockage(
                        name=tokens[1],
                        rect=Rect(xlo, ylo, xhi, yhi),
                        max_density=density,
                    )
                )
            elif kind == "PIN":
                if tokens[1] not in ports:
                    raise SerializationError(
                        f"line {number}: PIN for unknown port {tokens[1]!r}"
                    )
                x, y = _finite(tokens[3]), _finite(tokens[4])
                if not (core.xlo <= x <= core.xhi and core.ylo <= y <= core.yhi):
                    raise SerializationError(
                        f"line {number}: PIN {tokens[1]!r} at ({x}, {y}) is "
                        f"outside the core [{core.xlo}, {core.xhi}] x "
                        f"[{core.ylo}, {core.yhi}]"
                    )
                layout.port_positions[tokens[1]] = Point(x, y)
            else:
                raise SerializationError(
                    f"line {number}: unknown record {kind!r}"
                )
        except (IndexError, ValueError) as exc:
            raise SerializationError(
                f"line {number}: malformed record {line!r}: {exc}"
            ) from exc
        except (NetlistError, LayoutError) as exc:
            raise SerializationError(f"line {number}: {exc}") from exc
    layout.validate()
    return layout


def _finite(token: str) -> float:
    """``float(token)``, refusing ``inf`` and ``nan``."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token!r}")
    return value


def save_def(layout: Layout, path: Union[str, Path]) -> None:
    """Write a layout to ``path`` as DEF-like text."""
    Path(path).write_text(layout_to_def(layout))


def load_def(
    path: Union[str, Path], netlist: Netlist, technology: Technology
) -> Layout:
    """Read a layout previously written by :func:`save_def`."""
    return layout_from_def(Path(path).read_text(), netlist, technology)
