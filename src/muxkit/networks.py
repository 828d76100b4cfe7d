"""Builders and cost metrics for composite switch-network topologies.

Networks are port graphs: components consume and produce integer port ids,
appended in topological order.  Every n-mode switch block expands into
primitive components (passive interference blocks, one active phase shifter
per mode, crossings), so cost metrics come from graph traversal rather than
from the closed-form formulas they are tested against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .gmzi import _factorize, _inversions, _json_list, _json_value, build_gmzi, decompose_stages

__all__ = [
    "Component",
    "Network",
    "CostMetrics",
    "build_log_tree",
    "build_chain",
    "build_delay_network",
    "build_storage_loop",
    "build_spanke",
    "build_concatenated_gmzi",
    "metrics",
    "validate",
    "network_to_json",
    "network_from_json",
    "BUILDERS",
]

KINDS = ("coupler", "active-phase", "passive-phase", "crossing", "delay", "detector-port")


@dataclass(frozen=True)
class Component:
    kind: str
    in_ports: tuple[int, ...]
    out_ports: tuple[int, ...]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Network:
    name: str
    components: tuple[Component, ...]
    input_ports: tuple[int, ...]
    output_ports: tuple[int, ...]
    drop_ports: tuple[int, ...]
    n_ports: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CostMetrics:
    n_active: int
    depth_min: int
    depth_max: int
    n_couplers: int
    n_crossings: int
    crossing_count: int
    delays: tuple[float, ...]
    n_inputs: int
    n_outputs: int


class _Builder:
    def __init__(self, name: str, **params):
        self.name = name
        self.params = params
        self.components: list[Component] = []
        self.inputs: list[int] = []
        self.drops: list[int] = []
        self._next = 0

    def new_input(self, count: int = 1) -> list[int]:
        ports = self._take(count)
        self.inputs.extend(ports)
        return ports

    def _take(self, count: int) -> list[int]:
        """The next `count` port ids, handed out as one block."""
        ports = list(range(self._next, self._next + count))
        self._next += count
        return ports

    def add(self, kind: str, in_ports, n_out: int, **params) -> list[int]:
        outs = self._take(n_out)
        self.components.append(
            Component(kind=kind, in_ports=tuple(in_ports), out_ports=tuple(outs), params=params)
        )
        return outs

    def drop(self, ports) -> None:
        for p in ports:
            self.add("detector-port", [p], 0)
            self.drops.append(p)

    def finish(self, output_ports) -> Network:
        return Network(
            name=self.name,
            components=tuple(self.components),
            input_ports=tuple(self.inputs),
            output_ports=tuple(output_ports),
            drop_ports=tuple(self.drops),
            n_ports=self._next,
            params=self.params,
        )


def _ceil_log(size: int, n: int) -> int:
    """Smallest d >= 0 with n**d >= size (exact, no float log)."""
    d = 0
    x = 1
    while x < size:
        x *= n
        d += 1
    return d


def _add_crossing(b: _Builder, ports, mapping) -> list[int]:
    mapping = [int(m) for m in mapping]
    if mapping == list(range(len(mapping))):
        return list(ports)
    # out slot mapping[i] carries what came in on slot i; the returned list is
    # already in output-slot order (metrics traversal applies the mapping)
    return b.add("crossing", ports, len(ports), mapping=mapping, crossings=_inversions(mapping))


def _add_passive(b: _Builder, ports, factors) -> list[int]:
    """One passive interferometer side of a switch block (stage decomposition)."""
    dev = build_gmzi(factors)
    for stage in decompose_stages(dev).stages:
        ports = _add_crossing(b, ports, stage.pre)
        new_ports: list[int] = []
        for blk in range(stage.n_blocks):
            chunk = ports[blk * stage.block_size:(blk + 1) * stage.block_size]
            new_ports.extend(b.add("coupler", chunk, stage.block_size, size=stage.block_size))
        ports = _add_crossing(b, new_ports, stage.post)
    return list(ports)


def _add_switch_block(b: _Builder, in_ports) -> list[int]:
    """Expand an n-mode switch block: passive, active layer, passive."""
    n = len(in_ports)
    if n == 1:
        return b.add("active-phase", in_ports, 1)
    factors = tuple(sorted((p for p, e in _factorize(n).items() for _ in range(e)), reverse=True))
    ports = _add_passive(b, list(in_ports), factors)
    ports = [b.add("active-phase", [p], 1)[0] for p in ports]
    ports = _add_passive(b, ports, factors)
    return ports


def _add_mux_block(b: _Builder, in_ports) -> int:
    """n-to-1 switch block: first output carried, the rest dumped."""
    outs = _add_switch_block(b, in_ports)
    b.drop(outs[1:])
    return outs[0]


# ---------------------------------------------------------------------------
# topology builders

def build_log_tree(size: int, n: int = 2) -> Network:
    """Converging tree of n-to-1 switch blocks selecting 1 of size inputs.

    The tree is padded to n^ceil(log_n size) leaves; unused leaves remain
    network inputs.  Every input crosses ceil(log_n size) active layers.
    """
    if size < 1 or n < 2:
        raise ValueError("need size >= 1 and branching n >= 2")
    depth = max(1, _ceil_log(size, n)) if size > 1 else 0
    b = _Builder("log-tree", size=size, n=n)
    leaves = b.new_input(n ** depth if size > 1 else 1)
    level = leaves
    while len(level) > 1:
        level = [_add_mux_block(b, level[i * n:(i + 1) * n]) for i in range(len(level) // n)]
    return b.finish([level[0]])


def build_chain(size: int, n: int = 2) -> Network:
    """Linear cascade of n-mode blocks; block j adds n-1 fresh inputs.

    Depth ranges from 1 (inputs entering the last block) to
    ceil((size-1)/(n-1)); for n = 2 the active count matches the log-tree
    at powers of two.
    """
    if size < 2 or n < 2:
        raise ValueError("need size >= 2 and block size n >= 2")
    blocks = math.ceil((size - 1) / (n - 1))
    b = _Builder("chain", size=size, n=n)
    supplied = 0
    carry = None
    for j in range(blocks):
        fresh = n if carry is None else n - 1
        fresh = min(fresh, size - supplied)
        ins = b.new_input(fresh)
        supplied += fresh
        pad = b.new_input((n if carry is None else n - 1) - fresh)  # vacuum padding
        take = ([carry] if carry is not None else []) + ins + pad
        carry = _add_mux_block(b, take)
    return b.finish([carry])


def build_delay_network(size: int, n: int = 2) -> Network:
    """Time-bin mux: ceil(log_n size) delay layers between n-mode blocks.

    A single spatial input carries size time bins.  Layer i holds n-1 delays
    of durations n^i, 2 n^i, ..., (n-1) n^i (in bin units); every photon
    traverses ceil(log_n size) + 1 active layers.
    """
    if size < 2 or n < 2:
        raise ValueError("need size >= 2 and block size n >= 2")
    layers = _ceil_log(size, n)
    b = _Builder("delay-network", size=size, n=n)
    (src,) = b.new_input(1)
    pads = b.new_input(n - 1)
    ports = _add_switch_block(b, [src] + pads)
    for i in range(layers):
        nxt = [ports[0]]
        for arm in range(1, n):
            (delayed,) = b.add("delay", [ports[arm]], 1, duration=float(arm * n ** i))
            nxt.append(delayed)
        ports = _add_switch_block(b, nxt)
    b.drop(ports[1:])
    return b.finish([ports[0]])


def build_storage_loop(size: int, n: int = 2) -> Network:
    """Switch block with a feedback delay, unrolled over its pass structure.

    ceil(size/(n-1)) passes; each pass accepts n-1 fresh inputs plus the
    stored mode, so a photon selected on the first pass crosses every block
    while one from the last pass crosses a single block.
    """
    if size < 1 or n < 2:
        raise ValueError("need size >= 1 and block size n >= 2")
    passes = math.ceil(size / (n - 1))
    b = _Builder("storage-loop", size=size, n=n)
    supplied = 0
    carry = b.new_input(1)[0]  # loop initialisation (vacuum)
    for j in range(passes):
        fresh = min(n - 1, size - supplied)
        ins = b.new_input(fresh)
        supplied += fresh
        pad = b.new_input(n - 1 - fresh)
        outs = _add_switch_block(b, [carry] + ins + pad)
        b.drop(outs[1:])
        if j + 1 < passes:
            (carry,) = b.add("delay", [outs[0]], 1, duration=1.0)
        else:
            carry = outs[0]
    return b.finish([carry])


def build_spanke(size: int, m: int, optimized: bool = False) -> Network:
    """Two-layer any-pattern router: size 1-to-m fans into m size-to-1 blocks.

    Depth is always 2 active layers.  With optimized=True the first-layer
    fan of input i shrinks to min(i+1, m) outputs (inputs are exchangeable,
    so photon i never needs an output above i), which also shrinks the
    second layer to blocks of size size, size-1, ..., size-m+1.
    """
    if size < 1 or m < 1 or m > size:
        raise ValueError("need 1 <= m <= size")
    b = _Builder("spanke", size=size, m=m, optimized=optimized)
    fan_outs: list[list[int]] = []
    for i in range(size):
        width = min(i + 1, m) if optimized else m
        (src,) = b.new_input(1)
        pads = b.new_input(width - 1)
        fan_outs.append(_add_switch_block(b, [src] + pads))
    # output j of fan i feeds collector j: the crossing sorts the fan slots by (output, fan)
    keys = [(j, i) for i, outs in enumerate(fan_outs) for j in range(len(outs))]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    mapping = [0] * len(keys)
    for dest, slot in enumerate(order):
        mapping[slot] = dest
    crossed = _add_crossing(b, [p for outs in fan_outs for p in outs], mapping)
    collectors: list[list[int]] = [[] for _ in range(m)]
    for slot, port in zip(order, crossed):
        collectors[keys[slot][0]].append(port)
    return b.finish([_add_mux_block(b, ports) for ports in collectors])


def build_concatenated_gmzi(size: int, m: int) -> Network:
    """m stacked switch blocks of sizes size, size-1, ..., size-m+1.

    Block j peels off mux output j and hands the remaining modes to the next
    block, so depth ranges from 1 to m.
    """
    if size < 1 or m < 1 or size - m + 1 < 1:
        raise ValueError("need 1 <= m and size - m + 1 >= 1")
    b = _Builder("concatenated-gmzi", size=size, m=m)
    ports = b.new_input(size)
    outputs = []
    for j in range(m):
        outs = _add_switch_block(b, ports)
        outputs.append(outs[0])
        ports = outs[1:]
    b.drop(ports)
    return b.finish(outputs)


BUILDERS = {
    "log-tree": build_log_tree,
    "chain": build_chain,
    "delay-network": build_delay_network,
    "storage-loop": build_storage_loop,
    "spanke": build_spanke,
    "concatenated-gmzi": build_concatenated_gmzi,
}


# ---------------------------------------------------------------------------
# traversal metrics and validation

def validate(net: Network) -> None:
    """Check the port graph and its components.

    Every port is produced once and consumed at most once, every component
    has a known kind, and every crossing maps its ports by a permutation.
    """
    produced = set(net.input_ports)
    if len(produced) != len(net.input_ports):
        raise ValueError("duplicate input ports")
    consumed: set[int] = set()
    for comp in net.components:
        if comp.kind not in KINDS:
            raise ValueError(f"unknown component kind {comp.kind!r}")
        if not isinstance(comp.params, dict):
            raise ValueError("component params must be a mapping")
        if comp.kind == "crossing" and not _permutes(comp.params.get("mapping"), comp):
            raise ValueError("crossing mapping is not a permutation of its ports")
        for p in comp.in_ports:
            if p not in produced:
                raise ValueError(f"component consumes unproduced port {p}")
            if p in consumed:
                raise ValueError(f"port {p} consumed twice")
            consumed.add(p)
        for p in comp.out_ports:
            if p in produced:
                raise ValueError(f"port {p} produced twice")
            produced.add(p)
    for p in net.output_ports:
        if p not in produced or p in consumed:
            raise ValueError(f"output port {p} is not an open produced port")


def _permutes(mapping, comp: Component) -> bool:
    n = len(comp.in_ports)
    try:
        return len(comp.out_ports) == n and sorted(mapping) == list(range(n))
    except TypeError:  # missing, or entries that do not compare
        return False


def metrics(net: Network) -> CostMetrics:
    """Cost metrics by forward traversal of the port graph."""
    validate(net)
    lo: dict[int, int] = {p: 0 for p in net.input_ports}
    hi: dict[int, int] = {p: 0 for p in net.input_ports}
    n_active = n_couplers = n_crossings = crossing_count = 0
    delays: list[float] = []
    for comp in net.components:
        if comp.kind == "active-phase":
            n_active += len(comp.in_ports)
        elif comp.kind == "coupler":
            n_couplers += 1
        elif comp.kind == "crossing":
            n_crossings += 1
            crossing_count += int(comp.params.get("crossings", 0))
        elif comp.kind == "delay":
            delays.append(float(comp.params.get("duration", 0.0)))
        bump = 1 if comp.kind == "active-phase" else 0
        if not comp.out_ports:
            continue
        if comp.kind == "crossing":
            mapping = comp.params["mapping"]
            for i, p in enumerate(comp.in_ports):
                q = comp.out_ports[mapping[i]]
                lo[q] = lo[p]
                hi[q] = hi[p]
        elif comp.kind in ("delay", "active-phase", "passive-phase"):
            for p, q in zip(comp.in_ports, comp.out_ports):
                lo[q] = lo[p] + bump
                hi[q] = hi[p] + bump
        else:  # coupler: light can take any in -> any out
            block_lo = min(lo[p] for p in comp.in_ports)
            block_hi = max(hi[p] for p in comp.in_ports)
            for q in comp.out_ports:
                lo[q] = block_lo
                hi[q] = block_hi
    depth_min = min(lo[p] for p in net.output_ports)
    depth_max = max(hi[p] for p in net.output_ports)
    return CostMetrics(
        n_active=n_active,
        depth_min=depth_min,
        depth_max=depth_max,
        n_couplers=n_couplers,
        n_crossings=n_crossings,
        crossing_count=crossing_count,
        delays=tuple(sorted(delays)),
        n_inputs=len(net.input_ports),
        n_outputs=len(net.output_ports),
    )


# ---------------------------------------------------------------------------
# serialization

def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.generic):
        return v.item()
    return v


def _int_list_json(values, indent: str) -> str | None:
    """JSON text of a list or tuple whose items are all ints (bools excluded), else None."""
    if set(map(type, values)) <= {int}:
        return _json_list(list(map(int.__repr__, values)), indent)
    return None


def _param_json(value, indent: str) -> str:
    """One param value, as `_jsonable` and then `json.dumps` would write it."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) in (list, tuple) and (text := _int_list_json(value, indent)):
        return text
    return _json_value(_jsonable(value), indent)


def _params_json(params: dict, indent: str) -> str:
    """A component's params dict; non-string keys leave the whole dict to `json.dumps`."""
    items = params.items()
    if not all(type(k) is str for k, _ in items):
        return _json_value({k: _jsonable(v) for k, v in items}, indent)
    if not params:
        return "{}"
    inner = "\n" + indent + "  "
    return "{" + inner + ("," + inner).join(
        f"{encode_basestring_ascii(k)}: {_param_json(params[k], indent + '  ')}" for k in sorted(params)
    ) + "\n" + indent + "}"


def _component_json(c: Component) -> str:
    """One entry of the components list; its keys sit at a depth of six spaces."""
    pad = " " * 6
    in_ports = _int_list_json(c.in_ports, pad) or _json_value(list(c.in_ports), pad)
    out_ports = _int_list_json(c.out_ports, pad) or _json_value(list(c.out_ports), pad)
    kind = encode_basestring_ascii(c.kind) if type(c.kind) is str else _json_value(c.kind, pad)
    return (
        f'{{\n{pad}"in_ports": {in_ports},\n{pad}"kind": {kind},\n'
        f'{pad}"out_ports": {out_ports},\n{pad}"params": {_params_json(c.params, pad)}\n    }}'
    )


def network_to_json(net: Network) -> str:
    """Serialize a network as JSON.

    The text equals, byte for byte, `json.dumps(payload, sort_keys=True,
    indent=2)` of the payload {"name", "params", "n_ports", "input_ports",
    "output_ports", "drop_ports" (port tuples as lists), "components": one
    {"kind", "in_ports", "out_ports", "params"} dict per component, each
    param value passed through `_jsonable`}.  Components are rendered from a
    fixed template, because the stdlib cannot use its C encoder with indent;
    irregular values still go through `json.dumps`.
    """
    return (
        f'{{\n  "components": {_json_list([_component_json(c) for c in net.components], "  ")},\n'
        f'  "drop_ports": {_json_value(list(net.drop_ports), "  ")},\n'
        f'  "input_ports": {_json_value(list(net.input_ports), "  ")},\n'
        f'  "n_ports": {_json_value(net.n_ports, "  ")},\n'
        f'  "name": {_json_value(net.name, "  ")},\n'
        f'  "output_ports": {_json_value(list(net.output_ports), "  ")},\n'
        f'  "params": {_json_value(net.params, "  ")}\n}}'
    )


def network_from_json(text: str) -> Network:
    payload = json.loads(text)
    net = Network(
        name=payload["name"],
        components=tuple(
            Component(
                kind=c["kind"],
                in_ports=tuple(c["in_ports"]),
                out_ports=tuple(c["out_ports"]),
                params=c.get("params", {}),
            )
            for c in payload["components"]
        ),
        input_ports=tuple(payload["input_ports"]),
        output_ports=tuple(payload["output_ports"]),
        drop_ports=tuple(payload["drop_ports"]),
        n_ports=payload["n_ports"],
        params=payload.get("params", {}),
    )
    validate(net)
    return net
