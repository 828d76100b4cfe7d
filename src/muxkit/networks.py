"""Builders and cost metrics for composite switch-network topologies.

Networks are port graphs: components consume and produce integer port ids,
appended in topological order.  A builder appends each `Component` to one list,
which `finish` wraps in a `Network`.  Every n-mode switch block expands into
primitive components (passive interference blocks, one active phase shifter
per mode, crossings), so cost metrics come from graph traversal rather than
from the closed-form formulas they are tested against.

Each builder counts its active elements (the `n_active` of `metrics`) in
closed form and raises ValueError above the `active-elements` bound of
`muxkit._limits` before it allocates anything.

The builders and `network_from_json` run with CPython's cyclic garbage
collector paused.  A spanke 64x16 network is 14,385 components, and its JSON
payload 58,635 dicts and lists.  Those allocations set off the collector over
and over, full collections of the whole heap included, yet the objects hold
no cycles, so it frees nothing: reference counting frees them all.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from ._limits import check_size
from .gmzi import _inversions, _json_list, _json_value, build_gmzi, decompose_stages, prime_spec

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


def _collector_paused(call):
    """Run `call` with CPython's cyclic garbage collector paused.

    While the call runs, no automatic collection runs in the process.  On
    every return and raise, the collector is enabled again if it was enabled
    on entry, and left disabled otherwise; objects the call leaves behind are
    collected as usual afterwards.  Thresholds and generations are not
    touched.  The state is process-wide: when calls in two threads overlap,
    the first to return enables the collector while the other still runs.
    """

    @functools.wraps(call)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return call(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


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
    """A network under construction: its components in order, and the next free port id."""

    def __init__(self, name: str, **params):
        self.name = name
        self.params = params
        self.comps: list[Component] = []
        self.inputs: list[int] = []
        self.drops: list[int] = []
        self._next = 0
        self._blocks: dict[int, tuple[_Builder, list[int]]] = {}  # switch-block templates by size

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
        self.comps.append(Component(kind, tuple(in_ports), tuple(outs), params))
        return outs

    def drop(self, ports) -> None:
        for p in ports:
            self.add("detector-port", [p], 0)
            self.drops.append(p)

    def finish(self, output_ports) -> Network:
        return Network(
            name=self.name, components=tuple(self.comps), input_ports=tuple(self.inputs),
            output_ports=tuple(output_ports), drop_ports=tuple(self.drops), n_ports=self._next, params=self.params,
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


def _expand_switch_block(b: _Builder, in_ports) -> list[int]:
    """Expand an n-mode switch block: passive, active layer, passive."""
    n = len(in_ports)
    if n == 1:
        return b.add("active-phase", in_ports, 1)
    factors = prime_spec(n)
    ports = _add_passive(b, list(in_ports), factors)
    ports = [b.add("active-phase", [p], 1)[0] for p in ports]
    ports = _add_passive(b, ports, factors)
    return ports


def _add_switch_block(b: _Builder, in_ports) -> list[int]:
    """Stamp the n-mode switch block onto in_ports.

    Each block size is expanded once per builder, on template ports 0..n-1
    for its inputs and n.. for its own.  Stamping copies each template
    `Component` with port r mapped to ports[r], which hands out the same fresh
    ids, in the same order, as expanding the block again would.  Every stamped
    component gets its own params dict and crossing mapping list.
    """
    n = len(in_ports)
    if n not in b._blocks:
        t = _Builder("switch-block")
        b._blocks[n] = (t, _expand_switch_block(t, t.new_input(n)))
    t, t_outs = b._blocks[n]
    ports = list(in_ports) + b._take(t._next - n)
    at = ports.__getitem__
    for c in t.comps:
        params = c.params.copy()
        if "mapping" in params:
            params["mapping"] = params["mapping"].copy()
        b.comps.append(Component(c.kind, tuple(map(at, c.in_ports)), tuple(map(at, c.out_ports)), params))
    return [ports[r] for r in t_outs]


def _add_mux_block(b: _Builder, in_ports) -> int:
    """n-to-1 switch block: first output carried, the rest dumped."""
    outs = _add_switch_block(b, in_ports)
    b.drop(outs[1:])
    return outs[0]


# ---------------------------------------------------------------------------
# topology builders

@_collector_paused
def build_log_tree(size: int, n: int = 2) -> Network:
    """Converging tree of n-to-1 switch blocks selecting 1 of size inputs.

    The tree is padded to n^ceil(log_n size) leaves; unused leaves remain
    network inputs.  Every input crosses ceil(log_n size) active layers.
    """
    if size < 1 or n < 2:
        raise ValueError("need size >= 1 and branching n >= 2")
    depth = max(1, _ceil_log(size, n)) if size > 1 else 0
    check_size("active-elements", n * (n ** depth - 1) // (n - 1))
    b = _Builder("log-tree", size=size, n=n)
    leaves = b.new_input(n ** depth if size > 1 else 1)
    level = leaves
    while len(level) > 1:
        level = [_add_mux_block(b, level[i * n:(i + 1) * n]) for i in range(len(level) // n)]
    return b.finish([level[0]])


@_collector_paused
def build_chain(size: int, n: int = 2) -> Network:
    """Linear cascade of n-mode blocks; block j adds n-1 fresh inputs.

    Depth ranges from 1 (inputs entering the last block) to
    ceil((size-1)/(n-1)); for n = 2 the active count matches the log-tree
    at powers of two.
    """
    if size < 2 or n < 2:
        raise ValueError("need size >= 2 and block size n >= 2")
    blocks = -(-(size - 1) // (n - 1))
    check_size("active-elements", n * blocks)
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


@_collector_paused
def build_delay_network(size: int, n: int = 2) -> Network:
    """Time-bin mux: ceil(log_n size) delay layers between n-mode blocks.

    A single spatial input carries size time bins.  Layer i holds n-1 delays
    of durations n^i, 2 n^i, ..., (n-1) n^i (in bin units); every photon
    traverses ceil(log_n size) + 1 active layers.
    """
    if size < 2 or n < 2:
        raise ValueError("need size >= 2 and block size n >= 2")
    layers = _ceil_log(size, n)
    check_size("active-elements", n * (layers + 1))
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


@_collector_paused
def build_storage_loop(size: int, n: int = 2) -> Network:
    """Switch block with a feedback delay, unrolled over its pass structure.

    ceil(size/(n-1)) passes; each pass accepts n-1 fresh inputs plus the
    stored mode, so a photon selected on the first pass crosses every block
    while one from the last pass crosses a single block.
    """
    if size < 1 or n < 2:
        raise ValueError("need size >= 1 and block size n >= 2")
    passes = -(-size // (n - 1))
    check_size("active-elements", n * passes)
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


@_collector_paused
def build_spanke(size: int, m: int, optimized: bool = False) -> Network:
    """Two-layer any-pattern router: size 1-to-m fans into m size-to-1 blocks.

    Depth is always 2 active layers.  With optimized=True the first-layer
    fan of input i shrinks to min(i+1, m) outputs (inputs are exchangeable,
    so photon i never needs an output above i), which also shrinks the
    second layer to blocks of size size, size-1, ..., size-m+1.
    """
    if size < 1 or m < 1 or m > size:
        raise ValueError("need 1 <= m <= size")
    check_size("active-elements", m * (2 * size - m + 1) if optimized else 2 * size * m)
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


@_collector_paused
def build_concatenated_gmzi(size: int, m: int) -> Network:
    """m stacked switch blocks of sizes size, size-1, ..., size-m+1.

    Block j peels off mux output j and hands the remaining modes to the next
    block, so depth ranges from 1 to m.
    """
    if size < 1 or m < 1 or size - m + 1 < 1:
        raise ValueError("need 1 <= m and size - m + 1 >= 1")
    check_size("active-elements", m * (2 * size - m + 1) // 2)
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
    """Check the port graph and its components; ValueError names the first fault found.

    Port ids are the ints 0 .. n_ports - 1.  Each is produced once, by an
    input or a component, and consumed at most once, by a later component.
    There is at least one output port, and none is consumed.  Components
    have a known kind and a params dict.  Phase shifters and delays map
    k >= 1 in-ports to k out-ports, a coupler has in-ports and a detector no
    out-ports; a crossing permutes its ports and counts its crossings as an
    int, and a delay lasts a finite duration >= 0.
    """
    comps = net.components
    kinds = [c.kind for c in comps]
    if not set(map(type, kinds)) <= {str} or not set(kinds) <= set(KINDS):
        raise ValueError(f"unknown component kind {next(k for k in kinds if type(k) is not str or k not in KINDS)!r}")
    if not set(map(type, [c.params for c in comps])) <= {dict}:
        raise ValueError("component params must be a mapping")
    ins, outs = [c.in_ports for c in comps], [c.out_ports for c in comps]
    for kind, n_in, n_out in dict.fromkeys(zip(kinds, map(len, ins), map(len, outs))):  # first seen first
        if (
            kind in ("active-phase", "passive-phase", "delay") and (n_in != n_out or n_in == 0)
            or kind == "crossing" and n_in != n_out
            or kind == "coupler" and n_in == 0
            or kind == "detector-port" and n_out != 0
        ):
            raise ValueError(f"a {kind} with {n_in} in-ports and {n_out} out-ports")
    for kind, c in zip(kinds, comps):
        if kind == "crossing":
            mapping = c.params.get("mapping")
            ints = type(mapping) in (list, tuple) and set(map(type, mapping)) <= {int}
            if not ints or sorted(mapping) != [*range(len(c.in_ports))]:
                raise ValueError("crossing mapping is not a permutation of its ports")
            if type(c.params.get("crossings", 0)) is not int:
                raise ValueError("crossing count must be an int")
        elif kind == "delay":
            duration = c.params.get("duration", 0.0)
            if type(duration) not in (int, float) or not 0 <= duration < math.inf:
                raise ValueError(f"delay duration must be a finite number >= 0, not {duration!r}")
    n_ports = net.n_ports
    produced = [*net.input_ports, *chain.from_iterable(outs)]
    ports = chain(produced, net.drop_ports, chain.from_iterable(ins), net.output_ports)
    if type(n_ports) is not int or not set(map(type, ports)) <= {int}:
        raise ValueError("n_ports and every port id must be ints")
    # consumed and output ids need no range check: the walk below matches them with produced ids
    if any(ids and (min(ids) < 0 or max(ids) >= n_ports) for ids in (produced, net.drop_ports)):
        raise ValueError(f"port ids must lie in [0, n_ports) = [0, {n_ports})")
    if len(produced) < n_ports:  # this also bounds the sets below by the network's size
        raise ValueError(f"{n_ports} ports declared, only {len(produced)} produced")
    if len(set(produced)) != len(produced):
        seen: set[int] = set()
        raise ValueError(f"port {next(p for p in produced if p in seen or seen.add(p))} produced twice")
    live = set(net.input_ports)
    try:
        for consumed, made in zip(ins, outs):
            for p in consumed:
                live.remove(p)
            live.update(made)
    except KeyError as err:
        raise ValueError(f"port {err.args[0]} consumed twice or before it is produced") from None
    if not net.output_ports or not live.issuperset(net.output_ports):
        raise ValueError("the output ports must be one or more produced ports that nothing consumes")


def metrics(net: Network) -> CostMetrics:
    """Cost metrics by forward traversal of the port graph."""
    validate(net)
    # fewest and most active layers that light crosses to reach each port
    lo = [0] * net.n_ports
    hi = [0] * net.n_ports
    by_kind: dict[str, list[Component]] = {kind: [] for kind in KINDS}
    for c in net.components:
        kind, ins, outs = c.kind, c.in_ports, c.out_ports
        by_kind[kind].append(c)
        if kind == "coupler":  # light can take any in -> any out
            block_lo = min(map(lo.__getitem__, ins))
            block_hi = max(map(hi.__getitem__, ins))
            for q in outs:
                lo[q] = block_lo
                hi[q] = block_hi
        elif kind != "detector-port":  # one to one, a crossing by its mapping; an active phase adds a layer
            if kind == "crossing":
                outs = [outs[m] for m in c.params["mapping"]]
            bump = int(kind == "active-phase")
            for p, q in zip(ins, outs):
                lo[q] = lo[p] + bump
                hi[q] = hi[p] + bump
    return CostMetrics(
        n_active=sum(len(c.in_ports) for c in by_kind["active-phase"]),
        depth_min=min(map(lo.__getitem__, net.output_ports)),
        depth_max=max(map(hi.__getitem__, net.output_ports)),
        n_couplers=len(by_kind["coupler"]),
        n_crossings=len(by_kind["crossing"]),
        crossing_count=sum(c.params.get("crossings", 0) for c in by_kind["crossing"]),
        delays=tuple(sorted(float(c.params.get("duration", 0.0)) for c in by_kind["delay"])),
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


def _slot(value) -> int | None:
    """How a template holds a param value: -1 for an int, the length of an int list, None for neither."""
    if type(value) is int:
        return -1
    if type(value) in (list, tuple) and set(map(type, value)) <= {int}:
        return len(value)
    return None


def _template(shape: tuple) -> tuple[str, list[int]] | None:
    """Text of a component of this shape with a `%d` per int, and its param order; None if not plain.

    `shape` is (kind, in count, out count, *param keys, *their `_slot`s), the
    keys in the dict's own order.  Plain means str keys and no None slot.
    """
    kind, n_in, n_out, *rest = shape
    keys, slots = rest[: len(rest) // 2], rest[len(rest) // 2:]
    if not all(type(k) is str for k in keys) or None in slots:
        return None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pad = " " * 6

    def text(s: str) -> str:
        return encode_basestring_ascii(s).replace("%", "%%")

    def ints(n: int, indent: str = pad) -> str:
        return "%d" if n < 0 else _json_list(["%d"] * n, indent)

    params = _json_list([f"{text(keys[i])}: {ints(slots[i], pad + '  ')}" for i in order], pad)
    return (
        f'{{\n{pad}"in_ports": {ints(n_in)},\n{pad}"kind": {text(kind)},\n'
        f'{pad}"out_ports": {ints(n_out)},\n{pad}"params": {{{params[1:-1]}}}\n    }}'
    ), order


def network_to_json(net: Network) -> str:
    """Serialize a network as JSON.

    The text equals, byte for byte, `json.dumps(payload, sort_keys=True,
    indent=2)` of the payload {"name", "params", "n_ports", "input_ports",
    "output_ports", "drop_ports" (port tuples as lists), "components": one
    {"kind", "in_ports", "out_ports", "params"} dict per component, each
    param value passed through `_jsonable`}.  The stdlib cannot use its C
    encoder with indent, so each component shape (kind, port counts, param
    keys and list lengths) is rendered once as a template with a `%d` per
    int, and one `%` fills them all.  A component holding anything but ints
    under str keys goes through `json.dumps` itself.
    """
    comps = net.components
    ports = chain.from_iterable([c.in_ports for c in comps] + [c.out_ports for c in comps])
    ints = set(map(type, ports)) <= {int}
    templates: dict = {}
    texts: list[str] = []
    values: list[int] = []
    for c in comps:
        param = c.params
        template = None
        if type(c.kind) is str and type(param) is dict:
            shape = (c.kind, len(c.in_ports), len(c.out_ports), *param, *map(_slot, param.values()))
            if shape not in templates:
                templates[shape] = _template(shape)
            template = templates[shape]
        if template is None or not (ints or set(map(type, chain(c.in_ports, c.out_ports))) <= {int}):
            payload = {"kind": c.kind, "in_ports": list(c.in_ports), "out_ports": list(c.out_ports)}
            payload["params"] = {k: _jsonable(v) for k, v in param.items()}
            texts.append(_json_value(payload, "    ").replace("%", "%%"))
            continue
        text, order = template
        texts.append(text)
        values += c.in_ports
        values += c.out_ports
        held = list(param.values())
        for i in order:
            values += held[i] if type(held[i]) is not int else (held[i],)
    return (
        f'{{\n  "components": {_json_list(texts, "  ") % tuple(values)},\n'
        f'  "drop_ports": {_json_value(list(net.drop_ports), "  ")},\n'
        f'  "input_ports": {_json_value(list(net.input_ports), "  ")},\n'
        f'  "n_ports": {_json_value(net.n_ports, "  ")},\n'
        f'  "name": {_json_value(net.name, "  ")},\n'
        f'  "output_ports": {_json_value(list(net.output_ports), "  ")},\n'
        f'  "params": {_json_value(net.params, "  ")}\n}}'
    )


@_collector_paused
def network_from_json(text: str) -> Network:
    """Parse `network_to_json` text and validate it; ValueError on any malformed payload."""
    payload = json.loads(text)
    try:
        net = Network(
            name=payload["name"],
            components=tuple(
                Component(c["kind"], tuple(c["in_ports"]), tuple(c["out_ports"]), c.get("params", {}))
                for c in payload["components"]
            ),
            input_ports=tuple(payload["input_ports"]),
            output_ports=tuple(payload["output_ports"]),
            drop_ports=tuple(payload["drop_ports"]),
            n_ports=payload["n_ports"],
            params=payload.get("params", {}),
        )
    except (KeyError, TypeError, AttributeError) as err:
        raise ValueError(f"malformed network payload: {err!r}") from None
    validate(net)
    return net
