"""Switch-network builders: frozen cost anchors and closed-form sweeps."""

import dataclasses
import gc
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muxkit import networks


def _m(net):
    return networks.metrics(net)


def test_log_tree_anchor():
    m = _m(networks.build_log_tree(8, 2))
    assert m.n_active == 14
    assert (m.depth_min, m.depth_max) == (3, 3)
    assert m.n_outputs == 1
    assert m.delays == ()


def test_log_tree_single_block():
    m = _m(networks.build_log_tree(2, 2))
    assert m.n_active == 2
    assert (m.depth_min, m.depth_max) == (1, 1)
    m = _m(networks.build_log_tree(9, 3))
    assert (m.depth_min, m.depth_max) == (2, 2)
    assert m.n_active == 3 * 4  # 3 + 1 blocks of 3


def test_chain_anchors():
    m = _m(networks.build_chain(4, 2))
    assert m.n_active == 6  # 3 blocks of 2
    assert (m.depth_min, m.depth_max) == (1, 3)
    m = _m(networks.build_chain(7, 4))
    assert (m.depth_min, m.depth_max) == (1, 2)
    assert m.n_active == 8


def test_delay_network_anchors():
    m = _m(networks.build_delay_network(8, 2))
    assert m.n_active == 8  # 4 blocks of 2
    assert m.delays == (1.0, 2.0, 4.0)
    assert (m.depth_min, m.depth_max) == (4, 4)
    m = _m(networks.build_delay_network(9, 3))
    assert m.delays == (1.0, 2.0, 3.0, 6.0)
    assert (m.depth_min, m.depth_max) == (3, 3)
    m = _m(networks.build_delay_network(2, 2))
    assert m.n_active == 4  # 2 blocks of 2
    assert m.delays == (1.0,)


def test_storage_loop_anchors():
    m = _m(networks.build_storage_loop(4, 2))
    assert (m.depth_min, m.depth_max) == (1, 4)
    assert m.n_active == 8
    assert m.delays == (1.0, 1.0, 1.0)
    # n - 1 >= size: a single pass, no loop delay
    m = _m(networks.build_storage_loop(4, 5))
    assert (m.depth_min, m.depth_max) == (1, 1)
    assert m.delays == ()
    # exits after ceil(size / (n - 1)) passes
    m = _m(networks.build_storage_loop(6, 3))
    assert len(m.delays) == 2
    assert m.depth_max == 3


def test_spanke_anchor():
    m = _m(networks.build_spanke(4, 2))
    assert m.n_active == 16  # 4 fans of 2 plus 2 collectors of 4
    assert (m.depth_min, m.depth_max) == (2, 2)
    assert m.n_outputs == 2


def test_concatenated_anchor():
    m = _m(networks.build_concatenated_gmzi(8, 3))
    assert m.n_active == 8 + 7 + 6
    assert (m.depth_min, m.depth_max) == (1, 3)
    assert m.n_outputs == 3


def test_log_tree_closed_form_sweep():
    for n in (2, 3, 4):
        for size in range(2, 65):
            m = _m(networks.build_log_tree(size, n))
            d = 1
            while n ** d < size:
                d += 1
            blocks = (n ** d - 1) // (n - 1)
            assert m.n_active == n * blocks, (size, n)
            assert (m.depth_min, m.depth_max) == (d, d)
            assert m.n_inputs == n ** d  # padded leaves stay open
            assert m.n_outputs == 1


def test_chain_closed_form_sweep():
    for n in (2, 3, 4):
        for size in range(2, 65):
            m = _m(networks.build_chain(size, n))
            blocks = math.ceil((size - 1) / (n - 1))
            assert m.n_active == n * blocks, (size, n)
            assert m.depth_min == 1
            assert m.depth_max == blocks
            assert m.n_outputs == 1


def test_delay_network_closed_form_sweep():
    for n in (2, 3, 4):
        for size in range(2, 65):
            m = _m(networks.build_delay_network(size, n))
            d = 0
            while n ** d < size:
                d += 1
            assert m.n_active == n * (d + 1), (size, n)
            assert (m.depth_min, m.depth_max) == (d + 1, d + 1)
            expect = sorted(float(arm * n ** i) for i in range(d) for arm in range(1, n))
            assert list(m.delays) == expect


def test_storage_loop_closed_form_sweep():
    for n in (2, 3, 4):
        for size in range(1, 65):
            m = _m(networks.build_storage_loop(size, n))
            passes = math.ceil(size / (n - 1))
            assert m.n_active == n * passes, (size, n)
            assert m.depth_min == 1
            assert m.depth_max == passes
            assert len(m.delays) == passes - 1


def test_spanke_closed_form_sweep():
    for size in range(2, 33):
        for m_out in range(1, min(size, 6) + 1):
            met = _m(networks.build_spanke(size, m_out))
            assert met.n_active == 2 * size * m_out
            assert (met.depth_min, met.depth_max) == (2, 2)
            assert met.n_outputs == m_out
            opt = _m(networks.build_spanke(size, m_out, optimized=True))
            layer1 = sum(min(i + 1, m_out) for i in range(size))
            layer2 = sum(size - j for j in range(m_out))
            assert opt.n_active == layer1 + layer2
            assert (opt.depth_min, opt.depth_max) == (2, 2)
            assert opt.n_active <= met.n_active


def test_concatenated_closed_form_sweep():
    for size in range(2, 33):
        for m_out in range(1, min(size, 6) + 1):
            met = _m(networks.build_concatenated_gmzi(size, m_out))
            assert met.n_active == sum(size - j for j in range(m_out))
            assert met.depth_min == 1
            assert met.depth_max == m_out
            assert met.n_outputs == m_out


def test_builders_reject_bad_arguments():
    with pytest.raises(ValueError):
        networks.build_log_tree(0, 2)
    with pytest.raises(ValueError):
        networks.build_chain(4, 1)
    with pytest.raises(ValueError):
        networks.build_delay_network(1, 2)
    with pytest.raises(ValueError):
        networks.build_spanke(4, 5)
    with pytest.raises(ValueError):
        networks.build_concatenated_gmzi(4, 6)
    for args in ((0, 2), (-3, 2), (4, 1), (4, 0)):
        with pytest.raises(ValueError, match="size >= 1 and block size n >= 2"):
            networks.build_storage_loop(*args)
    # over the active-element bound, refused before a port is allocated
    for build, args in [
        (networks.build_log_tree, (2, 10**6)),
        (networks.build_chain, (10**6, 2)),
        (networks.build_delay_network, (2, 10**6)),
        (networks.build_storage_loop, (10**6, 2)),
        (networks.build_spanke, (100000, 1000)),
        (networks.build_spanke, (100000, 1000, True)),
        (networks.build_concatenated_gmzi, (10**6, 1)),
    ]:
        with pytest.raises(ValueError, match="active elements"):
            build(*args)


def test_validate_passes_for_all_builders():
    nets = [
        networks.build_log_tree(13, 3),
        networks.build_chain(11, 4),
        networks.build_delay_network(12, 3),
        networks.build_storage_loop(7, 3),
        networks.build_spanke(6, 3, optimized=True),
        networks.build_concatenated_gmzi(9, 4),
    ]
    for net in nets:
        networks.validate(net)  # raises on broken port wiring
        assert net.name in networks.BUILDERS


def test_validate_rejects_double_consumption():
    net = networks.build_log_tree(4, 2)
    bad = networks.Network(
        name=net.name,
        components=net.components + (net.components[-1],),
        input_ports=net.input_ports,
        output_ports=net.output_ports,
        drop_ports=net.drop_ports,
        n_ports=net.n_ports,
        params=net.params,
    )
    with pytest.raises(ValueError):
        networks.validate(bad)


def test_stamped_switch_blocks_share_no_params():
    # log-tree(16, 4) stamps one 4-mode block five times; editing one
    # stamped crossing must leave every other component as built
    net = networks.build_log_tree(16, 4)
    first = next(c for c in net.components if c.kind == "crossing")
    first.params["mapping"].reverse()
    first.params["note"] = "edited"
    fresh = networks.build_log_tree(16, 4)
    kept = [i for i, c in enumerate(net.components) if c is not first]
    assert len(kept) == len(net.components) - 1
    assert [net.components[i] for i in kept] == [fresh.components[i] for i in kept]
    assert first != fresh.components[net.components.index(first)]


def test_network_json_roundtrip():
    for net in (
        networks.build_delay_network(8, 2),
        networks.build_spanke(4, 2),
        networks.build_concatenated_gmzi(6, 2),
    ):
        back = networks.network_from_json(networks.network_to_json(net))
        assert networks.metrics(back) == networks.metrics(net)
        assert back.name == net.name
        assert len(back.components) == len(net.components)


def _network_json_oracle(net) -> str:
    # the payload network_to_json writes, through the stdlib encoder
    payload = {
        "name": net.name,
        "params": net.params,
        "n_ports": net.n_ports,
        "input_ports": list(net.input_ports),
        "output_ports": list(net.output_ports),
        "drop_ports": list(net.drop_ports),
        "components": [
            {
                "kind": c.kind,
                "in_ports": list(c.in_ports),
                "out_ports": list(c.out_ports),
                "params": {k: networks._jsonable(v) for k, v in c.params.items()},
            }
            for c in net.components
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


BUILDER_SIZES = {
    "log-tree": [(8, 2), (27, 3), (16, 4)],
    "chain": [(2, 2), (10, 3)],
    "delay-network": [(8, 2), (12, 3)],
    "storage-loop": [(7, 4), (16, 2)],
    "spanke": [(6, 3), (16, 4), (16, 4, True)],
    "concatenated-gmzi": [(6, 3), (12, 2)],
}


@pytest.mark.parametrize("name", sorted(networks.BUILDERS))
def test_network_json_equals_the_stdlib_encoder_for_every_builder(name):
    for args in BUILDER_SIZES[name]:
        net = networks.BUILDERS[name](*args)
        assert networks.network_to_json(net) == _network_json_oracle(net)


_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(['"\\/\n\t\x00\x1f', "é", "\U0001f600", "\u2028", "", "%d %s %%"]))
_FLOAT = st.one_of(st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 5e-324]))
_PLAIN = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), _FLOAT, _TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=3),
    ),
    max_leaves=8,
)
_NUMPY = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    _FLOAT.map(np.float64),
    st.booleans().map(np.bool_),
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=4).map(lambda v: np.array(v, dtype=np.int32)),
    st.lists(_FLOAT, max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array),
)
# param values are converted by _jsonable, which reaches numpy values at the
# top level and inside lists and tuples, not inside dicts
_PARAM = st.one_of(
    _PLAIN,
    _NUMPY,
    st.lists(st.one_of(st.integers(), _NUMPY), max_size=4),
    st.lists(st.integers(), max_size=6).map(tuple),
)
_PORTS = st.lists(st.one_of(st.integers(0, 10**9), st.booleans(), _FLOAT), max_size=5)
_COMPONENT = st.builds(
    networks.Component,
    kind=st.one_of(st.sampled_from(networks.KINDS), _TEXT, st.integers()),
    in_ports=_PORTS.map(tuple),
    out_ports=_PORTS.map(tuple),
    params=st.one_of(
        st.dictionaries(_TEXT, _PARAM, max_size=4),
        st.dictionaries(st.integers(-5, 5), _PARAM, max_size=2),
    ),
)


@settings(max_examples=200, deadline=None)
@example(  # a template's literal text holds "%" only escaped
    name="%d",
    components=(networks.Component("%d %s %%", (1, 2), (3,), {"%d": 4, "%s": [5, 6]}),),
    ports=(1,),
    n_ports=7,
    params={"%": "%d"},
)
@given(
    name=_TEXT,
    components=st.lists(_COMPONENT, max_size=4).map(tuple),
    ports=st.lists(st.integers(0, 50), max_size=4).map(tuple),
    n_ports=st.integers(0, 2**40),
    params=st.dictionaries(_TEXT, _PLAIN, max_size=4),
)
def test_network_json_equals_the_stdlib_encoder_on_drawn_networks(name, components, ports, n_ports, params):
    net = networks.Network(
        name=name,
        components=components,
        input_ports=ports,
        output_ports=ports[::-1],
        drop_ports=ports[1:],
        n_ports=n_ports,
        params=params,
    )
    assert networks.network_to_json(net) == _network_json_oracle(net)


def _tampered(net, index, **changes):
    doc = json.loads(networks.network_to_json(net))
    doc["components"][index].update(changes)
    return json.dumps(doc)


def _edited(net, edit):
    doc = json.loads(networks.network_to_json(net))
    edit(doc)
    return json.dumps(doc)


def test_validate_rejects_malformed_components():
    net = networks.build_log_tree(4, 4)
    kinds = [c.kind for c in net.components]
    cross, coupler, active = kinds.index("crossing"), kinds.index("coupler"), kinds.index("active-phase")
    doc = json.loads(networks.network_to_json(net))
    good = doc["components"][cross]["params"]["mapping"]
    ins = doc["components"][coupler]["in_ports"]
    delayed = networks.build_delay_network(4, 2)
    delay = [c.kind for c in delayed.components].index("delay")
    bad_docs = [
        _tampered(net, 0, kind="teleporter"),
        _tampered(net, cross, params={"crossings": 1}),
        _tampered(net, cross, params={"mapping": good[:-1], "crossings": 1}),
        _tampered(net, cross, params={"mapping": [0] * len(good), "crossings": 1}),
        _tampered(net, cross, params={"mapping": [m + 1 for m in good], "crossings": 1}),
        _tampered(net, cross, params={"mapping": ["a"] + good[1:], "crossings": 1}),
        _tampered(net, cross, params={"mapping": [float(m) for m in good], "crossings": 1}),
        _tampered(net, cross, params={"mapping": good, "crossings": [1]}),
        _tampered(net, cross, params=[good]),
        # arities the traversal gives no meaning
        _tampered(net, active, in_ports=[]),
        _tampered(net, coupler, in_ports=[]),
        _edited(net, lambda d: d.update(output_ports=[])),
        _tampered(delayed, delay, params={"duration": [1]}),
        # port ids that are not ints in [0, n_ports)
        _tampered(net, coupler, in_ports=[float(ins[0])] + ins[1:]),
        _tampered(net, coupler, in_ports=[True] + ins[1:]),
        _edited(net, lambda d: d.update(n_ports=3)),
        _edited(net, lambda d: d.update(n_ports=10**12)),
        _edited(net, lambda d: d.update(n_ports=True)),
        _edited(net, lambda d: d.update(drop_ports=d["drop_ports"][:-1] + [d["n_ports"]])),
        # port order: consumed before it is produced, an output consumed
        _edited(net, lambda d: d["components"].reverse()),
        _edited(net, lambda d: d.update(output_ports=[d["components"][0]["out_ports"][0]])),
        # ports produced or consumed twice
        _edited(net, lambda d: d.update(input_ports=d["input_ports"] + d["input_ports"][:1])),
        _tampered(net, coupler, out_ports=ins[:1] + doc["components"][coupler]["out_ports"][1:]),
        _tampered(net, coupler, in_ports=ins[:1] * 2 + ins[2:]),
        # payloads of the wrong shape
        "[]",
        "{}",
        _edited(net, lambda d: d["components"][0].pop("kind")),
        _tampered(net, coupler, in_ports=5),
        _edited(net, lambda d: d.update(input_ports=7)),
        _tampered(net, coupler, in_ports=[[ins[0]]] + ins[1:]),
    ]
    for text in bad_docs:
        with pytest.raises(ValueError):
            networks.network_from_json(text)
    # metrics validates too, so a hand-built crossing without a mapping is
    # reported as bad input rather than a KeyError
    comps = list(net.components)
    comps[cross] = networks.Component("crossing", comps[cross].in_ports, comps[cross].out_ports, {})
    with pytest.raises(ValueError):
        networks.metrics(dataclasses.replace(net, components=tuple(comps)))


_NET_PORTS = st.one_of(st.integers(0, 12), st.booleans(), _FLOAT)


@settings(max_examples=300, deadline=None)
@given(
    components=st.lists(_COMPONENT, max_size=6).map(tuple),
    inputs=st.lists(_NET_PORTS, max_size=6).map(tuple),
    outputs=st.lists(_NET_PORTS, max_size=3).map(tuple),
    drops=st.lists(_NET_PORTS, max_size=3).map(tuple),
    n_ports=_NET_PORTS,
)
def test_validate_and_metrics_raise_only_value_error(components, inputs, outputs, drops, n_ports):
    net = networks.Network("drawn", components, inputs, outputs, drops, n_ports)
    for check in (networks.validate, networks.metrics):
        try:
            check(net)
        except ValueError:
            pass


# ---------------------------------------------------------------------------
# reference implementations: the set walk and the dict walk

def _validate_oracle(net) -> None:
    produced = set(net.input_ports)
    if len(produced) != len(net.input_ports):
        raise ValueError("duplicate input ports")
    consumed = set()
    for comp in net.components:
        if comp.kind not in networks.KINDS:
            raise ValueError(f"unknown component kind {comp.kind!r}")
        if not isinstance(comp.params, dict):
            raise ValueError("component params must be a mapping")
        if comp.kind == "crossing":
            n = len(comp.in_ports)
            try:
                ok = len(comp.out_ports) == n and sorted(comp.params.get("mapping")) == list(range(n))
            except TypeError:
                ok = False
            if not ok:
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


def _metrics_oracle(net) -> networks.CostMetrics:
    _validate_oracle(net)
    lo = {p: 0 for p in net.input_ports}
    hi = {p: 0 for p in net.input_ports}
    n_active = n_couplers = n_crossings = crossing_count = 0
    delays = []
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
        else:
            block_lo = min(lo[p] for p in comp.in_ports)
            block_hi = max(hi[p] for p in comp.in_ports)
            for q in comp.out_ports:
                lo[q] = block_lo
                hi[q] = block_hi
    return networks.CostMetrics(
        n_active=n_active,
        depth_min=min(lo[p] for p in net.output_ports),
        depth_max=max(hi[p] for p in net.output_ports),
        n_couplers=n_couplers,
        n_crossings=n_crossings,
        crossing_count=crossing_count,
        delays=tuple(sorted(delays)),
        n_inputs=len(net.input_ports),
        n_outputs=len(net.output_ports),
    )


def _builder_cases():
    """Every builder at sizes 1..22 with n (or m) from 2 to 4, spanke plain and optimized."""
    for name, build in sorted(networks.BUILDERS.items()):
        for size in range(1, 23):
            for k in (2, 3, 4):
                for extra in ((False,), (True,)) if name == "spanke" else ((),):
                    try:
                        yield build(size, k, *extra)
                    except ValueError:
                        continue


def test_builders_agree_with_the_reference_walks():
    for net in _builder_cases():
        networks.validate(net)
        _validate_oracle(net)
        assert networks.metrics(net) == _metrics_oracle(net), (net.name, net.params)
        assert networks.network_to_json(net) == _network_json_oracle(net), (net.name, net.params)


@pytest.mark.parametrize(
    "optimized, digest",
    [
        (False, "29f3cb99147af47dfe055d6de5bcfe241865ec08ff77da54211a94b6b733b2c5"),
        (True, "3b95f96e10c3067f86e244b5940ef07ed406e2a22269c34a3a555cc7f9bfd992"),
    ],
)
def test_spanke_64x16_json_is_pinned(optimized, digest):
    net = networks.build_spanke(64, 16, optimized=optimized)
    assert networks.metrics(net) == _metrics_oracle(net)
    text = networks.network_to_json(net)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert networks.network_to_json(networks.network_from_json(text)) == text


def test_builder_guards_count_active_elements_exactly(monkeypatch):
    # each builder's closed form, the count it hands to check_size, is the
    # n_active that metrics counts; test_limits drives the bound itself
    counted = []
    monkeypatch.setattr(networks, "check_size", lambda name, value: counted.append((name, value)))
    cases = list(_builder_cases())
    assert len(cases) > 400
    assert counted == [("active-elements", networks.metrics(net).n_active) for net in cases]


# ---------------------------------------------------------------------------
# the cyclic collector is paused inside the builders and the parser


def _set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_network_calls_restore_the_collector_state(enabled):
    text = networks.network_to_json(networks.build_log_tree(4, 4))
    calls = [lambda build=build, args=BUILDER_SIZES[name][0]: build(*args) for name, build in networks.BUILDERS.items()]
    calls.append(lambda: networks.network_from_json(text))
    failing = [
        lambda: networks.network_from_json(_tampered(networks.build_log_tree(4, 4), 0, kind="teleporter")),
        lambda: networks.build_spanke(100000, 1000),
    ]
    was = gc.isenabled()
    try:
        _set_collector(enabled)
        for call in calls:
            call()
            assert gc.isenabled() is enabled
        for call in failing:
            with pytest.raises(ValueError):
                call()
            assert gc.isenabled() is enabled
    finally:
        _set_collector(was)


def test_no_collection_starts_inside_network_calls():
    # build_spanke(16, 4) makes 685 components, enough to set off young
    # collections; gc.collect() empties the young generation first, so none
    # can start between the call and the pause
    starts = []
    inside = [False]

    def hook(phase, info):
        if phase == "start" and inside[0]:
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.callbacks.append(hook)
    try:
        gc.enable()
        gc.collect()
        inside[0] = True
        net = networks.build_spanke(16, 4)
        inside[0] = False
        text = networks.network_to_json(net)
        gc.collect()
        inside[0] = True
        networks.network_from_json(text)
        inside[0] = False
    finally:
        gc.callbacks.remove(hook)
        _set_collector(was)
    assert starts == []
