import math
import random

import pytest

from prefnet import (
    ACTIVATIONS,
    ActivationPreconditionError,
    EPS_CMP,
    InputError,
    Name,
    NEG_INF,
    Network,
    NonConvergenceError,
    StimulusSet,
    TOP,
    Unit,
    ZADEH,
    build_cwm_interp,
    build_fuzzy_interp,
    build_preferences,
    extract_kb,
    forward,
    fuzzy_weight,
    get_activation,
    network_from_json,
    serialize_kb,
    stimuli_from_json,
    verify_strict_coherence,
    verify_weak_coherence,
)
from prefnet import mlp
from genutil import (
    network_to_json,
    oracle_forward,
    random_cyclic_net,
    random_feedforward_net,
    random_stimuli,
    stimuli_to_json,
)


def single_unit(activation: str, bias: float, weight: float) -> Network:
    return Network(
        inputs=("x0",),
        units=(
            Unit(
                id="u0",
                activation=activation,
                bias=bias,
                incoming=(("x0", weight),),
            ),
        ),
        c_units=("u0",),
    )


def one_stimulus(value: float) -> StimulusSet:
    return StimulusSet(ids=("s0",), values={"s0": {"x0": value}})


# ---------------------------------------------------------------------------
# Activations


def test_sigmoid_midpoint():
    net = single_unit("sigmoid", 0.0, 1.0)
    table = forward(net, one_stimulus(0.0))
    assert table.u("s0", "u0") == 0.0
    assert table.activity["s0"]["u0"] == 0.5


def test_sigmoid_value():
    net = single_unit("sigmoid", 0.25, 2.0)
    table = forward(net, one_stimulus(0.5))
    u = 0.25 + 2.0 * 0.5
    assert table.u("s0", "u0") == pytest.approx(u)
    assert table.activity["s0"]["u0"] == pytest.approx(1.0 / (1.0 + math.exp(-u)))


def test_step_threshold():
    net = single_unit("step", -1.0, 1.0)
    assert forward(net, one_stimulus(0.5)).activity["s0"]["u0"] == 0.0
    assert forward(net, one_stimulus(1.0)).activity["s0"]["u0"] == 1.0  # fires at u = 0


def test_hard_sigmoid_clips():
    phi = get_activation("hard-sigmoid").fn
    assert phi(-3.0) == 0.0
    assert phi(3.0) == 1.0
    assert phi(0.0) == 0.5
    assert phi(1.0) == pytest.approx(0.7)


def test_softplus01_range():
    phi = get_activation("softplus01").fn
    assert 0.0 < phi(-50.0) < 1e-9
    assert phi(0.0) == pytest.approx(math.log(2) / (1 + math.log(2)))
    assert phi(100.0) < 1.0
    assert phi(40.0) > 0.97


def test_softplus01_at_an_overflowing_field():
    # 1e308 + 1e308 overflows the field to inf, where s / (1 + s) is nan.
    net = Network(
        inputs=("x0", "x1"),
        units=(Unit("u0", "softplus01", 0.0, (("x0", 1e308), ("x1", 1e308))),),
        c_units=("u0",),
    )
    stimuli = StimulusSet(ids=("s0",), values={"s0": {"x0": 1.0, "x1": 1.0}})
    assert forward(net, stimuli).u("s0", "u0") == math.inf
    assert forward(net, stimuli).activity["s0"]["u0"] == 1.0
    assert build_cwm_interp(net, stimuli).preferences["u0"].weights == {"s0": 1.0}


def test_linear_clamp():
    phi = get_activation("linear-clamp").fn
    assert phi(-0.5) == 0.0
    assert phi(0.25) == 0.25
    assert phi(2.0) == 1.0


def test_activation_flags_are_truthful():
    samples = [i / 7 - 3 for i in range(43)]
    for tag, act in ACTIVATIONS.items():
        values = [act.fn(u) for u in samples]
        if act.strictly_increasing:
            for a, b in zip(values, values[1:]):
                assert b > a, tag
        if act.nondecreasing:
            for a, b in zip(values, values[1:]):
                assert b >= a, tag
        if act.range_in_unit_halfopen:
            for v in values:
                assert 0.0 < v <= 1.0, tag


def test_unknown_activation_rejected():
    with pytest.raises(Exception):
        single_unit("relu", 0.0, 1.0)


# ---------------------------------------------------------------------------
# Forward pass


def test_input_clamping():
    net = single_unit("sigmoid", 0.0, 1.0)
    high = forward(net, one_stimulus(7.0))
    assert high.u("s0", "u0") == 1.0
    low = forward(net, one_stimulus(-2.0))
    assert low.u("s0", "u0") == 0.0


def test_listed_order_accumulation():
    net = Network(
        inputs=("a", "b", "c"),
        units=(
            Unit(
                id="o",
                activation="sigmoid",
                bias=0.1,
                incoming=(("a", 0.3), ("b", -0.7), ("c", 1.9)),
            ),
        ),
        c_units=("o",),
    )
    st = StimulusSet(ids=("s",), values={"s": {"a": 0.2, "b": 0.9, "c": 0.4}})
    table = forward(net, st)
    expected = 0.1
    expected += 0.3 * 0.2
    expected += -0.7 * 0.9
    expected += 1.9 * 0.4
    assert table.u("s", "o") == expected  # bit-exact, same fold order


def test_layered_forward():
    net = Network(
        inputs=("x",),
        units=(
            Unit(id="h", activation="sigmoid", bias=0.0, incoming=(("x", 2.0),)),
            Unit(id="o", activation="sigmoid", bias=-1.0, incoming=(("h", 3.0),)),
        ),
        c_units=("h", "o"),
    )
    table = forward(net, one_stimulus_for(net, 0.5))
    h = 1.0 / (1.0 + math.exp(-1.0))
    assert table.activity["s0"]["h"] == pytest.approx(h)
    assert table.activity["s0"]["o"] == pytest.approx(
        1.0 / (1.0 + math.exp(-(3.0 * h - 1.0)))
    )


def one_stimulus_for(net: Network, value: float) -> StimulusSet:
    return StimulusSet(
        ids=("s0",), values={"s0": {inp: value for inp in net.inputs}}
    )


def test_recurrent_fixed_point_matches_topo_on_acyclic(monkeypatch):
    rng = random.Random(3)
    for _ in range(10):
        net = random_feedforward_net(rng)
        st = random_stimuli(rng, net, 5)
        direct = forward(net, st)
        with monkeypatch.context() as m:
            # With no topological order the net takes the iterative path.
            m.setattr(Network, "topological_units", lambda self: None)
            iterated = forward(net, st)
        for sid in st.ids:
            for u in net.units:
                assert direct.activity[sid][u.id] == pytest.approx(
                    iterated.activity[sid][u.id], abs=1e-7
                )
                # the settling pass makes y = phi(u) hold exactly
                act = get_activation(u.activation).fn
                assert iterated.activity[sid][u.id] == act(iterated.u(sid, u.id))


def test_recurrent_convergence():
    net = Network(
        inputs=("x",),
        units=(
            Unit(id="a", activation="sigmoid", bias=0.0, incoming=(("x", 1.0), ("b", 0.5))),
            Unit(id="b", activation="sigmoid", bias=0.0, incoming=(("a", 0.5),)),
        ),
        c_units=("a", "b"),
    )
    assert net.topological_units() is None
    table = forward(net, one_stimulus_for(net, 0.8))
    a, b = table.activity["s0"]["a"], table.activity["s0"]["b"]
    assert a == pytest.approx(
        1.0 / (1.0 + math.exp(-(0.8 + 0.5 * b))), abs=1e-7
    )


def _oscillating_net() -> Network:
    # linear-clamp with gain 4 flips between the saturation points 0 and 1.
    return Network(
        inputs=("x",),
        units=(
            Unit(id="a", activation="linear-clamp", bias=2.0, incoming=(("b", -4.0),)),
            Unit(
                id="b",
                activation="linear-clamp",
                bias=-1.0,
                incoming=(("a", 4.0), ("x", 0.0)),
            ),
        ),
        c_units=("a", "b"),
    )


def test_nonconvergence_raises(monkeypatch):
    net = _oscillating_net()
    monkeypatch.setattr(mlp, "MAX_ITERATIONS", 200)
    with pytest.raises(NonConvergenceError, match="200 iterations") as caught:
        forward(net, one_stimulus_for(net, 0.5))
    # Every round flips one unit between the saturation points 0 and 1.
    assert caught.value.stimulus == "s0"
    assert caught.value.iterations == 200
    assert caught.value.last_delta == 1.0
    assert "changed an activity by 1.0" in str(caught.value)


def test_cycle_detection():
    net = Network(
        inputs=("x",),
        units=(
            Unit(id="a", activation="sigmoid", bias=0.0, incoming=(("b", 1.0),)),
            Unit(id="b", activation="sigmoid", bias=0.0, incoming=(("a", 1.0),)),
        ),
        c_units=("a",),
    )
    assert net.topological_units() is None


def _run(fn, net, stimuli):
    try:
        return fn(net, stimuli)
    except NonConvergenceError as e:
        return ("no convergence", e.stimulus, e.iterations, e.last_delta.hex())


def _bits(table):
    """A table's rows with their key order and every float's exact bits."""
    if isinstance(table, tuple):
        return table
    return table.stimuli, [
        [(k, v.hex()) for k, v in rows[sid].items()]
        for rows in (table.activity, table.induced_field)
        for sid in table.stimuli
    ]


def test_forward_matches_the_dict_oracle_bit_for_bit(monkeypatch):
    monkeypatch.setattr(mlp, "MAX_ITERATIONS", 60)
    rng = random.Random(71)
    nets = [_oscillating_net()]
    for activation in ACTIVATIONS:
        for make in (random_feedforward_net, random_cyclic_net):
            nets += [make(rng, activation, max_layers=3, max_width=5) for _ in range(6)]
    for net in nets:
        st = random_stimuli(rng, net, rng.randint(1, 6), spread=0.5)
        assert _bits(_run(forward, net, st)) == _bits(_run(oracle_forward, net, st))
    assert isinstance(_run(forward, nets[0], one_stimulus_for(nets[0], 0.5)), tuple)


# ---------------------------------------------------------------------------
# Recurrent nets at their stationary state


def _assert_stationary_identity(net: Network, stimuli: StimulusSet) -> None:
    """Every recorded pair has y = phi(u) bit for bit, and each block weight
    agrees with the recorded field within ``EPS_CMP``: the field comes from
    the state before the settling pass, the weight (a refold over the
    recorded activities) from the state after it."""
    table = forward(net, stimuli)
    interp = build_fuzzy_interp(net, stimuli, table)
    model = build_preferences(extract_kb(net), interp, ZADEH)
    for u in net.units:
        phi = get_activation(u.activation).fn
        weights = model.preferences[u.id].weights
        for sid in stimuli.ids:
            act = table.activity[sid]
            assert act[u.id] == phi(table.u(sid, u.id))
            if act[u.id] == 0.0:
                assert weights[sid] == NEG_INF
                continue
            refold = u.bias
            for src, w in u.incoming:
                refold += w * act[src]
            assert weights[sid] == refold
            assert abs(weights[sid] - table.u(sid, u.id)) <= EPS_CMP


def test_cyclic_sigmoid_nets_are_strictly_coherent():
    rng = random.Random(72)
    for _ in range(12):
        net = random_cyclic_net(rng, "sigmoid")
        assert net.topological_units() is None
        stimuli = random_stimuli(rng, net, 8, spread=0.5)
        report = verify_strict_coherence(net, stimuli)
        assert report.ok and report.coherence.coherent
        _assert_stationary_identity(net, stimuli)


def test_cyclic_hard_sigmoid_nets_are_weakly_coherent():
    rng = random.Random(73)
    for _ in range(12):
        net = random_cyclic_net(rng, "hard-sigmoid")
        assert net.topological_units() is None
        stimuli = random_stimuli(rng, net, 8, spread=0.5)
        report = verify_weak_coherence(net, stimuli)
        assert report.ok and report.coherence.weakly_coherent
        _assert_stationary_identity(net, stimuli)


# ---------------------------------------------------------------------------
# Extraction and models


def test_extract_kb_with_bias():
    net = single_unit("sigmoid", 0.5, 2.0)
    kb = extract_kb(net)
    block = kb.defaults_for("u0")
    assert len(block) == 2
    assert block[0].consequent is TOP or block[0].consequent == TOP
    assert block[0].weight == 0.5
    assert block[1].consequent == Name("x0")
    assert block[1].weight == 2.0


def test_extract_kb_zero_bias_drops_top_default():
    net = single_unit("sigmoid", 0.0, 2.0)
    kb = extract_kb(net)
    block = kb.defaults_for("u0")
    assert len(block) == 1
    assert block[0].consequent == Name("x0")


def test_extract_kb_serializes(tmp_path):
    rng = random.Random(8)
    net = random_feedforward_net(rng)
    kb = extract_kb(net)
    from prefnet import parse_kb

    assert parse_kb(serialize_kb(kb)) == kb


def test_extracted_weight_equals_field():
    rng = random.Random(13)
    net = random_feedforward_net(rng)
    st = random_stimuli(rng, net, 10)
    table = forward(net, st)
    interp = build_fuzzy_interp(net, st, table)
    kb = extract_kb(net)
    for u in net.units:
        for sid in st.ids:
            w = fuzzy_weight(kb, interp, ZADEH, u.id, sid)
            if table.activity[sid][u.id] > 0.0:
                assert w == table.u(sid, u.id)  # bit-exact
            else:
                assert w == NEG_INF


def test_build_fuzzy_interp_shape():
    net = single_unit("sigmoid", 0.0, 1.0)
    st = one_stimulus(0.5)
    interp = build_fuzzy_interp(net, st)
    assert interp.domain == ("s0",)
    assert set(interp.concepts) == {"x0", "u0"}
    assert interp.individuals == {"s0": "s0"}


def test_build_cwm_interp_thresholds():
    net = single_unit("sigmoid", 0.0, 1.0)
    st = StimulusSet(
        ids=("lo", "hi"), values={"lo": {"x0": 0.0}, "hi": {"x0": 1.0}}
    )
    nonzero = build_cwm_interp(net, st, "nonzero")
    assert nonzero.interp.concepts["u0"] == {"lo": 1.0, "hi": 1.0}  # sigmoid(0)=0.5 != 0
    half = build_cwm_interp(net, st, "half")
    assert half.interp.concepts["u0"] == {"hi": 1.0}  # 0.5 is not > 0.5


def test_cwm_weights_are_activities():
    net = single_unit("sigmoid", 0.0, 1.0)
    st = one_stimulus(1.0)
    model = build_cwm_interp(net, st, "nonzero")
    y = forward(net, st).activity["s0"]["u0"]
    assert model.preferences["u0"].weights["s0"] == y


# ---------------------------------------------------------------------------
# Verification


def test_verify_strict_on_sigmoid():
    rng = random.Random(21)
    net = random_feedforward_net(rng)
    st = random_stimuli(rng, net, 20)
    report = verify_strict_coherence(net, st)
    assert report.ok
    assert report.weight_identity_ok
    assert report.max_weight_error == 0.0
    assert report.coherence.coherent
    assert report.checked_pairs + report.gated_pairs == len(net.units) * len(st.ids)


def test_verify_strict_rejects_step():
    net = single_unit("step", 0.0, 1.0)
    with pytest.raises(ActivationPreconditionError) as exc:
        verify_strict_coherence(net, one_stimulus(0.5))
    assert "u0" in str(exc.value)


def test_verify_weak_on_step():
    rng = random.Random(33)
    net = random_feedforward_net(rng, activation="step")
    st = random_stimuli(rng, net, 20)
    report = verify_weak_coherence(net, st)
    assert report.ok
    assert report.coherence.weakly_coherent


def test_step_net_fails_strict_coherence():
    # two stimuli with different fields but the same thresholded activity:
    # the weights order them strictly while the degrees tie
    net = single_unit("step", 0.0, 1.0)
    st = StimulusSet(
        ids=("s0", "s1"), values={"s0": {"x0": 0.25}, "s1": {"x0": 0.75}}
    )
    table = forward(net, st)
    assert table.activity["s0"]["u0"] == table.activity["s1"]["u0"] == 1.0
    interp = build_fuzzy_interp(net, st, table)
    kb = extract_kb(net)
    model = build_preferences(kb, interp, ZADEH)
    from prefnet import coherence_report

    rep = coherence_report(model)
    assert not rep.coherent
    assert rep.weakly_coherent


def test_verify_weak_accepts_hard_sigmoid():
    rng = random.Random(55)
    net = random_feedforward_net(rng, activation="hard-sigmoid")
    st = random_stimuli(rng, net, 20)
    report = verify_weak_coherence(net, st)
    assert report.ok


def test_weight_identity_fails_on_a_nan_error(monkeypatch):
    # An overflowing field is inf, and so is the weight: equal infinities agree.
    net = Network(
        inputs=("x0", "x1"),
        units=(Unit("u0", "softplus01", 0.0, (("x0", 1e308), ("x1", 1e308))),),
        c_units=("u0",),
    )
    stimuli = StimulusSet(ids=("s0",), values={"s0": {"x0": 1.0, "x1": 1.0}})
    report = verify_strict_coherence(net, stimuli)
    assert (report.weight_identity_ok, report.max_weight_error) == (True, 0.0)
    # inf against a NaN field: abs(w - u) is NaN, which no tolerance accepts.
    monkeypatch.setattr(mlp.ActivityTable, "u", lambda self, s, unit: math.nan)
    assert not verify_strict_coherence(net, stimuli).weight_identity_ok


def test_verify_report_json():
    net = single_unit("sigmoid", 0.0, 1.0)
    report = verify_strict_coherence(net, one_stimulus(0.5))
    blob = report.to_json()
    for key in (
        "kind",
        "ok",
        "weight_identity_ok",
        "max_weight_error",
        "gated_pairs",
        "checked_pairs",
        "coherence",
    ):
        assert key in blob


# ---------------------------------------------------------------------------
# Serialization


def test_network_json_round_trip():
    rng = random.Random(44)
    net = random_feedforward_net(rng)
    assert network_from_json(network_to_json(net)) == net


def test_stimuli_json_round_trip():
    rng = random.Random(45)
    net = random_feedforward_net(rng)
    st = random_stimuli(rng, net, 7)
    assert stimuli_from_json(stimuli_to_json(st)) == st


def test_network_validation():
    with pytest.raises(ValueError):
        Network(
            inputs=("x", "x"),
            units=(Unit(id="u", activation="sigmoid", bias=0.0, incoming=()),),
            c_units=("u",),
        )
    with pytest.raises(ValueError):
        Network(
            inputs=("x",),
            units=(
                Unit(
                    id="u",
                    activation="sigmoid",
                    bias=0.0,
                    incoming=(("ghost", 1.0),),
                ),
            ),
            c_units=("u",),
        )
    with pytest.raises(ValueError):
        Network(
            inputs=("x",),
            units=(Unit(id="u", activation="sigmoid", bias=0.0, incoming=()),),
            c_units=("other",),
        )


def test_network_rejects_a_repeated_designated_unit():
    unit = Unit(id="u", activation="sigmoid", bias=0.0, incoming=(("x", 1.0),))
    with pytest.raises(InputError, match="designated unit 'u' is listed twice"):
        Network(inputs=("x",), units=(unit,), c_units=("u", "u"))


def test_stimulus_validation():
    net = single_unit("sigmoid", 0.0, 1.0)
    st = StimulusSet(ids=("s",), values={"s": {}})
    with pytest.raises(ValueError):
        forward(net, st)


def test_stimulus_errors_name_the_first_key_in_row_order():
    net = Network(
        inputs=("a", "b"),
        units=(Unit(id="u", activation="sigmoid", incoming=(("a", 1.0),)),),
    )
    # Both orders of the two unknown keys, so no set order can pass for both.
    for first, second in (("zeta", "alpha"), ("alpha", "zeta")):
        row = {first: 0.0, "a": 0.1, second: 0.2, "b": 0.3}
        with pytest.raises(InputError, match=f"unknown input '{first}'"):
            forward(net, StimulusSet(ids=("s",), values={"s": row}))
    # A missing input is reported before any unknown key.
    missing = StimulusSet(ids=("s",), values={"s": {"zeta": 0.0, "a": 0.1}})
    with pytest.raises(InputError, match="assigns no value to input 'b'"):
        forward(net, missing)
