import json

import numpy as np
import pytest

import lipcert as lc
from lipcert import (
    AffineLayer,
    ModelFormatError,
    Network,
    load_model,
    network_from_json,
)
from lipcert.activations import IdentityActivation

from conftest import ABS_MODEL, make_abs_net, random_net, unit_box, write_json


def test_abs_net_structure():
    net = make_abs_net()
    assert net.depth == 2
    assert net.input_dim == 1 and net.output_dim == 1
    # trailing affine picked up an identity activation
    assert isinstance(net.activations[1], IdentityActivation)


def test_abs_forward():
    net = make_abs_net()
    for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
        assert net.forward([x]) == pytest.approx(abs(x))


def test_jacobian_at_abs():
    net = make_abs_net()
    J, flagged = net.jacobian_at([2.0])
    np.testing.assert_array_equal(J, [[1.0]])
    assert not flagged
    J, flagged = net.jacobian_at([-2.0])
    np.testing.assert_array_equal(J, [[-1.0]])
    assert not flagged
    _, flagged = net.jacobian_at([0.0])
    assert flagged


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(10):
        net = random_net(rng)
        d = net.input_dim
        checked = 0
        while checked < 10:
            x = rng.uniform(-1.0, 1.0, size=d)
            J, flagged = net.jacobian_at(x, boundary_tol=1e-4)
            if flagged:
                continue
            h = 1e-6
            fd = np.zeros_like(J)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[:, i] = (net.forward(x + e) - net.forward(x - e)) / (2 * h)
            np.testing.assert_allclose(J, fd, atol=1e-5)
            checked += 1


def test_adjacent_affines_get_identity_padding():
    net = Network([
        AffineLayer([[2.0]], [0.0]),
        AffineLayer([[3.0]], [1.0]),
    ])
    assert net.depth == 2
    assert all(isinstance(a, IdentityActivation) for a in net.activations)
    assert net.forward([1.0]) == pytest.approx(7.0)


def test_activation_first_gets_identity_affine():
    net = Network([lc.relu(2), AffineLayer([[1.0, 1.0]], [0.0])])
    assert net.depth == 2
    np.testing.assert_allclose(net.affine[0].W, np.eye(2))
    assert net.forward([-1.0, 3.0]) == pytest.approx(3.0)


def test_chain_validation_names_layer():
    with pytest.raises(ValueError, match="layer 2"):
        Network([
            AffineLayer([[1.0], [1.0]], [0.0, 0.0]),
            lc.relu(2),
            AffineLayer([[1.0]], [0.0]),  # expects width 2 input
        ])
    with pytest.raises(ValueError, match="layer 1"):
        Network([AffineLayer([[1.0]], [0.0]), lc.relu(2)])


def test_affine_layer_validation():
    with pytest.raises(ValueError):
        AffineLayer([[np.inf]], [0.0])
    with pytest.raises(ValueError):
        AffineLayer([[1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        AffineLayer([1.0, 2.0], [0.0])
    aff = AffineLayer([[1.0, 2.0]], [3.0])
    with pytest.raises(ValueError):
        aff.W[0, 0] = 9.0


# model JSON

def test_load_abs_model(tmp_path):
    path = write_json(tmp_path / "abs.json", ABS_MODEL)
    net = load_model(path)
    assert net.depth == 2
    assert net.forward([-3.0]) == pytest.approx(3.0)


def test_model_b_defaults_to_zero():
    net = network_from_json({"layers": [{"type": "affine", "W": [[2.0]]}]})
    np.testing.assert_array_equal(net.affine[0].b, [0.0])


def test_model_all_activation_kinds():
    data = {"layers": [
        {"type": "affine", "W": np.eye(4).tolist()},
        {"type": "maxmin"},
        {"type": "affine", "W": np.eye(4).tolist()},
        {"type": "groupsort", "group_size": 2},
        {"type": "affine", "W": np.eye(4).tolist()},
        {"type": "maxpool", "windows": [[0, 1], [2, 3]]},
        {"type": "affine", "W": np.eye(2).tolist()},
        {"type": "leaky_relu", "slope": 0.2},
        {"type": "affine", "W": np.eye(2).tolist()},
        {"type": "prelu", "slopes": [0.1, 0.2]},
        {"type": "affine", "W": np.eye(2).tolist()},
        {"type": "spline", "breakpoints": [0.0],
         "slopes": [[0.0, 1.0], [0.0, 1.0]], "intercepts": [[0.0, 0.0], [0.0, 0.0]]},
        {"type": "affine", "W": [[1.0, 1.0]]},
        {"type": "fullsort"},
        {"type": "affine", "W": [[1.0]]},
        {"type": "identity"},
    ]}
    net = network_from_json(data)
    assert net.input_dim == 4 and net.output_dim == 1
    y = net.forward([1.0, -2.0, 0.5, 0.25])
    assert np.isfinite(y).all()


def test_model_shape_error_names_layer():
    data = {"layers": [
        {"type": "affine", "W": [[1.0], [1.0]]},
        {"type": "affine", "W": [[1.0]]},  # expects 2 columns
    ]}
    with pytest.raises(ModelFormatError, match="layer 2"):
        network_from_json(data)


def test_model_rejections():
    cases = [
        {"layers": [{"type": "affine", "W": [[1.0]], "bias": [0.0]}]},  # unknown field
        {"layers": [{"type": "relu"}]},  # activation first
        {"layers": [{"type": "affine", "W": [[np.nan]]}]},
        {"layers": [{"type": "affine", "W": [[1.0]]}], "name": "x"},  # top-level junk
        {"layers": [{"type": "sigmoid"}]},
        {"layers": []},
        {"layers": [{"W": [[1.0]]}]},  # missing type
        {"layers": [{"type": "affine"}]},  # missing W
        {"layers": [{"type": "affine", "W": [[1.0]]},
                    {"type": "leaky_relu"}]},  # missing slope
        [],
    ]
    # integer fields: no truncation of fractions, no booleans read as 0 or 1
    pair = {"type": "affine", "W": [[1.0, 0.0], [0.0, 1.0]]}
    for bad in ([[0.7, 1]], [[True, 1]], [[0, 1.0]], [["0", 1]], [0, 1], "01"):
        cases.append({"layers": [pair, {"type": "maxpool", "windows": bad}]})
    for bad in (2.9, True, 2.0, "2", None):
        cases.append({"layers": [pair, {"type": "groupsort", "group_size": bad}]})
    for data in cases:
        with pytest.raises(ModelFormatError):
            network_from_json(data)


def test_model_integer_fields_accept_any_integer_type():
    # a Python caller may pass tuple windows and numpy integers
    pair = {"type": "affine", "W": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    net = network_from_json({"layers": [
        pair, {"type": "maxpool", "windows": ((0, np.int64(1)), (2,))}]})
    assert net.activations[0].windows == [(0, 1), (2,)]
    assert all(type(i) is int for w in net.activations[0].windows for i in w)
    net = network_from_json({"layers": [pair, {"type": "groupsort", "group_size": np.int64(2)}]})
    assert net.activations[0].group_size == 2 and type(net.activations[0].group_size) is int


def test_model_nan_error_mentions_layer():
    cases = [
        ({"layers": [{"type": "affine", "W": [[1.0]], "b": [np.inf]}]}, "layer 1"),
        ({"layers": [{"type": "affine", "W": [[1.0], [2.0]]},
                     {"type": "prelu", "slopes": [np.nan, 1]}]}, "layer 2"),
    ]
    for data, layer in cases:
        with pytest.raises(ModelFormatError, match=layer) as err:
            network_from_json(data)
        assert str(err.value).count(layer) == 1


def test_load_model_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    with pytest.raises(ModelFormatError):
        load_model(str(p))


# linear folding: the root prefix is the exact map up to the first star layer

def test_lin_prop_first_affine_only():
    # on [-1, 1] layer 1 holds stars, so the prefix is the first affine layer
    net = make_abs_net()
    pre = lc.initial_subproblem(net, unit_box(1)).prefix
    np.testing.assert_array_equal(pre.J, [[1.0], [-1.0]])
    np.testing.assert_array_equal(pre.b, [0.0, 0.0])


def test_lin_prop_full_fold_on_decided_region():
    # on [1, 2] the relu states are decided, the whole net folds to x -> x
    net = make_abs_net()
    root = lc.initial_subproblem(net, lc.Polyhedron.from_box([1.0], [2.0]))
    assert root.first_star_layer == net.depth + 1
    np.testing.assert_allclose(root.prefix.J, [[1.0]])
    np.testing.assert_allclose(root.prefix.b, [0.0])


def test_lin_prop_matches_forward_on_linear_net():
    rng = np.random.default_rng(18)
    net = Network([
        AffineLayer(rng.normal(size=(3, 2)), rng.normal(size=3)),
        AffineLayer(rng.normal(size=(2, 3)), rng.normal(size=2)),
    ])
    pre = lc.initial_subproblem(net, lc.Polyhedron.universe(2)).prefix
    for _ in range(10):
        x = rng.normal(size=2)
        np.testing.assert_allclose(pre.J @ x + pre.b, net.forward(x), atol=1e-9)
