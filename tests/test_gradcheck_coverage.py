"""The gradient suites check every op type a train step records.

An op type is the qualified name of the backward closure a node records,
such as ``shift_conv_bn.<locals>.backward``.  A new fused op that the model
records fails here until a gradcheck runs it, and an op that only a
gradcheck records shows up as an extra type.  An op that the package
defines but no train step records is an orphan, and fails here too.
"""

import ast
from pathlib import Path

import numpy as np

from simba import gradcheck
from simba import tensor as T
from simba.config import PRESETS
from simba.data import assemble_batch, synth_generate
from simba.train import build_model

# primitives of the test-side composites and of gradcheck's own projection
SUITE_ONLY = {"log", "reduce_sum"}


SRC = Path(__file__).resolve().parents[1] / "src" / "simba"


def _op(qualname: str) -> str:
    return qualname.split(".")[0]


def _suite_ops(monkeypatch):
    recorded = set()
    make = T._make

    def recording_make(data, parents, backward):
        out = make(data, parents, backward)
        if out._backward is not None:
            recorded.add(_op(backward.__qualname__))
        return out

    monkeypatch.setattr(T, "_make", recording_make)
    gradcheck.run_suites(["primitives", "scan"])
    monkeypatch.undo()
    return recorded


def _train_step_ops(cfg, dataset):
    model = build_model(cfg, dataset)
    x, y = assemble_batch(dataset, np.arange(2), cfg.window_T, "train", "joint", seed_parts=(cfg.seed, 0),
                          dtype=model.parameters()[0].dtype)
    loss = T.cross_entropy_logits(model(T.Tensor(x)), y)
    return {_op(node._backward.__qualname__) for node in T._toposort(loss) if node._backward is not None}


def _toy_step_ops():
    return _train_step_ops(PRESETS["toy"](), synth_generate(4, 2, v=8, t_raw=48, seed=0))


def _ntu_step_ops():
    cfg = PRESETS["ntu60"]()
    cfg.depth_l = 1
    assert cfg.partitions_enabled
    return _train_step_ops(cfg, synth_generate(3, 1, v=25, t_raw=80, seed=0, partitions=5))


def test_gradient_suites_cover_every_op_a_train_step_records(monkeypatch):
    suite_ops = _suite_ops(monkeypatch)
    step_ops = set()
    for name, ops in (("toy", _toy_step_ops()), ("ntu60 depth 1", _ntu_step_ops())):
        assert "shift_conv_bn" in ops and "_selective_scan" in ops, name
        assert not ops - suite_ops, (name, sorted(ops - suite_ops))
        step_ops |= ops
    assert "partition_gate" in step_ops  # the ntu60 preset gates its partitions
    assert suite_ops - step_ops == SUITE_ONLY, sorted(suite_ops - step_ops)


def _ops_with_an_adjoint():
    """Every function in the package that defines a nested ``backward``, by op type."""
    ops = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            functions = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in functions:
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(inner, ast.FunctionDef) and inner.name == "backward"
                        for inner in ast.walk(fn) if inner is not fn):
                    ops.add(top.name)
    return ops


def test_every_op_with_an_adjoint_is_recorded_by_a_train_step():
    defined = _ops_with_an_adjoint()
    assert {"shift_conv_bn", "_selective_scan", "cross_entropy_logits"} <= defined
    orphans = defined - _toy_step_ops() - _ntu_step_ops() - SUITE_ONLY
    assert not orphans, sorted(orphans)
