"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import time

import numpy as np
import pytest
from scipy.integrate import simpson

from simba import tensor as T
from simba.bench import bench_scan, rows_to_csv
from simba.config import preset_toy
from simba.data import synth_generate
from simba.gradcheck import BLOCK_TOL, check_module, run_suites
from simba.model import PartitionGate, SimbaModule
from simba.nn import trace_shapes
from simba.ssm import lti_conv, lti_kernel, selective_scan_parallel, selective_scan_sequential, \
    zoh_discretize
from simba.tensor import Tensor
from simba.train import build_model, fuse_scores, train


def _report(criterion: str, detail: str):
    print(f"\nACCEPTANCE PASS  {criterion}: {detail}")


def test_criterion_1_zoh_oracle():
    tic = time.perf_counter()
    a_bar, b_bar = zoh_discretize(np.full((1, 1), -1.0), np.ones((1, 1, 1)),
                                  np.full((1, 1, 1), np.log(2.0)))
    assert abs(a_bar.ravel()[0] - 0.5) <= 1e-12
    assert abs(b_bar.ravel()[0] - 0.5) <= 1e-12

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        a_val = -np.exp(rng.uniform(-2.0, 1.0))
        d_val = np.exp(rng.uniform(-4.0, 0.0))
        b_val = rng.normal()
        s = np.linspace(0.0, d_val, 10_001)
        ref = simpson(np.exp(s * a_val) * b_val, x=s)
        _, bb = zoh_discretize(np.full((1, 1), a_val), np.full((1, 1, 1), b_val),
                               np.full((1, 1, 1), d_val))
        worst = max(worst, abs(bb.ravel()[0] - ref))
    wall = time.perf_counter() - tic
    assert worst <= 1e-8
    assert wall < 1.0
    _report("criterion-1 zoh-oracle",
            f"scalar case exact, quadrature worst {worst:.2e} <= 1e-8, {wall:.2f}s")


def test_criterion_2_scan_equivalences():
    tic = time.perf_counter()
    rng = np.random.default_rng(7)
    t_len = 64
    worst_scan = 0.0
    for _ in range(5):
        args = (Tensor(0.05 + rng.random((2, t_len, 3))),
                Tensor(-(0.2 + rng.random((3, 4)))),
                Tensor(rng.normal(size=(2, t_len, 4))),
                Tensor(rng.normal(size=(2, t_len, 4))),
                Tensor(rng.normal(size=(2, t_len, 3))))
        ref = selective_scan_sequential(*args).data
        for chunk in (1, 3, 16, t_len):
            par = selective_scan_parallel(*args, chunk).data
            worst_scan = max(worst_scan, float(np.max(np.abs(par - ref))))
    assert worst_scan <= 1e-12

    worst_lti = 0.0
    m = 32
    for seed in range(50):
        srng = np.random.default_rng(3000 + seed)
        w = 3
        a = -np.exp(srng.uniform(-1.0, 1.0, size=w))
        b = srng.normal(size=w)
        c = srng.normal(size=w)
        delta = float(np.exp(srng.uniform(-3.0, 0.0)))
        y = srng.normal(size=m)
        conv_out = lti_conv(y, lti_kernel(a, b, c, delta, m))
        scan_out = selective_scan_sequential(
            Tensor(np.full((1, m, 1), delta)), Tensor(a.reshape(1, w)),
            Tensor(np.broadcast_to(b, (1, m, w)).copy()),
            Tensor(np.broadcast_to(c, (1, m, w)).copy()),
            Tensor(y.reshape(1, m, 1))).data.ravel()
        worst_lti = max(worst_lti, float(np.max(np.abs(conv_out - scan_out))))
    wall = time.perf_counter() - tic
    assert worst_lti <= 1e-10
    assert wall < 10.0
    _report("criterion-2 scan-equivalences",
            f"parallel-vs-sequential {worst_scan:.2e} <= 1e-12, "
            f"lti-kernel {worst_lti:.2e} <= 1e-10, {wall:.1f}s")


def test_criterion_3_gradient_suite():
    tic = time.perf_counter()
    results = run_suites()
    failures = [(s, c, e) for s, c, e, tol in results if e > tol]
    wall = time.perf_counter() - tic
    assert not failures, failures
    assert all(e <= 1e-5 for _, _, e, _ in results)
    assert wall < 300.0
    worst = max(e for _, _, e, _ in results)
    _report("criterion-3 gradient-suite",
            f"{len(results)} checks, worst rel err {worst:.2e} <= 1e-5, {wall:.1f}s")


def test_criterion_4_shape_contract():
    tic = time.perf_counter()
    with T.no_grad():
        ntu = SimbaModule(3, 216, 20, 25, 16, np.random.default_rng(0), scan_chunk=16)
        ntu.eval()
        trace = trace_shapes(ntu, Tensor(np.random.default_rng(1).normal(size=(2, 3, 64, 25))))
        # each decoder stage's skip sum is the next block's input
        stages = {
            "input": trace[""][0], "entry": trace["entry"][1],
            "enc1": trace["enc.0"][1], "enc2": trace["enc.1"][1], "enc3": trace["enc.2"][1],
            "flatten": trace["imamba"][0], "imamba": trace["imamba"][1],
            "unflatten": trace["dec.0"][0],
            "dec1": trace["dec.1"][0], "dec2": trace["dec.2"][0], "dec3": trace["tcn"][0],
            "output": trace[""][1],
        }
        expected = {
            "input": (2, 3, 64, 25), "entry": (2, 216, 64, 25),
            "enc1": (2, 108, 64, 25), "enc2": (2, 54, 64, 25), "enc3": (2, 20, 64, 25),
            "flatten": (2, 64, 500), "imamba": (2, 64, 500), "unflatten": (2, 20, 64, 25),
            "dec1": (2, 54, 64, 25), "dec2": (2, 108, 64, 25), "dec3": (2, 216, 64, 25),
            "output": (2, 216, 64, 25),
        }
        assert stages == expected, stages

        # modules after the first map C -> C at the same ladder
        chained = SimbaModule(216, 216, 20, 25, 16, np.random.default_rng(3), scan_chunk=16)
        chained.eval()
        out2 = chained(Tensor(np.random.default_rng(4).normal(size=(2, 216, 64, 25))))
        assert out2.shape == (2, 216, 64, 25)

        ucla = SimbaModule(3, 216, 25, 20, 16, np.random.default_rng(0), scan_chunk=16)
        ucla.eval()
        utrace = trace_shapes(ucla, Tensor(np.random.default_rng(2).normal(size=(2, 3, 52, 20))))
        assert utrace["imamba"][0] == (2, 52, 500)
        assert utrace[""][1] == (2, 216, 52, 20)

        # the stacked 10-deep 10-class model ends in (N, 10) logits
        from simba.config import preset_ucla
        ds = synth_generate(10, 1, v=20, t_raw=60, noise=0.0, seed=0)
        model = build_model(preset_ucla(), ds)
        model.eval()
        mtrace = trace_shapes(
            model, Tensor(np.random.default_rng(5).normal(size=(2, 3, 52, 20)).astype(np.float32)))
        assert [mtrace[f"modules_.{i}"][1] for i in range(10)] == [(2, 216, 52, 20)] * 10
        assert mtrace["head"] == ((2, 216), (2, 10))
        assert mtrace[""][1] == (2, 10)
    wall = time.perf_counter() - tic
    assert wall < 30.0
    _report("criterion-4 shape-contract",
            f"both presets trace the published ladder, 10 modules at (2, 216, 52, 20), "
            f"full-depth logits (2, 10), {wall:.1f}s")


def test_criterion_5_toy_overfit():
    tic = time.perf_counter()
    dataset = synth_generate(4, 40, v=8, t_raw=48, noise=0.05, seed=100)
    simba_wins = 0
    for seed in (1, 2, 3):
        final_loss = {}
        for with_imamba in (True, False):
            cfg = preset_toy()
            cfg.epochs = 40
            cfg.milestones = [28, 36]
            cfg.seed = seed
            cfg.with_imamba = with_imamba
            model = build_model(cfg, dataset)
            metrics, _ = train(model, dataset, dataset, cfg, verbose=False)
            best_acc = max(m["train_acc"] for m in metrics)
            assert best_acc >= 0.99, (seed, with_imamba, best_acc)
            final_loss[with_imamba] = metrics[-1]["train_loss"]
        simba_wins += final_loss[True] <= final_loss[False]
    wall = time.perf_counter() - tic
    assert simba_wins >= 2, f"scan-augmented model won only {simba_wins}/3 seeds"
    assert wall < 600.0
    _report("criterion-5 toy-overfit",
            f">=99% train acc for all 6 runs within 40 epochs, loss ordering {simba_wins}/3, {wall:.0f}s")


def test_criterion_6_fusion_oracle():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        streams = [rng.random((25, 6)) for _ in range(rng.integers(1, 5))]
        fused, preds = fuse_scores(streams)
        ref = np.zeros((25, 6))
        for s in streams:
            ref = ref + s
        worst = max(worst, float(np.max(np.abs(fused - ref))))
        np.testing.assert_array_equal(preds, ref.argmax(axis=1))
    assert worst <= 1e-12
    probs = rng.random((40, 5))
    _, single = fuse_scores([probs])
    _, tripled = fuse_scores([probs, probs, probs])
    np.testing.assert_array_equal(single, tripled)
    _report("criterion-6 fusion-oracle",
            f"sum-of-softmax reference match {worst:.2e} <= 1e-12, duplicate argmax preserved")


def test_criterion_7_partition_gating():
    rng = np.random.default_rng(60)
    labels = np.zeros((5, 2))
    labels[np.arange(5), [0, 0, 1, 1, 1]] = 1.0
    gate = PartitionGate(4, labels, rng)
    x = rng.normal(size=(2, 4, 3, 5))
    gate.gate.data[:] = 1.0
    np.testing.assert_array_equal(gate(Tensor(x)).data, x)

    ident = PartitionGate(4, np.eye(5), rng)
    ident.w.data[:] = np.eye(4)
    ident.b.data[:] = 0.0
    ident.gate.data[:] = rng.random((1, 4, 1, 1))
    np.testing.assert_array_equal(ident(Tensor(x)).data, x)

    fresh = PartitionGate(4, labels, np.random.default_rng(61))
    err = check_module(fresh, Tensor(rng.normal(size=(1, 4, 3, 5)), requires_grad=True),
                       np.random.default_rng(62))
    assert err <= BLOCK_TOL
    _report("criterion-7 partition-gating",
            f"passthrough cases exact, gradcheck {err:.2e} <= 1e-5")


def test_criterion_8_training_determinism(tmp_path):
    logs = []
    for run_id in range(2):
        cfg = preset_toy()
        cfg.epochs = 2
        cfg.milestones = [1]
        cfg.precision = "float64"
        cfg.seed = 9
        ds = synth_generate(3, 6, v=8, t_raw=20, noise=0.05, seed=9)
        model = build_model(cfg, ds)
        out = tmp_path / f"run{run_id}"
        train(model, ds, ds, cfg, out_dir=out, verbose=False)
        logs.append((out / "metrics.jsonl").read_bytes())
    assert logs[0] == logs[1]
    _report("criterion-8 determinism",
            f"double-precision metrics logs byte-identical ({len(logs[0])} bytes)")


def test_criterion_9_scan_benchmark_informational(tmp_path):
    import os
    rows = bench_scan(4096, 64, 16, chunks=[64], repeats=3)
    csv = rows_to_csv(rows)
    path = tmp_path / "bench.csv"
    path.write_text(csv)
    assert path.exists() and csv.startswith("strategy,T,Dp,W,chunk,wall_ms")
    seq_ms = rows[0][5]
    par_ms = rows[1][5]
    ratio = par_ms / seq_ms
    threads = os.cpu_count() or 1
    # informational, non-blocking: report the ratio either way; the 0.6
    # target presumes >= 4 hardware threads
    _report("criterion-9 scan-benchmark",
            f"sequential {seq_ms:.1f}ms, parallel {par_ms:.1f}ms, ratio {ratio:.2f} "
            f"on {threads} hardware thread(s) (target <= 0.6 at >= 4 threads)")
    if ratio > 0.6:
        pytest.xfail(f"informational target missed: ratio {ratio:.2f} on {threads} thread(s)")
