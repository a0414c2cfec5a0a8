"""Built-in invariant suites behind `wsgat verify`.

Three suites:
    gradcheck - analytic vs central-difference gradients for every
                differentiable op and for full models on small random graphs.
    oracle    - dense-reference equivalence and attention invariants.
    metrics   - brute-force reference comparisons for roc_auc/f1/mae.

Each suite returns a list of (module, property, observed) failure triples;
empty means pass.

Apart from the suites, ``python -m wsgat.verify parity`` trains the parity
grid and prints one digest per case and one overall digest: two trees give
the same digests on one machine exactly when they train to the same bits.
The digests depend on the numpy and BLAS build, so they are compared between
trees, never against stored values.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import autodiff as ad, checkpoint, pipelines
from .autodiff import Tensor, Tape
from .graph import SignedWeightedGraph
from .layer import WsGatLayer, WsGatStack
from .metrics import roc_auc, f1_score, mean_absolute_error
from .pipelines import TaskModel, TrainConfig, cross_entropy, bce_with_logits, mse
from .spectral import signed_spectral_embedding, _signed_adjacency

FD_H = 1e-5
FD_RTOL = 1e-4


def random_graph(rng, n, p=0.35):
    """Random directed graph, each weight in [0.1, 1) and positive with
    probability 0.6; guaranteed >= 1 edge."""
    while True:
        src, dst, w = [], [], []
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < p:
                    src.append(i)
                    dst.append(j)
                    w.append(rng.uniform(0.1, 1.0) * (1 if rng.random() < 0.6 else -1))
        if src:
            return SignedWeightedGraph.from_edges(n, src, dst, w)


def fd_gradcheck(make_loss, params):
    """Compare backward() gradients against central differences of step FD_H.

    make_loss() must rebuild the scalar loss from the *current* parameter
    values. Returns the max relative error seen.
    """
    loss = make_loss()
    for p in params:
        p.grad = None
    ad.backward(loss)
    analytic = [np.array(p.grad if p.grad is not None else np.zeros_like(p.values))
                for p in params]
    max_err = 0.0
    for p, g in zip(params, analytic):
        flat = p.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_H
            f_plus = float(make_loss().values)
            flat[i] = orig - FD_H
            f_minus = float(make_loss().values)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * FD_H)
            err = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
            max_err = max(max_err, err)
    return max_err


def dense_layer_reference(layer, H, g):
    """Plain-numpy per-node recomputation of one wsGAT layer (no autodiff)."""
    n = g.num_nodes
    outs = []
    for k in range(layer.heads):
        mlp = layer.att[k]
        Z = H @ layer.w_out[k].values if layer.projection else H
        out = np.zeros((n, Z.shape[1]))
        for i in range(n):
            srcs, ws = g.in_edges(i)
            srcs = list(srcs) + [i]
            ws = list(ws) + [layer.self_loop_weight]
            logits = []
            for j, w in zip(srcs, ws):
                x = np.concatenate([H[i], H[j], [w]])
                for li, (wm, bm) in enumerate(zip(mlp.weights, mlp.biases)):
                    x = x @ wm.values + bm.values
                    if li == len(mlp.weights) - 1:
                        x = np.tanh(x)
                    else:
                        x = np.where(x >= 0, x, 0.2 * x)
                logits.append(float(x[0]))
            logits = np.array(logits)
            m = np.abs(logits)
            p = np.exp(m - m.max())
            p /= p.sum()
            alpha = np.sign(logits) * p
            for a, j in zip(alpha, srcs):
                out[i] += a * Z[j]
        outs.append(out)
    merged = np.hstack(outs) if layer.head_merge == "concat" else np.mean(outs, axis=0)
    return merged if layer.act is None else getattr(ad, layer.act)(merged).values


def dense_mlp_reference(mlp, X):
    """``mlp`` over a built input matrix X, such as ``pair_features``, through
    matmul and add: the reference of ``Mlp``'s split first layer. Its
    activation names are autodiff op names."""
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.acts):
        X = ad.add(ad.matmul(X, w), b)
        if act is not None:
            X = getattr(ad, act)(X)
    return X


def scatter_add_oracle(values, idx, n):
    """np.add.at reference for the row scatters: values[k] summed into row idx[k] of n."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, np.asarray(idx, dtype=np.int64), values)
    return out


def auc_pairwise_oracle(scores, labels):
    """Brute-force ROC AUC over all (pos, neg) pairs with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def f1_oracle(pred, labels):
    """Binary F1 from counted true positives, false positives and false negatives."""
    tp = sum(1 for p, y in zip(pred, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(pred, labels) if p == 1 and y == 0)
    fn = sum(1 for p, y in zip(pred, labels) if p == 0 and y == 1)
    return 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)


def mae_oracle(a, b):
    """Mean absolute error as a plain Python sum."""
    return sum(abs(x - y) for x, y in zip(a, b)) / len(a)


def _gradcheck_ops():
    """Per-op gradient checks on random small tensors."""
    failures = []
    rng = np.random.default_rng(7)

    def check(name, make_loss, params):
        err = fd_gradcheck(make_loss, params)
        if err >= FD_RTOL:
            failures.append(("autodiff", f"gradcheck:{name}", err))

    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    check("matmul", lambda: ad.sum_(ad.matmul(a, b)), [a, b])
    c = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    check("add", lambda: ad.sum_(ad.mul(ad.add(a, c), ad.sub(a, c))), [a, c])
    # each elementwise op under a tanh, so the gradient reaching it is not all
    # ones and a backward that drops its g factor fails
    check("tanh", lambda: ad.sum_(ad.tanh(ad.tanh(a))), [a])
    check("sigmoid", lambda: ad.sum_(ad.tanh(ad.sigmoid(a))), [a])
    check("elu", lambda: ad.sum_(ad.tanh(ad.elu(a))), [a])
    check("leaky_relu", lambda: ad.sum_(ad.tanh(ad.leaky_relu(a))), [a])
    d = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
    check("log", lambda: ad.sum_(ad.tanh(ad.log(d))), [d])
    check("exp", lambda: ad.sum_(ad.tanh(ad.exp(a))), [a])
    check("abs", lambda: ad.sum_(ad.tanh(ad.abs_(a))), [a])
    check("concat", lambda: ad.sum_(ad.tanh(ad.concat([a, c], axis=1))), [a, c])
    check("mean", lambda: ad.mean_(ad.mul(a, a)), [a])
    idx = np.array([0, 2, 2, 1])
    check("take_rows", lambda: ad.sum_(ad.tanh(ad.take_rows(a, idx))), [a])
    s = Tensor(rng.standard_normal(3) + 2.0, requires_grad=True)
    check("scale_rows", lambda: ad.sum_(ad.tanh(ad.scale_rows(a, s))), [a, s])
    seg = np.array([0, 1, 0])
    check("segment_sum", lambda: ad.sum_(ad.tanh(ad.segment_sum(a, seg, 2))), [a])
    e = Tensor(rng.uniform(0.2, 1.5, 6) * rng.choice([-1, 1], 6), requires_grad=True)
    segs = np.array([0, 0, 1, 1, 1, 2])
    w = Tensor(rng.standard_normal(6), requires_grad=False)
    check("segment_signed_softmax",
          lambda: ad.sum_(ad.mul(ad.segment_signed_softmax(e, segs, 3), w.values)), [e])
    logits3 = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    labels3 = rng.integers(0, 3, 5)
    check("cross_entropy", lambda: cross_entropy(logits3, labels3), [logits3])
    z = Tensor(rng.standard_normal((8, 1)), requires_grad=True)
    y = rng.integers(0, 2, 8).astype(float)
    check("bce_with_logits", lambda: bce_with_logits(z, y), [z])
    bias = Tensor(rng.standard_normal(2), requires_grad=True)
    check("linear", lambda: ad.sum_(ad.tanh(ad.linear(a, b, bias))), [a, b, bias])
    check("linear+tanh", lambda: ad.sum_(ad.tanh(ad.linear(a, b, bias, act="tanh"))),
          [a, b, bias])
    f = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    extra = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    w_extra = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    check("gather_sum", lambda: ad.sum_(ad.tanh(
        ad.gather_sum(a, idx, f, [1, 1, 0, 1], extra, w_extra))), [a, f, extra, w_extra])
    check("gather_sum+leaky_relu", lambda: ad.sum_(ad.tanh(ad.gather_sum(
        a, idx, f, [1, 1, 0, 1], extra, w_extra, act="leaky_relu"))), [a, f, extra, w_extra])
    check("concat+elu", lambda: ad.sum_(ad.tanh(ad.concat([a, c], axis=1, act="elu"))), [a, c])
    check("mul+elu", lambda: ad.sum_(ad.tanh(ad.mul(a, c, act="elu"))), [a, c])
    alpha = Tensor(rng.standard_normal(4), requires_grad=True)
    check("propagate", lambda: ad.sum_(ad.tanh(ad.propagate(a, alpha, idx, [1, 0, 1, 1], 2))),
          [a, alpha])
    y = Tensor(rng.standard_normal((3, 2)))  # needs no gradient; b and bias are closed over
    check("recompute", lambda: ad.sum_(ad.tanh(ad.recompute(
        lambda x, y: ad.mul(ad.linear(x, b, bias, "tanh"), y), a, y))), [a, b, bias])
    # an attention scorer over 14 edges of 5 nodes in chunks of 4: the node
    # rows, then the pair stage slice by slice, through one chunked node
    scorer = WsGatLayer(Tape(seed=1), "s", 4, 3, TrainConfig(attention_hidden=3)).att[0]
    for p in scorer.biases:  # biases start at zero, which would hide where they are added
        p.values = rng.standard_normal(p.shape)
    h = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    first, second = rng.integers(0, 5, 14), rng.integers(0, 5, 14)
    edge_w = rng.uniform(-1.0, 1.0, (14, 1))

    def scorer_pairs(part, *rows):
        return scorer.over_pairs(rows, first[part], second[part], Tensor(edge_w[part]))

    chunk_rows = ad._CHUNK_ROWS
    try:
        ad._CHUNK_ROWS = 4
        check("chunked", lambda: ad.sum_(ad.tanh(ad.chunked(scorer.rows, scorer_pairs, 14, h))),
              [h] + scorer.weights + scorer.biases)
    finally:
        ad._CHUNK_ROWS = chunk_rows
    b2 = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    w_chunk = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

    def relay_loss():
        # a chunked pair loss in miniature: two chunks of pairs swept on leaf
        # copies of the rows, then relay as the root. Only a, b, bias and b2
        # are checked: fd_gradcheck zeroes the grads the chunk sweeps gave w_chunk
        rows = (ad.linear(a, b, bias, "tanh"), ad.linear(a, b2, bias))
        leaves = ad._leaf_copies(rows)
        total = 0.0
        for first, second in (([0, 2], [1, 1]), ([2, 1, 0], [0, 2, 2])):
            chunk = ad.sum_(ad.tanh(ad.matmul(
                ad.tanh(ad.gather_sum(leaves[0], first, leaves[1], second)), w_chunk)))
            ad.backward(chunk)
            total += float(chunk.values)
        return ad.relay(total, rows, leaves)

    check("relay", relay_loss, [a, b, bias, b2])
    return failures


def _gradcheck_models():
    """Full-model gradient checks on 8-node graphs."""
    failures = []
    for trial in range(3):
        g = random_graph(np.random.default_rng(100 + trial), 8)
        cfg = TrainConfig(layers=2, hidden=5, embed=4, heads=2, attention_hidden=6,
                          head_hidden=8, features="random_normal", feature_dim=4,
                          seed=trial)
        model = TaskModel("signed-weight", g, cfg)

        def model_loss():
            emb = model.embeddings()
            exist, weight = model.exist_head, model.weight_head
            ex = bce_with_logits(exist(exist.rows(emb), g.src, g.dst), np.ones(g.num_edges))
            return ad.add(ex, mse(weight(weight.rows(emb), g.src, g.dst), g.weight))

        # resample if any attention logit is near the signed-softmax kink
        near_zero = False
        H = model.X
        for layer in model.stack.layers:
            for k in range(layer.heads):
                lv = layer.attention_logits(k, H, g).values
                if np.any(np.abs(lv) < 1e-6):
                    near_zero = True
            H = layer.forward(H, g)
        if near_zero:
            continue
        err = fd_gradcheck(model_loss, model.tape.params.values())
        if err >= FD_RTOL:
            failures.append(("wsgat", f"gradcheck:full_model_{trial}", err))
    return failures


def _suite_oracle():
    failures = []
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(3, 11))
        g = random_graph(rng, n)
        tape = Tape(seed=trial)
        layer = WsGatLayer(tape, "l", 4, 3,
                           TrainConfig(heads=int(rng.integers(1, 3)), attention_hidden=5))
        H = rng.standard_normal((n, 4))
        sparse = layer.forward(Tensor(H), g).values
        dense = dense_layer_reference(layer, H, g)
        diff = np.max(np.abs(sparse - dense))
        if diff > 1e-10:
            failures.append(("wsgat", "layer_dense_equivalence", diff))

        logits = layer.attention_logits(0, Tensor(H), g)
        alpha = layer.attention_coefficients(0, logits, g).values
        _, dst, _ = layer.edge_arrays(g)
        sums = np.zeros(n)
        np.add.at(sums, dst, np.abs(alpha))
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            failures.append(("wsgat", "attention_l1_normalization", np.max(np.abs(sums - 1.0))))
        if np.any(np.abs(alpha) > 1.0 + 1e-12):
            failures.append(("wsgat", "attention_range", float(np.max(np.abs(alpha)))))

        neg = ad.segment_signed_softmax(Tensor(-logits.values[:, 0]), dst, n).values
        if np.max(np.abs(neg + alpha)) > 0:
            failures.append(("wsgat", "logit_negation_flips_alpha", float(np.max(np.abs(neg + alpha)))))

    # a two-head layer whose scorers, softmax gradients and activations run
    # over many chunks of 7 rows: its output against the dense reference at
    # 1e-10, every gradient against the one-chunk layer's at 1e-10 relative
    # and against central differences of the dense reference
    g = random_graph(np.random.default_rng(12), 8)
    tape = Tape(seed=12)
    layer = WsGatLayer(tape, "l", 3, 2, TrainConfig(heads=2, attention_hidden=4))
    for p in tape.params.values():
        p.values = p.values + 0.3 * np.random.default_rng(13).standard_normal(p.shape)
    H = Tensor(np.random.default_rng(14).standard_normal((8, 3)), requires_grad=True)
    tensors = [H] + list(tape.params.values())
    seed = np.random.default_rng(15).standard_normal((8, 4))

    def layer_grads():
        out = layer.forward(H, g)
        values = out.values.copy()
        ad.backward(ad.sum_(ad.mul(out, seed)))
        grads = [t.grad for t in tensors]
        for t in tensors:
            t.grad = None
        return values, grads

    _, one_chunk = layer_grads()
    chunk_rows = ad._CHUNK_ROWS
    try:
        ad._CHUNK_ROWS = 7
        values, grads = layer_grads()
        diff = np.max(np.abs(values - dense_layer_reference(layer, H.values, g)))
        if diff > 1e-10:
            failures.append(("wsgat", "chunked_layer_dense_equivalence", float(diff)))
        diff = max(np.max(np.abs(x - y)) / max(np.max(np.abs(y)), 1e-300)
                   for x, y in zip(grads, one_chunk))
        if diff > 1e-10:
            failures.append(("wsgat", "chunked_layer_gradients", float(diff)))
        worst = 0.0
        for t, grad in zip(tensors, grads):
            flat, grad = t.values.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig, diffs = flat[i], []
                for step in (FD_H, -FD_H):
                    flat[i] = orig + step
                    diffs.append(np.sum(dense_layer_reference(layer, H.values, g) * seed))
                flat[i] = orig
                fd = (diffs[0] - diffs[1]) / (2 * FD_H)
                worst = max(worst, abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6))
        if worst >= FD_RTOL:
            failures.append(("wsgat", "chunked_layer_dense_gradients", worst))
    finally:
        ad._CHUNK_ROWS = chunk_rows

    # stack dense equivalence
    g = random_graph(np.random.default_rng(3), 7)
    tape = Tape(seed=5)
    stack = WsGatStack(tape, 4, TrainConfig(hidden=3, embed=3, heads=2))
    H = np.random.default_rng(6).standard_normal((7, 4))
    got = stack.forward(Tensor(H), g).values
    ref = H
    for layer in stack.layers:
        ref = dense_layer_reference(layer, ref, g)
    if np.max(np.abs(got - ref)) > 1e-10:
        failures.append(("wsgat", "stack_dense_equivalence", float(np.max(np.abs(got - ref)))))

    # permutation equivariance
    rng = np.random.default_rng(21)
    g = random_graph(rng, 6)
    tape = Tape(seed=9)
    layer = WsGatLayer(tape, "l", 3, 3, TrainConfig())
    H = rng.standard_normal((6, 3))
    perm = rng.permutation(6)
    inv = np.argsort(perm)
    g_perm = SignedWeightedGraph.from_edges(6, perm[g.src], perm[g.dst], g.weight)
    out = layer.forward(Tensor(H), g).values
    out_perm = layer.forward(Tensor(H[inv]), g_perm).values
    if np.max(np.abs(out_perm[perm] - out)) > 0:
        failures.append(("wsgat", "permutation_equivariance",
                         float(np.max(np.abs(out_perm[perm] - out)))))

    # sign sensitivity on a 2-node graph
    for trial in range(5):
        gp = SignedWeightedGraph.from_edges(2, [0], [1], [0.8])
        gm = SignedWeightedGraph.from_edges(2, [0], [1], [-0.8])
        tape = Tape(seed=40 + trial)
        layer = WsGatLayer(tape, "l", 3, 3, TrainConfig())
        first = layer.att[0].weights[0].values
        if abs(first[-1]).max() < 1e-9:
            continue  # measure-zero init, resample
        H = Tensor(np.random.default_rng(40 + trial).standard_normal((2, 3)))
        lp = layer.attention_logits(0, H, gp).values[0, 0]
        lm = layer.attention_logits(0, H, gm).values[0, 0]
        if lp == lm:
            failures.append(("wsgat", "sign_sensitivity", 0.0))

    # spectral vs dense eigendecomposition
    g = random_graph(np.random.default_rng(33), 12)
    X, lam = signed_spectral_embedding(g, d=4, seed=1)
    S = _signed_adjacency(g).toarray()
    evals, vecs = np.linalg.eigh(S)
    order = np.argsort(-np.abs(evals))[:4]
    # subspace angle via projector difference
    ref = vecs[:, order]
    angle = np.linalg.norm(X @ X.T - ref @ ref.T, 2)
    if angle > 1e-6:
        failures.append(("spectral", "spectral_dense_equivalence", float(angle)))

    # segment_sum and the take_rows gradient give the np.add.at bits
    rng = np.random.default_rng(41)
    for trial in range(20):
        n, m = int(rng.integers(1, 8)), int(rng.integers(0, 30))
        idx = rng.integers(0, n, m)
        values = rng.standard_normal((m, 3))
        values[rng.random((m, 3)) < 0.2] = -0.0
        ref = scatter_add_oracle(values, idx, n).tobytes()
        a = Tensor(rng.standard_normal((n, 3)), requires_grad=True)
        # d/da sum(a[idx] * values) scatters values itself
        ad.backward(ad.sum_(ad.mul(ad.take_rows(a, idx), values)))
        if (ad.segment_sum(Tensor(values), idx, n).values.tobytes() != ref
                or a.grad.tobytes() != ref):
            failures.append(("autodiff", "scatter_add_bitwise", trial))
    return failures


def _suite_metrics():
    failures = []
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.standard_normal(n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        ref_auc = auc_pairwise_oracle(scores, labels)
        got = roc_auc(scores, labels)
        if got != ref_auc:
            failures.append(("metrics", "roc_auc_bruteforce", abs(got - ref_auc)))
            break
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        pred = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        ref = f1_oracle(pred, labels)
        got = f1_score(pred, labels)
        if got != ref:
            failures.append(("metrics", "f1_bruteforce", abs(got - ref)))
            break
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        ref = mae_oracle(a, b)
        if abs(mean_absolute_error(a, b) - ref) > 1e-15:
            failures.append(("metrics", "mae_bruteforce", abs(mean_absolute_error(a, b) - ref)))
            break
    # monotone-transform invariance and complement identity
    scores = rng.standard_normal(50)
    labels = rng.integers(0, 2, 50)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    if roc_auc(np.exp(scores), labels) != base or roc_auc(3 * scores + 1, labels) != base:
        failures.append(("metrics", "monotone_invariance", None))
    if roc_auc(scores, labels) + roc_auc(scores, 1 - labels) != 1.0:
        failures.append(("metrics", "complement_identity", None))
    return failures


SUITES = {"gradcheck": lambda: _gradcheck_ops() + _gradcheck_models(),
          "oracle": _suite_oracle, "metrics": _suite_metrics}


def case_digest(task, g, config):
    """sha256 of one training run: its report without wall_s, its train loss
    history in float hex, the sha256 of its parameters and the checkpoint
    bytes `wsgat train` would write for them."""
    model, report = pipelines.train(task, g, config)
    fields = json.loads(report.to_json_line())
    del fields["wall_s"]
    arrays = model.parameter_arrays()
    params = hashlib.sha256()
    for name in sorted(arrays):
        params.update(name.encode() + arrays[name].tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        checkpoint.save_arrays(path, arrays)
        with open(path, "rb") as f:
            ckpt = f.read()
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
    digest.update(" ".join(float(x).hex() for x in report.history).encode())
    digest.update(params.hexdigest().encode() + ckpt)
    return digest.hexdigest()


def parity_cases():
    """The 32 (name, task, graph, config) cases of the parity grid: with two
    heads, a 60-node and a 400-node / ~3,000-edge random graph x the three
    tasks x val_fraction 0.1 and 0 x (epochs, patience) (25, 25) and (60, 3),
    with the default GNN activation; then the 60-node graph's sign task at
    val_fraction 0.1 and (25, 25) with each of the standalone autodiff
    activations, tanh and leaky_relu, as the GNN activation; then, with one
    head, each graph and task at val_fraction 0.1 and (25, 25)."""
    graphs = {"g60": random_graph(np.random.default_rng(60), 60),
              "g400": random_graph(np.random.default_rng(400), 400, 3000 / (400 * 399))}
    return ([(f"{name}-{task}-val{val}-e{epochs}p{patience}", task, g,
              TrainConfig(heads=2, val_fraction=val, epochs=epochs, patience=patience))
             for name, g in graphs.items() for task in pipelines.TASKS for val in (0.1, 0.0)
             for epochs, patience in ((25, 25), (60, 3))]
            + [(f"g60-sign-val0.1-e25p25-{act}", "sign", graphs["g60"],
                TrainConfig(heads=2, epochs=25, patience=25, activation=act))
               for act in ("tanh", "leaky_relu")]
            + [(f"{name}-{task}-val0.1-e25p25-1head", task, g,
                TrainConfig(heads=1, epochs=25, patience=25))
               for name, g in graphs.items() for task in pipelines.TASKS])


def parity(cases):
    """Print the digest of every case at the default autodiff._CHUNK_ROWS and
    at 37, then the digest of them all, which is returned. The default scores
    each of these graphs' losses, and propagates over their edges, in one
    chunk; 37 splits both into many, so a change in how chunks add up shows
    there."""
    default, overall = ad._CHUNK_ROWS, hashlib.sha256()
    try:
        for rows in (default, 37):
            ad._CHUNK_ROWS = rows
            for name, task, g, config in cases:
                digest = case_digest(task, g, config)
                overall.update(digest.encode())
                print(f"chunk_rows={rows} {name} {digest[:16]}")
    finally:
        ad._CHUNK_ROWS = default
    print(f"overall {overall.hexdigest()[:16]}")
    return overall.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] != ["parity"]:
        print("usage: python -m wsgat.verify parity", file=sys.stderr)
        sys.exit(2)
    parity(parity_cases())
