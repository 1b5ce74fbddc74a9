import functools
import json
import math

import numpy as np
import pytest

from statutelab import inject
from statutelab import tensor as T
from statutelab.tensor import Tensor, grad_check
from statutelab.encoders import STACK_CAP, init_self_attention_layer, self_attention
from statutelab.inject import (
    TAGSET,
    BioeSample,
    InjectionConfig,
    Needle,
    SdoiMatrix,
    attention_weights_report,
    build_tre_model,
    count_parameters,
    dump_bioe,
    hydra_attach,
    hydra_pretrain,
    init_hydra_heads,
    load_bioe,
    load_hydra_heads,
    load_layer_stack,
    load_sdoi,
    load_tre_model,
    save_hydra_heads,
    save_layer_stack,
    save_tre_model,
    spans_from_tags,
    tag_stats,
    tre_evaluate,
    tre_forward,
    tre_logits,
    tre_needle_loss,
    tre_train,
    validate_bioe,
)
from statutelab.synth import bracket_grammar

# the gifts-revocation sentence annotated on three levels, as shipped fixture
GIFTS_BIOE_ROWS = [
    ("Gifts", "B-R", "B-E", "-"),
    ("not", "I-R", "-", "-"),
    ("in", "I-R", "-", "-"),
    ("writing", "E-R", "-", "-"),
    ("may", "-", "I-E", "-"),
    ("be", "-", "I-E", "-"),
    ("revoked", "-", "I-E", "-"),
    ("by", "-", "I-E", "-"),
    ("either", "-", "I-E", "-"),
    ("party", "-", "E-E", "-"),
    (";", "-", "-", "-"),
    ("provided", "-", "-", "B-U"),
    (",", "-", "-", "I-U"),
    ("however", "-", "-", "I-U"),
    (",", "-", "-", "I-U"),
    ("that", "-", "-", "I-U"),
    ("this", "-", "B-E", "I-U"),
    ("shall", "-", "I-E", "I-U"),
    ("not", "-", "I-E", "I-U"),
    ("apply", "-", "I-E", "I-U"),
    ("to", "-", "I-E", "I-U"),
    ("any", "-", "I-E", "I-U"),
    ("portion", "B-R", "I-E", "I-U"),
    ("of", "I-R", "I-E", "I-U"),
    ("the", "I-R", "I-E", "I-U"),
    ("gift", "I-R", "E-E", "I-U"),
    ("for", "I-R", "-", "I-U"),
    ("which", "I-R", "-", "I-U"),
    ("performance", "I-R", "-", "I-U"),
    ("has", "I-R", "-", "I-U"),
    ("been", "I-R", "-", "I-U"),
    ("completed", "E-R", "-", "E-U"),
    (".", "-", "-", "-"),
]


@pytest.fixture
def gifts_bioe_file(tmp_path):
    path = tmp_path / "gifts.bioe.tsv"
    path.write_text(
        "\n".join("\t".join(row) for row in GIFTS_BIOE_ROWS) + "\n", encoding="utf-8"
    )
    return path


def test_load_bioe_gifts_fixture(gifts_bioe_file):
    samples = load_bioe(gifts_bioe_file)
    assert len(samples) == 1
    sample = samples[0]
    assert sample.tokens[0] == "Gifts"
    # the first token contributes B-R, B-E, O across the three levels
    assert (sample.tags[0][0], sample.tags[1][0], sample.tags[2][0]) == ("B-R", "B-E", "O")
    assert sample.tags[2][11] == "B-U"


def test_bioe_roundtrip(gifts_bioe_file, tmp_path):
    samples = load_bioe(gifts_bioe_file)
    out = tmp_path / "again.tsv"
    dump_bioe(samples, out)
    assert load_bioe(out) == samples


def test_bioe_validation_rejects_bad_sequences():
    with pytest.raises(ValueError, match="unknown tag"):
        validate_bioe(BioeSample(["a"], [["B-X"], ["O"], ["O"]]))
    with pytest.raises(ValueError, match="without an open"):
        validate_bioe(BioeSample(["a", "b"], [["O", "E-R"], ["O", "O"], ["O", "O"]]))
    with pytest.raises(ValueError, match="inside an open"):
        validate_bioe(
            BioeSample(["a", "b"], [["B-R", "B-R"], ["O", "O"], ["O", "O"]])
        )


def test_tag_stats(gifts_bioe_file):
    samples = load_bioe(gifts_bioe_file)
    counts = tag_stats(samples)
    n_tokens = len(samples[0].tokens)
    assert sum(counts.values()) == 3 * n_tokens
    assert counts["B-R"] == 2 and counts["E-R"] == 2
    assert counts["B-U"] == 1 and counts["E-U"] == 1
    assert tag_stats([]) == {t: 0 for t in TAGSET}
    with pytest.raises(ValueError, match="B-X"):
        tag_stats([BioeSample(["a"], [["B-X"], ["O"], ["O"]])])


def test_load_sdoi_validation(tmp_path):
    path = tmp_path / "sdoi.jsonl"
    path.write_text(json.dumps({"tokens": ["a", "b"], "matrix": [[0, 1], [1, 0]]}) + "\n")
    samples = load_sdoi(path)
    assert samples[0].entries.shape == (2, 2)
    path.write_text(json.dumps({"tokens": ["a"], "matrix": [[0, 2]]}) + "\n")
    with pytest.raises(ValueError):
        load_sdoi(path)


def test_hydra_zero_heads_fit_zero_target_exactly():
    # with zero projections the score matrix is zero; an all-zero binary
    # target gives zero loss and zero gradients, so nothing moves
    heads = init_hydra_heads(8, 2, seed=0)
    for h in heads:
        h.w_q.data[...] = 0.0
        h.w_k.data[...] = 0.0
    hidden = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
    target = SdoiMatrix(list("abcd"), np.zeros((4, 4)))
    before = [h.w_q.data.copy() for h in heads]
    heads, trace = hydra_pretrain([hidden], [target], heads, epochs=3, lr=0.5)
    assert trace == [0.0, 0.0, 0.0]
    for h, b in zip(heads, before):
        assert np.array_equal(h.w_q.data, b)


def test_hydra_pretrain_reaches_attainable_target():
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    hidden = Tensor(q[:8] * 2.0)
    target = SdoiMatrix([f"t{i}" for i in range(8)], (rng.random((8, 8)) < 0.35).astype(float))
    heads = init_hydra_heads(16, 1, seed=7, scale=0.25)
    heads, trace = hydra_pretrain([hidden], [target], heads, epochs=400, lr=0.5)
    assert trace[-1] <= 1e-3


def test_hydra_pretrain_validates_shapes():
    heads = init_hydra_heads(8, 2, seed=0)
    hidden = Tensor(np.zeros((4, 8)))
    with pytest.raises(ValueError):
        hydra_pretrain([hidden], [], heads, epochs=1, lr=0.1)
    bad = SdoiMatrix(list("abc"), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        hydra_pretrain([hidden], [bad], heads, epochs=1, lr=0.1)


def test_hydra_attach_output_preserving_and_detach():
    rng = np.random.default_rng(1)
    body = [init_self_attention_layer(8, 2, rng) for _ in range(2)]
    heads = init_hydra_heads(8, 2, seed=5)
    model = hydra_attach(body, heads)
    assert len(model) == 3
    x = Tensor(rng.normal(size=(5, 8)))

    def forward(layers, inp):
        h = inp
        for layer in layers:
            h = self_attention(h, layer)
        return h.data

    assert np.array_equal(forward(model, x), forward(body, x))


def test_hydra_attach_parameter_count():
    body = [init_self_attention_layer(8, 2, np.random.default_rng(0))]
    heads = init_hydra_heads(8, 2, seed=1)
    model = hydra_attach(body, heads)
    d, dh, n = 8, 4, 2
    added = count_parameters(model) - count_parameters(body)
    assert added == 2 * d * dh * n + 2 * d * d  # q/k heads plus value and output
    # cross-check against the serialized size: four d x d tensors, each a
    # length-prefixed blob of magic + ndim + dims + doubles
    from statutelab.store import bundle_bytes

    def stack_bytes(layers):
        return bundle_bytes("layer_stack", {}, [
            t for l in layers for t in (l.w_q, l.w_k, l.w_v, l.w_o)
        ])

    per_tensor = 8 + (5 + 8 + 2 * 8 + d * d * 8)
    assert len(stack_bytes(model)) - len(stack_bytes(body)) == 4 * per_tensor


def test_hydra_attach_shape_mismatch():
    body = [init_self_attention_layer(6, 2, np.random.default_rng(0))]
    heads = init_hydra_heads(8, 2, seed=1)
    with pytest.raises(ValueError):
        hydra_attach(body, heads)


def test_hydra_checkpoint_roundtrip(tmp_path):
    heads = init_hydra_heads(8, 2, seed=3)
    path = tmp_path / "heads.slrk"
    save_hydra_heads(heads, path)
    back = load_hydra_heads(path)
    assert len(back) == 2
    for a, b in zip(heads, back):
        assert np.array_equal(a.w_q.data, b.w_q.data)
        assert np.array_equal(a.w_k.data, b.w_k.data)


def test_layer_stack_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    body = [init_self_attention_layer(8, 2, rng) for _ in range(2)]
    path = tmp_path / "body.slrk"
    save_layer_stack(body, path)
    back = load_layer_stack(path)
    x = Tensor(rng.normal(size=(3, 8)))
    h1, h2 = x, x
    for l1, l2 in zip(body, back):
        h1 = self_attention(h1, l1)
        h2 = self_attention(h2, l2)
    assert np.array_equal(h1.data, h2.data)


def test_needle_loss_values_and_gradient():
    d, t = 6, len(TAGSET)
    rng = np.random.default_rng(0)
    z = Tensor(rng.normal(size=(4, d)))
    tags = ["B-R", "I-R", "E-R", "O"]
    # zero logits: uniform distribution, loss = ln(T)
    loss = tre_needle_loss(z, tags, Tensor(np.zeros((d, t))), Tensor(np.zeros(t)))
    assert abs(float(loss.data) - math.log(t)) < 1e-12
    # logits massively favoring gold: loss ~ 0
    w_good = np.zeros((d, t))
    for i, tag in enumerate(tags):
        w_good[i, TAGSET.index(tag)] = 200.0
    loss_good = tre_needle_loss(Tensor(np.eye(4, d)), tags, Tensor(w_good), Tensor(np.zeros(t)))
    assert float(loss_good.data) < 1e-6
    # gradients match finite differences for both the needle and its input
    probe_w = rng.normal(size=(d, t))

    def f(wt):
        return tre_needle_loss(z, tags, wt, Tensor(np.zeros(t)))

    assert grad_check(f, Tensor(probe_w)) < 1e-4

    def g(zt):
        return tre_needle_loss(zt, tags, Tensor(probe_w), Tensor(np.zeros(t)))

    assert grad_check(g, Tensor(z.data.copy())) < 1e-4


def test_needle_loss_validates():
    z = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        tre_needle_loss(z, ["O"], Tensor(np.zeros((4, len(TAGSET)))), Tensor(np.zeros(len(TAGSET))))
    with pytest.raises(ValueError):
        tre_needle_loss(z, ["O", "BAD"], Tensor(np.zeros((4, len(TAGSET)))), Tensor(np.zeros(len(TAGSET))))
    with pytest.raises(ValueError):
        tre_needle_loss(z, ["O", "O"], Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))


def test_injection_config_validation():
    InjectionConfig([2, 3, 4], [0.2, 0.3, 0.5]).validate(4)
    with pytest.raises(ValueError):
        InjectionConfig([3, 2], [0.5, 0.5]).validate(4)
    with pytest.raises(ValueError):
        InjectionConfig([1, 5], [0.5, 0.5]).validate(4)
    with pytest.raises(ValueError):
        InjectionConfig([1, 2], [0.7, 0.7]).validate(4)
    with pytest.raises(ValueError):
        InjectionConfig([1, 1, 1], [0.4, 0.3, 0.3]).validate(4)


def test_tre_train_single_position_and_linearity():
    data = bracket_grammar(40, seed=2)
    vocab = sorted({t for s in data for t in s.tokens})
    model = build_tre_model(vocab, d=8, n_layers=2, n_heads=2, seed=0, max_len=24)
    config = InjectionConfig([2], [1.0])
    result = tre_train(model, config, data, epochs=1, lr=0.05, seed=0)
    for total, raw in result.step_losses:
        # all three level needles sit at the same position with portion 1,
        # so the total equals the plain sum of the per-needle losses
        assert abs(total - sum(raw)) < 1e-9


def test_tre_train_portion_weighted_sum():
    data = bracket_grammar(30, seed=3)
    vocab = sorted({t for s in data for t in s.tokens})
    model = build_tre_model(vocab, d=8, n_layers=3, n_heads=2, seed=1, max_len=24)
    portions = [0.5, 0.3, 0.2]
    config = InjectionConfig([1, 2, 3], portions)
    result = tre_train(model, config, data, epochs=1, lr=0.05, seed=1)
    for total, raw in result.step_losses:
        expect = sum(p * r for p, r in zip(portions, raw))
        assert abs(total - expect) < 1e-9


def test_tre_train_learns_bracket_grammar():
    data = bracket_grammar(320, seed=5)
    train, val = data[:280], data[280:]
    vocab = sorted({t for s in data for t in s.tokens})
    model = build_tre_model(vocab, d=16, n_layers=4, n_heads=2, seed=3, max_len=24)
    config = InjectionConfig([2, 3, 4], [1 / 3, 1 / 3, 1 / 3])
    result = tre_train(model, config, train, epochs=2, lr=0.1, seed=3)
    metrics = tre_evaluate(result.model, result.needles, config, val)
    assert metrics["token_accuracy"] >= 0.9


def test_spans_from_tags():
    tags = ["B-R", "I-R", "E-R", "O", "B-U", "E-U"]
    assert spans_from_tags(tags) == {("R", 0, 2), ("U", 4, 5)}
    assert spans_from_tags(["O", "O"]) == set()


def test_attention_report_rows_stochastic_and_single_token(tmp_path):
    data = bracket_grammar(5, seed=7)
    vocab = sorted({t for s in data for t in s.tokens})
    model = build_tre_model(vocab, d=8, n_layers=2, n_heads=2, seed=2, max_len=24)
    report = attention_weights_report(model, data[0].tokens)
    assert len(report) == 2
    for layer in report:
        for head in layer:
            assert np.allclose(head.sum(axis=1), 1.0, atol=1e-12)
    single = attention_weights_report(model, [vocab[0]])
    assert np.array_equal(single[0][0], [[1.0]])
    # matrices recomputed from serialized weights must match
    path = tmp_path / "model.slrk"
    save_tre_model(model, path)
    back = load_tre_model(path)
    report2 = attention_weights_report(back, data[0].tokens)
    for l1, l2 in zip(report, report2):
        for h1, h2 in zip(l1, l2):
            assert np.array_equal(h1, h2)


def test_tre_checkpoint_excludes_needles(tmp_path):
    data = bracket_grammar(10, seed=9)
    vocab = sorted({t for s in data for t in s.tokens})
    model = build_tre_model(vocab, d=8, n_layers=2, n_heads=2, seed=0, max_len=24)
    config = InjectionConfig([1, 2], [0.5, 0.5])
    result = tre_train(model, config, data, epochs=1, lr=0.05, seed=0)
    path = tmp_path / "tre.slrk"
    save_tre_model(result.model, path)
    back = load_tre_model(path)
    states_a = tre_forward(result.model, data[0].tokens)
    states_b = tre_forward(back, data[0].tokens)
    for a, b in zip(states_a, states_b):
        assert np.array_equal(a.data, b.data)
    # needle weights are nowhere in the checkpoint
    blob = path.read_bytes()
    needle_bytes = result.needles[0].w.data.tobytes()
    assert needle_bytes not in blob


# ---------------------------------------------------------------------------
# tre_evaluate: same-row-count stacks, values only, the per-sample tape bits

EVAL_WORDS = [f"w{i}" for i in range(12)]
EVAL_MAX_LEN = 24  # the positional table's length


def _eval_model(seed=0):
    return build_tre_model(EVAL_WORDS, 16, 4, 2, seed=seed, max_len=EVAL_MAX_LEN)


def _eval_needles(seed):
    rng = np.random.default_rng(seed)
    return [Needle(Tensor(rng.normal(size=(16, len(TAGSET)))), Tensor(rng.normal(size=len(TAGSET)))) for _ in range(3)]


def _eval_samples(seed, oov=False):
    """Samples of every length 1..EVAL_MAX_LEN in shuffled order and more than
    STACK_CAP of length 5, tagged at random; with `oov` some tokens are out of
    vocabulary."""
    rng = np.random.default_rng(seed)
    pool = EVAL_WORDS + ["oov1", "oov2", "oov3"] if oov else EVAL_WORDS
    lengths = list(range(1, EVAL_MAX_LEN + 1)) * 2 + [5] * (2 * STACK_CAP + 3)
    samples = []
    for m in lengths:
        tokens = [str(t) for t in rng.choice(pool, size=m)]
        tags = [[str(t) for t in rng.choice(TAGSET, size=m)] for _ in range(3)]
        samples.append(BioeSample(tokens, tags))
    return [samples[i] for i in rng.permutation(len(samples))]


def _tape_logits(model, needles, config, sample):
    """The per-sample tape path: tre_forward's states, then @ w + b per level."""
    states = tre_forward(model, sample.tokens)
    return [states[pos - 1].data @ n.w.data + n.b.data for n, (pos, _) in zip(needles, inject._needle_assignment(config))]


@pytest.mark.parametrize("oov", [False, True])
@pytest.mark.parametrize("positions", [[2, 3, 4], [1, 3]])
def test_stacked_tre_evaluate_has_the_per_sample_tape_bits(oov, positions, monkeypatch):
    model, needles = _eval_model(), _eval_needles(len(positions))
    config = InjectionConfig(positions, [1.0 / len(positions)] * len(positions))
    data = _eval_samples(3 if oov else 4, oov)
    got = tre_logits(model, needles, config, data)
    assert len(got) == len(data)
    for logits, sample in zip(got, data):
        want = _tape_logits(model, needles, config, sample)
        assert logits.shape == (3, len(sample.tokens), len(TAGSET))
        assert all(row.tobytes() == ref.tobytes() for row, ref in zip(logits, want))
    assert tre_logits(model, needles, config, []) == []
    metrics = tre_evaluate(model, needles, config, data)
    monkeypatch.setattr(
        inject, "tre_logits", lambda m, n, c, d: [np.stack(_tape_logits(m, n, c, s)) for s in d]
    )
    assert tre_evaluate(model, needles, config, data) == metrics


def _eval_error(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_stacked_tre_evaluate_raises_the_tape_error_of_the_first_sample_at_fault():
    model, needles = _eval_model(), _eval_needles(0)
    config = InjectionConfig([2, 3, 4], [1.0 / 3, 1.0 / 3, 1.0 / 3])
    ok = _eval_samples(5)[:3]
    empty = BioeSample([], [[], [], []])
    too_long = BioeSample(["w1"] * (EVAL_MAX_LEN + 1), [["O"] * (EVAL_MAX_LEN + 1)] * 3)
    cases = {
        "cannot embed an empty token sequence": [empty, too_long],
        f"sequence length {EVAL_MAX_LEN + 1} exceeds positional table": [too_long, empty],
    }
    for message, bad in cases.items():
        data = ok[:1] + bad[:1] + ok[1:] + bad[1:]
        got = _eval_error(lambda: tre_evaluate(model, needles, config, data))
        assert got == _eval_error(lambda: [_tape_logits(model, needles, config, s) for s in data]) == message


def test_tre_evaluate_counts_every_token_of_a_sample_with_an_unknown_word():
    # a word dropped from a trained model's vocabulary embeds as a zero row,
    # so each of its occurrences keeps a prediction at its own position
    data = bracket_grammar(20, seed=3)
    vocab = sorted({t for s in data for t in s.tokens})
    model = build_tre_model(vocab, d=16, n_layers=2, n_heads=2, seed=3)
    config = inject.injection_config(2)
    result = tre_train(model, config, data, epochs=2, lr=0.1, seed=3)
    del result.model.embeddings.vocab["eb0"]
    assert sum(s.tokens.count("eb0") for s in data) == 8
    correct = total = 0
    for sample in data:
        for logits, gold in zip(_tape_logits(result.model, result.needles, config, sample), sample.tags, strict=True):
            assert len(logits) == len(gold) == len(sample.tokens)
            correct += sum(TAGSET[int(np.argmax(row))] == tag for row, tag in zip(logits, gold))
            total += len(gold)
    assert total == 3 * sum(len(s.tokens) for s in data)
    assert tre_evaluate(result.model, result.needles, config, data)["token_accuracy"] == correct / total


def _grad_bytes(g):
    if isinstance(g, T.RowGrad):
        rows, sums = g.totals()
        return rows.tobytes(), sums.tobytes()
    return g.tobytes()


def _needle_steps(positions, node):
    """Three tre_train steps on a fresh model and fresh needles, the loss of
    each built by the needle node (node) or by the per-level composition:
    per step, the loss, the raw losses, every parameter's gradient and every
    parameter after the update."""
    model = _eval_model(seed=2)
    rng = np.random.default_rng(9)
    needles = [
        Needle(Tensor(rng.normal(size=(16, len(TAGSET))), True), Tensor(rng.normal(size=len(TAGSET)), True))
        for _ in range(3)
    ]
    assignment = inject._needle_assignment(inject.injection_config(4, positions))
    params = model.tensors() + [t for n in needles for t in (n.w, n.b)]
    steps = []
    for sample in _eval_samples(6, oov=True)[:3]:
        states = tre_forward(model, sample.tokens)
        if node:
            loss, raw = inject._needles_loss(states, sample.tags, needles, assignment)
        else:
            parts, raw = [], []
            for level, (pos, portion) in enumerate(assignment):
                l = tre_needle_loss(states[pos - 1], sample.tags[level], needles[level].w, needles[level].b)
                raw.append(float(l.data))
                parts.append(T.scale(l, portion))
            loss = functools.reduce(T.add, parts)
        T.backward(loss)
        grads = [_grad_bytes(p.grad) for p in params]
        T.sgd_step(params, 0.1)
        steps.append((loss.data.tobytes(), [r.hex() for r in raw], grads, [p.data.tobytes() for p in params]))
    return steps


@pytest.mark.parametrize("positions", [[2, 3, 4], [3, 4], [4]])
def test_the_needle_node_has_the_bits_of_the_per_level_composition(positions):
    # at [4] the three needles read one layer, whose gradient then depends on
    # the order in which their parts are added: last level first
    node, composed = _needle_steps(positions, True), _needle_steps(positions, False)
    assert [len(raw) for _, raw, _, _ in node] == [3, 3, 3]
    assert node == composed
