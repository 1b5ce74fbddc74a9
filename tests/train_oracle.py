"""The per-sentence composition that train_ranker's encode node replaces,
kept as its oracle: the query and each statement encoded by its own ops,
dropout on the CNN's conv features, each article pooled by
encode_paragraph, then s_s = T.dot(q, r_a).  Its tape has a node per op
per sentence, built article by article; the node must leave every
parameter gradient with the bits of this tape."""

from statutelab import rankers
from statutelab import tensor as T
from statutelab.encoders import SentenceEncoderCNN, encode_paragraph
from statutelab.tensor import Tensor


def encode_sentence(tokens, enc, rng):
    """One sentence on the tape: embed, conv_tanh, dropout drawn from rng
    and additive attention for a CNN; enc.encode for a self-attention
    encoder."""
    if not isinstance(enc, SentenceEncoderCNN):
        return enc.encode(tokens)
    feats = T.conv_tanh(enc.embeddings.embed(tokens), enc.filters)
    if enc.dropout > 0.0:
        feats = T.mul(feats, Tensor(T.dropout_mask(feats.data.shape, enc.dropout, rng)))
    return T.additive_attention(feats, enc.attn.A, enc.attn.b, enc.u, "softmax")[0]


def train_scores(model, q_tokens, articles, rng):
    """What rankers._train_scores returns, by the per-sentence composition."""
    if not q_tokens:
        return [Tensor(0.0) for _ in articles]
    qv = encode_sentence(q_tokens, model.encoder, rng)
    pq = model.para_query if model.para_query is not None else qv
    scores = []
    for article in articles:
        reps = [encode_sentence(t, model.encoder, rng) for t in rankers._statement_tokens(article)]
        scores.append(T.dot(qv, encode_paragraph(pq, reps, model.para_attn)[0]) if reps else Tensor(0.0))
    return scores
