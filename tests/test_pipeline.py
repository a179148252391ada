"""The whole CSV -> split -> preprocess -> adapter + encoder -> MCC -> rank path, end to end."""

import json

import numpy as np

from vistab import data as D
from vistab import encoder as enc
from vistab import metrics as MT
from vistab import model as M
from vistab import tensor as T
from vistab.encoder import EncoderConfig

ENCODER = EncoderConfig(depth=2, dim=8, heads=2, mlp_ratio=2, max_seq=5)
N_VIEWS = 4


def write_table(tmp_path, n_rows=90, seed=0):
    """A CSV with two numeric and one categorical column, some cells missing, 3 classes."""
    rng = np.random.default_rng(seed)
    lines = ["a,b,colour,label"]
    for i in range(n_rows):
        c = i % 3
        a = "" if i % 11 == 0 else repr(float(c + rng.normal(scale=0.3)))
        b = "?" if i % 13 == 0 else repr(float(rng.normal()))
        colour = "?" if i % 7 == 0 else ("red", "green", "blue")[(c + (i % 5 == 0)) % 3]
        lines.append(f"{a},{b},{colour},class{c}")
    csv_path, schema = tmp_path / "table.csv", tmp_path / "table.json"
    csv_path.write_text("\n".join(lines) + "\n")
    schema.write_text(json.dumps({"label": "label",
                                  "kinds": {"a": "numeric", "b": "numeric",
                                            "colour": "categorical"}}))
    return csv_path, schema


def train(model, X, y, steps=4, lr=0.05):
    params = [p for p in model.parameters() if p.tracked]
    for step in range(steps):
        idx = np.arange(step * 16, step * 16 + 16) % len(y)
        with T.Tape():
            loss = T.cross_entropy(M.model_forward(X[idx], model), y[idx])
        T.backward(loss)
        assert np.isfinite(loss.item())
        for p in params:
            p.data -= lr * p.grad
        T.zero_grads(params)


def test_csv_to_mean_rank_over_two_arms(tmp_path):
    dataset = D.load_csv(*write_table(tmp_path))
    assert dataset.class_count == 3
    train_part, valid, test = D.split(dataset, D.SplitSpec(seed=3))
    pre = D.Preprocessor().fit(train_part)
    balanced = D.oversample(train_part, seed=3)
    X_train, y_train = pre.transform(balanced), balanced.y
    X_valid = pre.transform(valid)

    enc.save_weights(enc.random_bundle(ENCODER, seed=5, scale=0.3), tmp_path / "enc.weights")
    bundle = enc.load_weights(tmp_path / "enc.weights", ENCODER)
    adapter_cfg = M.AdapterConfig(input_dim=pre.output_dim, n_views=N_VIEWS, depth=2,
                                  out_dim=ENCODER.dim)
    head_cfg = M.HeadConfig(in_dim=ENCODER.dim, n_classes=3)
    arms = {"no_encoder": M.build_model(adapter_cfg, head_cfg, bundle=None, seed=1),
            "frozen": M.build_model(adapter_cfg, head_cfg, bundle=bundle, seed=1)}
    for model in arms.values():
        train(model, X_train, y_train)
        assert np.isfinite(M.model_forward(X_valid, model).data).all()
    assert bundle.checksum() == bundle.load_checksum
    assert test.access_count == 0  # nothing read the test partition before the final read

    X_test, y_test = pre.transform(test), test.y
    scores = []
    for model in arms.values():
        logits = M.model_forward(X_test, model).data
        assert np.isfinite(logits).all()
        conf = MT.ConfusionMatrix.from_predictions(y_test, logits.argmax(axis=1), 3)
        assert conf.total == len(test)
        scores.append(MT.mcc(conf))
    ranks = MT.rank_methods(MT.ScoreTable([dataset.name], list(arms), np.array([scores])))
    assert sorted(r["mean_rank"] for r in ranks.values()) in ([1.0, 2.0], [1.5, 1.5])
    assert [ranks[arm]["mean_score"] for arm in arms] == scores
