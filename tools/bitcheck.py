"""Dump or compare the model's outputs and gradients, to check a refactor keeps every bit.

    PYTHONPATH=src python3 tools/bitcheck.py dump OUT.npz
    python3 tools/bitcheck.py compare A.npz B.npz

``dump`` writes the logits, the untaped eval logits and every parameter gradient of
a cross-entropy step for dims 24, 64 and 192 × the cls and mean pools × frozen and
fine_tune × layer ranges (0, 2) and (1, 3) of a depth-3 encoder × batches 1, 2, 16
and 33 × the block split (``encoder._parts``) as the environment sets it, forced to 1
and forced to 2. Run it with ``OPENBLAS_NUM_THREADS`` unset and set to 1 (large
blocks then split on their own). It also writes ``X``, ``y``, the categories and
the label names that ``data.load_csv`` reads from the benchmark generator's CSVs
for the ``frozen_train`` (2,000 rows) and ``ingest_noenc`` (100,000 rows) shapes,
seeds 1 to 3, and from seeded CSVs whose numbers only Python's ``float()`` reads,
not a C parser such as ``np.loadtxt`` (see ``exotic_csv``). ``compare`` lists the
arrays whose bits differ or that one file lacks, and exits 1 if there are any.
"""

import csv
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np


def dump(path: str) -> None:
    from vistab import encoder as enc
    from vistab import model as M
    from vistab import tensor as T

    natural = enc._parts
    splits = {"natural": natural, "k1": lambda b, s, d: 1, "k2": lambda b, s, d: min(2, b)}
    out = {}
    for dim, heads in ((24, 3), (64, 4), (192, 3)):
        cfg = enc.EncoderConfig(depth=3, dim=dim, heads=heads, max_seq=9)
        bundle = enc.random_bundle(cfg, seed=dim, scale=0.3)
        rng = np.random.default_rng(dim + 1)
        for t in bundle.parameters():  # non-trivial LayerNorm gains and biases
            if t.data.ndim == 1:
                t.data += rng.normal(0.0, 0.3, t.shape)
        for pool, mode, (lo, hi), batch, split in itertools.product(
                ("cls", "mean"), ("frozen", "fine_tune"), ((0, 2), (1, 3)),
                (1, 2, 16, 33), splits):
            enc._parts = splits[split]
            model = M.build_model(M.AdapterConfig(input_dim=7, n_views=8, out_dim=dim),
                                  M.HeadConfig(in_dim=dim, n_classes=3), bundle=bundle,
                                  layer_range=enc.LayerRange(lo, hi), seed=dim, pool=pool)
            M.set_freeze_mode(model, mode)
            data = np.random.default_rng(batch)
            x, y = data.normal(size=(batch, 7)), data.integers(0, 3, batch)
            T.zero_grads(model.parameters())
            with T.Tape():
                logits = M.model_forward(x, model)
                T.backward(T.cross_entropy(logits, y))
            key = f"d{dim}-{pool}-{mode}-{lo}{hi}-b{batch}-{split}/"
            out[key + "logits"] = logits.data
            out[key + "eval_logits"] = M.model_forward(x, model).data
            for group, params in model.parameter_groups().items():
                for i, p in enumerate(params):
                    if p.grad is not None:
                        out[f"{key}{group}.{i}"] = p.grad
    enc._parts = natural
    out.update(csv_loads())
    np.savez(path, **out)
    print(f"{len(out)} arrays written to {path}")


def csv_loads() -> dict[str, np.ndarray]:
    """What ``load_csv`` reads from generated CSVs; names and categories as JSON text."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from bench_gen import generate
    from bench_job import WORKLOADS

    from vistab import data as D
    from vistab import encoder as enc

    out = {}
    tiny = enc.EncoderConfig(depth=1, dim=12, heads=3, max_seq=9)  # the CSV ignores it
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in itertools.product(("frozen_train", "ingest_noenc"), (1, 2, 3)):
            files = generate(Path(tmp) / f"{workload}-{seed}", WORKLOADS[workload].data,
                             tiny, seed)
            ds = D.load_csv(files.csv, files.schema)
            key = f"csv-{workload}-s{seed}/"
            out[key + "X"], out[key + "y"] = ds.X, ds.y
            out[key + "categories"] = np.array(json.dumps(ds.categories))
            out[key + "label_names"] = np.array(json.dumps(ds.label_names))
        for seed, padded_missing in itertools.product((1, 2, 3), (False, True)):
            path = exotic_csv(Path(tmp) / f"exotic-{seed}-{padded_missing:d}.csv", seed,
                              padded_missing)
            ds = D.load_csv(path, {"label": "label", "kinds": ["numeric"] * 6})
            key = f"csv-exotic{'-missing' * padded_missing}-s{seed}/"
            out[key + "X"], out[key + "y"] = ds.X, ds.y
            out[key + "label_names"] = np.array(json.dumps(ds.label_names))
    return out


def exotic_csv(path: Path, seed: int, padded_missing: bool) -> Path:
    """A CSV of 5,000 rows of 6 numeric columns and a label, each number written with
    ``_`` digit grouping, in Arabic-Indic digits or padded with NBSP and ideographic
    spaces. With `padded_missing`, about 2 % of the cells are a missing ``?`` padded
    with spaces, which ``load_csv`` finds by bisection and converts in bulk."""
    rng = np.random.default_rng(seed)
    shape = (5000, 6)
    values = rng.choice([-1, 1], shape) * rng.uniform(1e3, 1e7, shape)
    spelling = rng.integers(0, 3, shape)
    arabic = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                         "\u0665\u0666\u0667\u0668\u0669")
    spell = (lambda v: f"{v:_.6f}", lambda v: f"{v:.6f}".translate(arabic),
             lambda v: f"\xa0{v!r}\u3000")
    body = [[spell[s](v) for s, v in zip(ss, vs)] + [f"c{rng.integers(3)}"]
            for ss, vs in zip(spelling.tolist(), values.tolist())]
    if padded_missing:
        for i, j in zip(*np.nonzero(rng.random(shape) < 0.02)):
            body[i][j] = " ? "
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([[f"n{j}" for j in range(6)] + ["label"]] + body)
    return path


def compare(a_path: str, b_path: str) -> int:
    a, b = np.load(a_path), np.load(b_path)
    differ = sorted(name for name in set(a.files) | set(b.files)
                    if name not in a.files or name not in b.files
                    or a[name].shape != b[name].shape or a[name].tobytes() != b[name].tobytes())
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(set(a.files) | set(b.files))} arrays differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
