"""Seeded mutation fuzz of the readers.

Each case mutates one input file (byte flips, deletions, token inserts,
splices) and calls its reader: ``load_dataset`` or ``load_split`` on a
manifest of either version, whose mutated file is the manifest, a
``.npy`` file (its new size and sha256 recorded), the version-1 CSV or
the JSONL; ``load_checkpoint`` on a checkpoint of either version.  A
reader may return; the only exceptions it may raise are
``EvidFuseError``s whose message holds the path of the manifest, the
checkpoint or the dataset's directory.  The seed and the case count are
fixed, so every run makes the same cases.
"""

import dataclasses
import hashlib
import json
import os
import random
import shutil

import numpy as np
import pytest

from evidfuse.data import load_dataset, load_split, write_dataset, write_json
from evidfuse.encoders import init_aux_head, init_encoder
from evidfuse.errors import EvidFuseError
from evidfuse.evidential import EnnParams
from evidfuse.model import (FusionModel, FusionSource, SourceSpec, load_checkpoint,
                            save_checkpoint)
from evidfuse.rng import substream
from helpers import as_version_1, checkpoint_as_version_1, mixed_dataset
from reference import frame_of_size

SEED = 0
CASES = 4000
TOKENS = [b'"', b",", b"\n", b"\r", b"\x00", b"\xff", b"\xc3", b"-", b"0", b"-1", b"1e999",
          b"9" * 400, b"NaN", b"Infinity", b"null", b"true", b"[", b"]", b"{", b"}", b":",
          b"'", b"(", b")", b"L", b"'|O'", b"'<U9'", b"'>f8'", b"True", b"(0,)", b'"."',
          b'"\\u0000"', b'"\\ud800"', b'"/"', b'{"id":"x#1","embedding":[1]}']


def _dataset():
    """mixed_dataset's columns with ids that the CSV must quote."""
    ds = mixed_dataset(n=24)
    kinds = ["a,b", 'say "hi"', "two\nlines", "p"]
    return dataclasses.replace(ds, ids=[f"{kinds[i % 4]}#{i}" for i in range(ds.n)])


def _model():
    """A two-source model of seeded parameters, built without a forward
    pass, so its checkpoint's bytes do not depend on the BLAS."""
    sources = []
    for name, kind, width in (("struct", "mlp", 4), ("notes", "resnet", 3)):
        encoder = init_encoder(kind, width, substream(SEED, name), output_dim=3)
        rng = np.random.default_rng(len(sources))
        enn = EnnParams(rng.normal(size=(2, 3)), rng.normal(size=2), rng.normal(size=2),
                        rng.normal(size=(2, 2)))
        aux = init_aux_head(3, 2, substream(SEED, f"{name}.aux"))
        sources.append(FusionSource(SourceSpec(name, kind, 1.0), encoder, enn, aux))
    return FusionModel(frame_of_size(2), sources, np.array([1.0, 1.5]))


def _mutate(rng, raw, donors):
    """One to three random mutations of ``raw``; positions favour the
    first 128 bytes, where the manifests' fields and the ``.npy`` headers
    lie."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(min(len(raw), 128) if rng.random() < 0.5 else len(raw))
        kind = rng.randrange(4)
        if kind == 0:                          # flip bits of one byte
            raw = raw[:at] + bytes([raw[at] ^ rng.randint(1, 255)]) + raw[at + 1:]
        elif kind == 1:                        # delete a run of bytes
            raw = raw[:at] + raw[at + rng.randint(1, 16):]
        elif kind == 2:                        # insert a token
            raw = raw[:at] + rng.choice(TOKENS) + raw[at:]
        else:                                  # splice in a run of another input
            donor = rng.choice(donors)
            start = rng.randrange(len(donor))
            piece = donor[start:start + rng.randint(1, 64)]
            raw = raw[:at] + piece + raw[at + (len(piece) if rng.random() < 0.5 else 0):]
    return raw


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(targets, originals): each target is (file to mutate, the manifest
    whose binary entry records it or None, reader, the path its messages
    must hold); originals maps each input file to its bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    version_2 = write_dataset(_dataset(), str(root / "v2"))
    version_1 = as_version_1(write_dataset(_dataset(), str(root / "v1")))
    checkpoints = [str(root / "model-v2.json"), str(root / "model-v1.json")]
    for path in checkpoints:
        save_checkpoint(_model(), path)
    checkpoint_as_version_1(checkpoints[1])

    def loads(manifest):
        def load(rng):
            if rng.random() < 0.5:
                return load_dataset(manifest)
            return load_split(manifest, rng.randrange(3), rng.choice(["train", "val", "test"]))
        return load

    targets = [(version_2, None, loads(version_2), str(root / "v2")),
               (version_1, None, loads(version_1), str(root / "v1"))]
    targets += [(os.path.join(root / "v2", f"{key}.npy"), version_2, loads(version_2),
                 str(root / "v2"))
                for key in ("labels", "ids", "numerical", "categorical", "embeddings")]
    targets += [(str(root / "v1" / name), None, loads(version_1), str(root / "v1"))
                for name in ("structured.csv", "embeddings.jsonl")]
    targets += [(path, None, lambda rng, path=path: load_checkpoint(path), path)
                for path in checkpoints]
    originals = {}
    for path, *_ in targets:
        with open(path, "rb") as fh:
            originals[path] = fh.read()
    yield targets, originals
    shutil.rmtree(root)


def _record(manifest, path, raw):
    """Record ``raw`` as the size and sha256 of binary file ``path``."""
    with open(manifest, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["binary"][os.path.basename(path)[:-len(".npy")]].update(
        size=len(raw), sha256=hashlib.sha256(raw).hexdigest())
    write_json(manifest, doc)


def test_readers_raise_only_their_errors_naming_the_input(inputs):
    targets, originals = inputs
    donors = list(originals.values())
    rng = random.Random(SEED)
    for case in range(CASES):
        path, manifest, load, anchor = rng.choice(targets)
        raw = _mutate(rng, originals[path], donors)
        with open(path, "wb") as fh:
            fh.write(raw)
        if manifest is not None:
            _record(manifest, path, raw)
        try:
            load(rng)
        except EvidFuseError as exc:
            assert anchor in str(exc), (case, path, raw, exc)
        except Exception as exc:
            pytest.fail(f"case {case}: {path} mutated to {raw!r} raised "
                        f"{type(exc).__name__}: {exc}")
        finally:
            for restored in (path, manifest):
                if restored is not None:
                    with open(restored, "wb") as fh:
                        fh.write(originals[restored])
