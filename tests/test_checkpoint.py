"""Strict checkpoint loading: every config key, exactly the model's arrays,
finite values. Corrupted bytes either load or raise ValueError, and never
make the loader allocate beyond a small multiple of the file size."""

import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tiny_model, toy_batch
from normaug import normbank as nb
from normaug import tensor as T
from normaug.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ModelConfig,
    _array,
    _array_floats,
    _state,
    encode_rng_state,
    init_model,
    load_checkpoint,
    non_finite_array,
    save_checkpoint,
)
from normaug.training import DomainBatch, TrainConfig, make_optimizer, train_step

# Loading the tiny model peaks at about 6x its file size (Python objects
# around small arrays), about 11x when a flipped config digit enlarges the
# model; honouring an oversized prefix would ask for far more.
ALLOC_FACTOR = 32

# the reduced scheme's subsets for three source domains, as `bank_subsets` lists them
SCHEME = "0,1,2,0+1,0+2,1+2"
# a config block value its parser refuses -> the message
MALFORMED = {
    "use_aug=tru!": "config key use_aug: expected a boolean, got 'tru!'",
    "bn_eps=nan": "config key bn_eps: expected a finite number, got 'nan'",
    "hidden_sizes=8,x": "config key hidden_sizes: expected comma-separated ints, got '8,x'",
    "seed=0_3": "config key seed: expected an integer, got '0_3'",
    "seed=\u0663": "config key seed: expected an integer, got '\u0663'",
}


def layout(blob: bytes):
    """(config text, [(offset, struct format) of every size prefix],
    [(array name, record bytes)]), read by the documented
    format: magic, u32 version, u64 config length, config, u32 array count,
    then per array u32 name length, name, u32 ndim, u64 dims, float64 data."""
    (clen,) = struct.unpack_from("<Q", blob, 8)
    prefixes = [(8, "<Q"), (16 + clen, "<I")]
    records = []
    off = 20 + clen
    for _ in range(struct.unpack_from("<I", blob, 16 + clen)[0]):
        start = off
        (nlen,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4:off + 4 + nlen].decode()
        off += 4 + nlen
        (ndim,) = struct.unpack_from("<I", blob, off)
        dims = struct.unpack_from(f"<{ndim}Q", blob, off + 4)
        prefixes += [(start, "<I"), (off, "<I")]
        prefixes += [(off + 4 + 8 * k, "<Q") for k in range(ndim)]
        off += 4 + 8 * ndim + 8 * math.prod(dims)
        records.append((name, blob[start:off]))
    assert off == len(blob)
    return blob[16:16 + clen].decode(), prefixes, records


def assemble(text: str, records: list[bytes]) -> bytes:
    config = text.encode()
    return (CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(config)) + config
            + struct.pack("<I", len(records)) + b"".join(records))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Bytes of a trained-looking tiny checkpoint, and a temporary directory."""
    model = tiny_model(seed=3)
    rng = np.random.default_rng(9)
    parts = nb.enumerate_reduced_combinations(3)
    for i in range(3):
        x, _, ids = toy_batch(rng)
        with T.no_grad():
            model.forward_main(x, mode="train")
            model.forward_aux(x, ids, parts[i % len(parts)], mode="train")
    directory = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(model, directory / "m.ckpt")
    return (directory / "m.ckpt").read_bytes(), directory


def load_bytes(directory, data: bytes):
    path = directory / "edited.ckpt"
    path.write_bytes(data)
    return load_checkpoint(path)


def loads(directory, data: bytes, original: bytes) -> bool:
    """Whether the bytes load; any exception but ValueError escapes, and the
    peak allocation must stay within ALLOC_FACTOR times the intact file."""
    tracemalloc.start()
    try:
        load_bytes(directory, data)
        return True
    except ValueError:
        return False
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= ALLOC_FACTOR * len(original)


class TestStrictLoad:
    def test_layout_reads_what_save_writes(self, saved):
        blob, directory = saved
        text, _, records = layout(blob)
        assert assemble(text, [r for _, r in records]) == blob
        load_bytes(directory, blob)

    def test_missing_array(self, saved):
        blob, directory = saved
        text, _, records = layout(blob)
        kept = [r for name, r in records if name != "main.site0.running_var"]
        with pytest.raises(ValueError, match=r"missing arrays main\.site0\.running_var$"):
            load_bytes(directory, assemble(text, kept))

    def test_repeated_array(self, saved):
        blob, directory = saved
        text, _, records = layout(blob)
        kept = [r for _, r in records]
        with pytest.raises(ValueError, match="array 'backbone.layer0.W': unknown or repeated"):
            load_bytes(directory, assemble(text, kept[:1] + kept))

    def test_bank_subset_without_arrays(self, saved):
        blob, directory = saved
        text, _, records = layout(blob)
        kept = [r for name, r in records if not name.startswith("bank.site1.u0+2.")]
        with pytest.raises(ValueError, match=r"missing arrays bank\.site1\.u0\+2\.beta, "
                                             r"bank\.site1\.u0\+2\.count, "):
            load_bytes(directory, assemble(text, kept))

    def test_arrays_of_a_unit_outside_the_scheme(self, saved):
        blob, directory = saved
        text, _, records = layout(blob)
        name, record = records[[n for n, _ in records].index("bank.site0.u0.beta")]
        renamed = name.replace("u0.", "u0+1+2.").encode()
        extra = struct.pack("<I", len(renamed)) + renamed + record[4 + len(name):]
        with pytest.raises(ValueError, match=r"array 'bank\.site0\.u0\+1\+2\.beta': unknown"):
            load_bytes(directory, assemble(text, [r for _, r in records] + [extra]))

    @pytest.mark.parametrize("key", ["input_dim", "hidden_sizes", "use_aug", "bn_eps",
                                     "seed", "epoch", "rng_state"])
    def test_missing_config_key(self, saved, key):
        blob, directory = saved
        text, _, records = layout(blob)
        lines = [ln for ln in text.splitlines() if ln.partition("=")[0] != key]
        with pytest.raises(ValueError, match=f"config key {key} is missing"):
            load_bytes(directory, assemble("\n".join(lines) + "\n", [r for _, r in records]))

    @pytest.mark.parametrize("line,bad", [("use_aug=true", "use_aug=tru!"),
                                          ("bn_eps=1e-05", "bn_eps=nan"),
                                          ("hidden_sizes=8,4", "hidden_sizes=8,x"),
                                          ("seed=3", "seed=0_3"),
                                          ("seed=3", "seed=\u0663"),
                                          # parsed, but not as `save_checkpoint` writes them
                                          ("epoch=0", "epoch=+0"),
                                          ("hidden_sizes=8,4", "hidden_sizes= 8,4"),
                                          ("hidden_sizes=8,4", "hidden_sizes=8, 4"),
                                          ("use_on=true", "use_on=yes"),
                                          ("use_aug=true", "use_aug=1"),
                                          ("bn_eps=1e-05", "bn_eps=1E-05"),
                                          ("bn_momentum=0.1", "bn_momentum=0.10")])
    def test_malformed_config_value(self, saved, line, bad):
        """A value its parser refuses names the key; one it reads but
        `save_checkpoint` would not write names the block line."""
        blob, directory = saved
        text, _, records = layout(blob)
        assert line in text.splitlines()
        want, got = line + "\n", bad + "\n"
        error = MALFORMED.get(bad, f"config block:{text.splitlines().index(line) + 1}: "
                                   f"expected {want!r}, got {got!r}")
        with pytest.raises(ValueError, match=re.escape(error) + "$"):
            load_bytes(directory, assemble(text.replace(line, bad), [r for _, r in records]))

    @pytest.mark.parametrize("case", ["reordered", "comment", "crlf"])
    def test_block_not_as_written(self, saved, case):
        """Keys in another order, a trailing comment and CRLF line ends each
        read as the same values, and are refused at their first line."""
        blob, directory = saved
        text, _, records = layout(blob)
        lines = text.splitlines(keepends=True)
        edited, ln = {
            "reordered": ("".join(lines[:10] + [lines[11], lines[10]] + lines[12:]), 11),
            "comment": (text.replace("epoch=0\n", "epoch=0  # saved\n"), 12),
            "crlf": (text.replace("\n", "\r\n"), 1)}[case]
        got = edited.splitlines(keepends=True)[ln - 1]
        with pytest.raises(ValueError, match=re.escape(
                f"config block:{ln}: expected {lines[ln - 1]!r}, got {got!r}") + "$"):
            load_bytes(directory, assemble(edited, [r for _, r in records]))

    @pytest.mark.parametrize("array,value,error", [
        ("backbone.layer0.W", math.nan, "non-finite values"),
        ("main.site0.running_var", math.inf, "non-finite values"),
        ("main.site0.count", 2.5, "2.5 is not a count"),
        ("main.site0.count", -1.0, "-1.0 is not a count")])
    def test_bad_array_value(self, saved, array, value, error):
        blob, directory = saved
        text, _, records = layout(blob)
        changed = [r[:-8] + struct.pack("<d", value) if name == array else r
                   for name, r in records]
        with pytest.raises(ValueError, match=f"array {array}: {error}"):
            load_bytes(directory, assemble(text, changed))


    def test_config_naming_more_values_than_the_file(self, saved):
        blob, directory = saved
        text, _, records = layout(blob)
        assert "hidden_sizes=8,4" in text.splitlines()
        big = assemble(text.replace("hidden_sizes=8,4", "hidden_sizes=3000,3000"),
                       [r for _, r in records])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"config block names 9\d{6} array values"):
                load_bytes(directory, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ALLOC_FACTOR * len(big)

    @pytest.mark.parametrize("line,bad,fault", [
        ("bank_subsets=", "bank_subsets=0+9,", f"bank_subsets: expected {SCHEME}, got 0+9,{SCHEME}"),
        ("bank_subsets=", "bank_subsets=0+x,", f"bank_subsets: expected {SCHEME}, got 0+x,{SCHEME}"),
        ("use_aug=true", "use_aug=false", "bank_subsets: the model has no bank (use_aug=false)"),
        ("1+2\n", "1+2,0+1+2\n", f"bank_subsets: expected {SCHEME}, got {SCHEME},0+1+2"),
        (",1+2\n", "\n", f"bank_subsets: expected {SCHEME}, got 0,1,2,0+1,0+2"),
        ("0+2,1+2", "1+2,0+2", f"bank_subsets: expected {SCHEME}, got 0,1,2,0+1,1+2,0+2"),
        (f"bank_subsets={SCHEME}\n", "", "bank_subsets is missing")])
    def test_bad_bank_subsets(self, saved, line, bad, fault):
        """The `bank_subsets` line lists exactly the scheme's subsets, and
        only a model with a bank has one: each `fault` is refused at line
        14, the line after `rng_state`, naming the line written there
        ('' for none) and the one found."""
        blob, directory = saved
        text, _, records = layout(blob)
        assert text.endswith(f"bank_subsets={SCHEME}\n") and text.count(line) == 1
        edited = text.replace(line, bad)
        want = "" if bad == "use_aug=false" else f"bank_subsets={SCHEME}\n"
        got = (edited.splitlines(keepends=True)[13:] + [""])[0]
        with pytest.raises(ValueError, match=re.escape(
                f"config block:14: expected {want!r}, got {got!r}") + "$"):
            load_bytes(directory, assemble(edited, [r for _, r in records]))

    @pytest.mark.parametrize("backbone", ["mlp", "smallconv"])
    @pytest.mark.parametrize("use_on", [True, False])
    @pytest.mark.parametrize("mode", ["independent", "shared_one", "shared_two", None])
    @pytest.mark.parametrize("num_domains", [2, 3, 4])
    def test_array_values_counted_from_config(self, backbone, use_on, mode, num_domains):
        config = ModelConfig(input_dim=9, hidden_sizes=(5, 3), num_classes=4,
                             num_domains=num_domains, use_on=use_on, use_aug=mode is not None,
                             classifier_mode=mode or "independent", backbone=backbone)
        model = init_model(config, seed=0)
        stored = sum(_array(*where).size for where in _state(model).values())
        assert _array_floats(config) == stored


class TestFiniteOnSave:
    """What the loader refuses as non-finite, `non_finite_array` names and
    `save_checkpoint` refuses to write."""

    @pytest.mark.parametrize("name", ["backbone.layer0.W", "main.site1.beta",
                                      "bank.site0.u0+2.gamma", "classifier.aux.u1.b"])
    def test_parameter(self, tmp_path, name):
        model = tiny_model(seed=3)
        assert non_finite_array(model) is None
        owner, attr = _state(model)[name]
        getattr(owner, attr).flat[-1] = math.nan
        self.assert_refused(model, name, tmp_path)

    @pytest.mark.parametrize("name", ["main.site0.running_var", "bank.site1.u1.running_mean"])
    def test_running_moment(self, tmp_path, name):
        model = tiny_model(seed=3)
        owner, attr = _state(model)[name]
        getattr(owner, attr)[0] = -math.inf
        self.assert_refused(model, name, tmp_path)

    def test_blocks_come_before_moments(self):
        """The first non-finite parameter in block order, then moments."""
        model = tiny_model(seed=3)
        for name in ("main.site0.running_mean", "classifier.main.W", "backbone.layer1.b"):
            owner, attr = _state(model)[name]
            getattr(owner, attr).flat[0] = math.nan
        assert non_finite_array(model) == "backbone.layer1.b"

    @staticmethod
    def assert_refused(model, name, tmp_path):
        assert non_finite_array(model) == name
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match=re.escape(
                f"save_checkpoint: array {name}: non-finite values")):
            save_checkpoint(model, path)
        assert not path.exists()


class TestRngStateOnSave:
    """`save_checkpoint` writes only an `rng_state` that `load_checkpoint`
    gives back: its block line, read by `read_config`, holds the same
    text, and it is not `-`, which stands for None."""

    @pytest.mark.parametrize("rng_state", ["a#b", " x", "a\nepoch=3", "-"],
                             ids=["comment", "leading-space", "newline", "none-sentinel"])
    def test_refused_before_the_file_is_opened(self, tmp_path, rng_state):
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match=re.escape(
                f"save_checkpoint: rng_state {rng_state!r} does not load back as written") + "$"):
            save_checkpoint(tiny_model(seed=3), path, rng_state=rng_state)
        assert not path.exists()

    def test_encoded_state_and_none_round_trip(self, tmp_path):
        model = tiny_model(seed=3)
        encoded = encode_rng_state(np.random.default_rng(5))
        for rng_state in (encoded, None):
            save_checkpoint(model, tmp_path / "m.ckpt", epoch=2, rng_state=rng_state)
            assert load_checkpoint(tmp_path / "m.ckpt")[1:] == (2, rng_state)


class TestFixture:
    """`data/tiny_aug.ckpt` is a committed checkpoint: `fixture_model`'s
    model saved with epoch 1 and the state of its batch generator."""

    FIXTURE = Path(__file__).parent / "data" / "tiny_aug.ckpt"

    @staticmethod
    def fixture_model():
        """A tiny three-domain `on_aug` model after one `train_step` on each
        reduced partition, and the generator that drew the batches."""
        model = tiny_model(seed=3)
        opt = make_optimizer(model, TrainConfig())
        rng = np.random.default_rng(9)
        for part in nb.enumerate_reduced_combinations(3):
            x, labels, ids = toy_batch(rng)
            train_step(model, DomainBatch(x, labels, ids, per_domain=4), part, opt)
        return model, rng

    def test_resaves_byte_identically(self, tmp_path):
        model, epoch, rng_state = load_checkpoint(self.FIXTURE)
        assert epoch == 1
        assert all(b.units[s].update_count > 0 for b in model.banks for s in b.subsets())
        save_checkpoint(model, tmp_path / "again.ckpt", epoch, rng_state)
        assert (tmp_path / "again.ckpt").read_bytes() == self.FIXTURE.read_bytes()

    @pytest.mark.parametrize("extra,error", [
        ("seed=99\n", "config block:15: config key 'seed' repeated (first on line 11)"),
        ("seed\n", "config block:15: expected key=value, got 'seed'"),
        ("momentum=0.9\n", "config block:15: unknown config key 'momentum'")],
        ids=["repeated-key", "line-without-equals", "unknown-key"])
    def test_config_block_is_strict(self, tmp_path, extra, error):
        """A line appended to the fixture's config block is refused: a
        repeated key would otherwise override the first (seed 99 loaded)."""
        text, _, records = layout(self.FIXTURE.read_bytes())
        path = tmp_path / "edited.ckpt"
        path.write_bytes(assemble(text + extra, [r for _, r in records]))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {error}") + "$"):
            load_checkpoint(path)

    def test_recipe_writes_the_fixture(self, tmp_path):
        model, rng = self.fixture_model()
        save_checkpoint(model, tmp_path / "m.ckpt", epoch=1, rng_state=encode_rng_state(rng))
        assert (tmp_path / "m.ckpt").read_bytes() == self.FIXTURE.read_bytes()


class TestFuzz:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_truncation(self, saved, data):
        blob, directory = saved
        cut = data.draw(st.integers(0, len(blob) - 1))
        assert not loads(directory, blob[:cut], blob)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bit_flip(self, saved, data):
        blob, directory = saved
        header = 20 + len(layout(blob)[0].encode())
        # half the flips land in the magic, version, config block and count
        bit = data.draw(st.one_of(st.integers(0, 8 * len(blob) - 1),
                                  st.integers(0, 8 * header - 1)))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        loads(directory, bytes(flipped), blob)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_oversized_prefix(self, saved, data):
        blob, directory = saved
        _, prefixes, _ = layout(blob)
        offset, fmt = data.draw(st.sampled_from(prefixes))
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = data.draw(st.one_of(st.integers(top - 2 ** 16, top), st.integers(0, top)))
        changed = bytearray(blob)
        struct.pack_into(fmt, changed, offset, value)
        loads(directory, bytes(changed), blob)
