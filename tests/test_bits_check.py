"""The bits check tool: its comparison helpers on canned inputs, the whole
pipeline on a tiny config with one tree on both sides, and the perfbench
digests on the smoke-test schedule. The acceptance gate itself is not run
here: the tier-1 suite runs it once already."""

import importlib.util
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from normaug.model import load_checkpoint, save_checkpoint

ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "bits_check.py"
TINY = """
num_classes = 3
num_domains = 3
per_cell = 16
feature_dim = 6
hidden_sizes = 8,4
epochs = 1
iters_per_epoch = 3
batch_per_domain = 4
probe_rows = 8
seeds = 0
"""


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bits_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identical_bytes(tool):
    assert tool.compare_bytes(b"a,1\n", b"a,1\n", text=True) == "identical"
    assert tool.compare_bytes(b"\x00\x01", b"\x00\x01", text=False) == "identical"


def test_moved_text_names_the_first_line_and_the_largest_difference(tool):
    parent = b"metric,name,value\nd,s2s,0.5\nd,s2t,1.25\np,x,3.0\n"
    change = b"metric,name,value\nd,s2s,0.5\nd,s2t,1.2500000000000002\np,x,2.5\n"
    assert tool.compare_bytes(parent, change, text=True) == (
        "moved: line 3: parent 'd,s2t,1.25', change 'd,s2t,1.2500000000000002'; "
        "4 vs 4 lines; largest numeric difference 0.5")


def test_moved_text_of_other_length(tool):
    out = tool.compare_bytes(b"h\n1\n", b"h\n1\n2\n", text=True)
    assert out.startswith("moved: line 3: parent '<end of file>', change '2'; 2 vs 3 lines")


def test_moved_binary_names_the_first_byte(tool):
    assert tool.compare_bytes(b"NAUG\x01\x02", b"NAUG\x01\x03", text=False) == (
        "moved: first difference at byte 5 (6 vs 6 bytes)")


def test_checkpoint_config_block_moved_arrays_identical(tool, tmp_path):
    """The version-1 fixture against the version-2 one: one model, so only
    the version and the block line after `epoch` differ."""
    data = ROOT / "tests" / "data"
    v1, v2 = (data / "tiny_aug_v1.ckpt").read_bytes(), (data / "tiny_aug.ckpt").read_bytes()
    rng_line = v1.decode("latin-1").split("\nrng_state=")[1].split("\n")[0]
    shown = repr("rng_state=" + rng_line)[:49] + "...'"
    assert tool.compare_checkpoints(v1, v2) == (
        f"moved: version 1 vs 2; config block differs (line 13: parent {shown}, "
        f"change 'target_domain=3'); arrays identical")
    (tmp_path / "a.ckpt").write_bytes(v1)
    (tmp_path / "b.ckpt").write_bytes(v2)
    assert tool.compare_files(tmp_path / "a.ckpt", tmp_path / "b.ckpt") == (
        tool.compare_checkpoints(v1, v2))


def test_checkpoint_names_the_first_differing_array(tool, tmp_path):
    model, epoch, target = load_checkpoint(ROOT / "tests" / "data" / "tiny_aug.ckpt")
    save_checkpoint(model, tmp_path / "a.ckpt", epoch, target)
    model.classifier_main.bias.data[1] += 0.5
    model.main_units[0].running_var[0] += 0.25
    save_checkpoint(model, tmp_path / "b.ckpt", epoch, target)
    assert tool.compare_files(tmp_path / "a.ckpt", tmp_path / "b.ckpt") == (
        "moved: first differing array classifier.main.b: largest difference 0.5")
    save_checkpoint(model, tmp_path / "c.ckpt", epoch + 1, target)
    assert tool.compare_files(tmp_path / "b.ckpt", tmp_path / "c.ckpt") == (
        "moved: config block differs (line 12: parent 'epoch=1', change 'epoch=2'); "
        "arrays identical")


def test_bytes_that_are_not_a_checkpoint(tool):
    assert tool.compare_checkpoints(b"NAUG\x01\x02", b"NAUG\x01\x03") == (
        "moved: first difference at byte 5 (6 vs 6 bytes)")


def test_missing_artifact(tool, tmp_path):
    present, absent = tmp_path / "fusion.csv", tmp_path / "absent.csv"
    present.write_bytes(b"h\n1\n")
    assert tool.compare_files(absent, present) == "missing in the parent"
    assert tool.compare_files(present, absent) == "missing in the change"
    assert tool.compare_files(absent, absent) == "missing in the parent and the change"
    assert tool.compare_files(present, present) == "identical"


def test_check_reports_an_artifact_one_tree_did_not_write(tool, tmp_path, monkeypatch):
    """A parent that predates an artifact: `check` names the missing side
    and goes on to the others and to `predict`, which both trees run on the
    held-out domain the parent's checkpoint records."""
    def pipeline(tree, config, work):
        for rel in tool.ARTIFACTS.values():
            if work.name == "change" or rel != "ablate/fusion.csv":
                (work / rel).parent.mkdir(parents=True, exist_ok=True)
                (work / rel).write_bytes(b"h\n1\n")
        shutil.copyfile(ROOT / "tests" / "data" / "tiny_aug.ckpt", work / "model.ckpt")

    predicted = []

    def run_python(tree, cwd, *args, **kw):
        predicted.append(args[2])  # the held-out domain, after `-c PREDICT`
        np.savez(args[-1])

    monkeypatch.setattr(tool, "run_pipeline", pipeline)
    monkeypatch.setattr(tool, "run_python", run_python)
    lines = tool.check(ROOT, ROOT, tmp_path / "tiny.txt", tmp_path)
    assert lines == [f"{name}: identical" for name in tool.ARTIFACTS if name != "fusion.csv"] \
        + ["fusion.csv: missing in the parent",
           "predict: held-out domain 3 (recorded in the parent's model.ckpt)",
           "predict: largest main-route difference 0, largest sub-path difference 0"]
    assert predicted == ["3", "3"]


def test_check_stops_on_a_checkpoint_without_a_held_out_domain(tool, tmp_path, monkeypatch):
    def pipeline(tree, config, work):
        work.mkdir(parents=True)
        shutil.copyfile(ROOT / "tests" / "data" / "tiny_aug_v1.ckpt", work / "model.ckpt")

    monkeypatch.setattr(tool, "run_pipeline", pipeline)
    with pytest.raises(SystemExit, match=re.escape(
            f"{tmp_path / 'parent' / 'model.ckpt'} records no held-out domain") + "$"):
        tool.check(ROOT, ROOT, tmp_path / "tiny.txt", tmp_path)


def test_seam_split_crosses_two_evaluation_pieces(tool):
    """The repeated split is walked in at least three pieces and ends in an
    overlapping product block, so the change's pieces meet the parent's walk."""
    from normaug.model import EVAL_ROWS, ROW_BLOCK

    assert tool.SEAM_ROWS > 2 * EVAL_ROWS and tool.SEAM_ROWS % EVAL_ROWS > ROW_BLOCK


def test_prediction_summary(tool):
    p = np.array([[0.6, 0.4], [0.3, 0.7]])
    parent = {"MeanAll/all_units/fused": p, "MeanAll/all_units/main": p,
              "MeanAll/all_units/sub_0": p}
    change = {"MeanAll/all_units/fused": np.array([[0.4, 0.6], [0.3, 0.7]]),
              "MeanAll/all_units/main": p.copy(),
              "MeanAll/all_units/sub_0": p + 1e-16}
    assert tool.compare_predictions(parent, change) == [
        "predict MeanAll/all_units: largest fused difference 0.2, argmax flips 1",
        "predict: largest main-route difference 0, largest sub-path difference 1.11e-16"]
    assert tool.compare_predictions(parent, {}) == [
        "predict: largest main-route difference 0, largest sub-path difference 0",
        "predict: routes run in one tree only: parent ['MeanAll/all_units/fused', "
        "'MeanAll/all_units/main', 'MeanAll/all_units/sub_0']"]


def test_prediction_summary_compares_the_routes_both_trees_ran(tool):
    """A tree that skips the routes a rule does not read still has every
    fused matrix and every shared route compared; the skipped routes are
    named in one line, per side."""
    p = np.array([[0.6, 0.4], [0.3, 0.7]])
    parent = {"MaxI/all_units/fused": p, "MaxI/all_units/main": p,
              "MaxI/all_units/sub_0": p, "MainOnly/all_units/fused": p,
              "MainOnly/all_units/main": p, "MainOnly/all_units/sub_0": p}
    change = {"MaxI/all_units/fused": p.copy(), "MaxI/all_units/sub_0": p + 1e-16,
              "MainOnly/all_units/fused": p.copy(), "MainOnly/all_units/main": p + 0.25,
              "MeanI/all_units/sub_1": p}
    assert tool.compare_predictions(parent, change) == [
        "predict MainOnly/all_units: largest fused difference 0, argmax flips 0",
        "predict MaxI/all_units: largest fused difference 0, argmax flips 0",
        "predict: largest main-route difference 0.25, largest sub-path difference 1.11e-16",
        "predict: routes run in one tree only: parent ['MainOnly/all_units/sub_0', "
        "'MaxI/all_units/main']; change ['MeanI/all_units/sub_1']"]


def test_one_tree_on_both_sides_is_identical(tool, tmp_path):
    """Every artifact and `predict` line is identical; the keyed runs wrote
    their own files (the `diagnose` run with 16 probe rows and seed 3 moves
    the probe rows only)."""
    config = tmp_path / "tiny.txt"
    config.write_text(TINY, encoding="utf-8")
    lines = tool.check(ROOT, ROOT, config, tmp_path / "work")
    assert [line.split(": ")[1] for line in lines[:len(tool.ARTIFACTS)]] == \
        ["identical"] * len(tool.ARTIFACTS)
    assert lines[len(tool.ARTIFACTS)] == (
        "predict: held-out domain 2 (recorded in the parent's model.ckpt)")
    predicted = lines[len(tool.ARTIFACTS) + 1:-1]
    assert len(predicted) == 32  # 8 rules x 2 scopes x 2 splits
    assert sum(f"({tool.SEAM_ROWS} rows): " in line for line in predicted) == 16
    assert all(line.endswith("largest fused difference 0, argmax flips 0")
               for line in predicted)
    assert lines[-1] == ("predict: largest main-route difference 0, "
                         "largest sub-path difference 0")
    run = tmp_path / "work" / "parent"
    rows = (run / "eval_scope/accuracy.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["main", "sub_0", "sub_1", "fused"]
    diagnostics = [(run / rel).read_text().splitlines()
                   for rel in ("diagnostics.csv", "diagnose_probe/diagnostics.csv")]
    assert diagnostics[0][:3] == diagnostics[1][:3] and diagnostics[0][3:] != diagnostics[1][3:]


GATE = """tests/test_acceptance.py
ACCEPTANCE 1 statistics-oracle: PASS  max |diff|=1.42e-14 over 1000 cases in 0.3s
.
ACCEPTANCE 5 ablation-ordering: PASS  ours=0.8696 aug=0.8670 gap=3.10pt grid=34s
.
ACCEPTANCE 9 random-vs-single: PASS  random=0.8696 single=0.8672 diff=0.24pt
.
3 passed in 35.12s
"""


def test_acceptance_lines_leave_timings_out(tool):
    assert tool.acceptance_lines(GATE) == {
        "1 statistics-oracle": "PASS  max |diff|=1.42e-14 over 1000 cases in <t>s",
        "5 ablation-ordering": "PASS  ours=0.8696 aug=0.8670 gap=3.10pt grid=<t>s",
        "9 random-vs-single": "PASS  random=0.8696 single=0.8672 diff=0.24pt"}


def test_acceptance_comparison(tool):
    parent = tool.acceptance_lines(GATE)
    change = tool.acceptance_lines(
        GATE.replace("in 0.3s", "in 1.7s").replace("grid=34s", "grid=41s")
        .replace("single=0.8672", "single=0.8701").replace("diff=0.24pt", "diff=-0.05pt")
        .replace("ACCEPTANCE 1 statistics-oracle", "ACCEPTANCE 1 statistics-oracle-typo"))
    assert tool.compare_keyed("ACCEPTANCE", parent, change) == [
        "ACCEPTANCE 1 statistics-oracle: missing in the change",
        "ACCEPTANCE 5 ablation-ordering: identical",
        "ACCEPTANCE 9 random-vs-single: moved: parent 'PASS  random=0.8696 single=0.8672 "
        "diff=0.24pt', change 'PASS  random=0.8696 single=0.8701 diff=-0.05pt'",
        "ACCEPTANCE 1 statistics-oracle-typo: missing in the parent"]


def test_pipeline_config_replaces_dataset_and_checkpoint(tool, tmp_path):
    """A config that sets `dataset` or `checkpoint` gets the run's paths
    instead, once each, so the CLI does not refuse a repeated key; every
    other key keeps its value."""
    from normaug.cli import parse_config

    config = tmp_path / "c.txt"
    config.write_text(TINY + "dataset = elsewhere.csv  # old\n checkpoint=old.ckpt\n"
                      "# note\fseed = 3\n", encoding="utf-8")
    run = tmp_path / "run.txt"
    run.write_text(tool.pipeline_config(config, tmp_path / "work"), encoding="utf-8")
    cfg = parse_config(run)
    assert cfg == parse_config(config) | {"dataset": str(tmp_path / "work" / "dataset.csv"),
                                          "checkpoint": str(tmp_path / "work" / "model.ckpt")}
    assert cfg["per_cell"] == "16" and "seed" not in cfg


def test_pipeline_config_sets_the_given_keys(tool, tmp_path):
    """The second `eval` reads its rule and scope from config keys, set
    once each over a config that already holds them."""
    from normaug.cli import parse_config

    config = tmp_path / "c.txt"
    config.write_text(TINY + "strategy = MaxI\n", encoding="utf-8")
    run = tmp_path / "run.txt"
    run.write_text(tool.pipeline_config(config, tmp_path / "work", strategy="MeanAll",
                                        scope="all_units"), encoding="utf-8")
    cfg = parse_config(run)
    assert (cfg["strategy"], cfg["scope"], cfg["per_cell"]) == ("MeanAll", "all_units", "16")


def test_perfbench_digests_on_the_smoke_schedule(tool, tmp_path):
    digests = tool.perfbench_digests(ROOT, tmp_path / "pb", seeds=(1,), scale="TINY")
    assert list(digests) == ["train_aug seed 1", "train_main seed 1", "eval_fusion seed 1"]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    assert len(set(digests.values())) == 3


def test_perfbench_digests_read_what_run_variants_keeps(tool, tmp_path):
    """A tree whose `run_variants` scores every epoch gives the same digests: they
    cover every row's epoch and train_loss and the final row whole."""
    every = tmp_path / "every"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, every / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    experiments = every / "src" / "normaug" / "experiments.py"
    text = experiments.read_text()
    assert text.count("score_every_epoch=False") == 1
    experiments.write_text(text.replace("score_every_epoch=False", "score_every_epoch=True"))
    digests = [tool.perfbench_digests(tree, tmp_path / name, seeds=(1,), scale="TINY")
               for tree, name in ((ROOT, "last"), (every, "all"))]
    assert digests[0] == digests[1]
